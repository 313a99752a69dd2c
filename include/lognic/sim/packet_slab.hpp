/**
 * @file
 * Slab/free-list recycler for in-flight packet state (and for the event
 * calendar's pending actions, which follow the same pattern).
 *
 * The simulator allocates one record per packet arrival and retires it at
 * delivery or drop — millions of times per run. A general-purpose heap
 * round trip per packet is pure overhead: the records are identical in
 * size, their population is bounded by the in-flight window, and their
 * lifetime nests inside the simulator's. The slab exploits all three
 * (see DESIGN.md §10):
 *
 *  - storage grows in fixed-size chunks that are never freed or moved
 *    until the slab dies, so `T*` handles stay stable for the packet's
 *    whole flight and events can capture them inline;
 *  - retired slots go on a LIFO free list and are handed back to the next
 *    `acquire()`, so steady state performs zero heap traffic — the heap
 *    is touched only when the in-flight high-water mark grows;
 *  - recycling order is a pure function of the event order, so a seeded
 *    run acquires the same logical slots in the same sequence every time
 *    (nothing may key on pointer *values*, which vary run to run).
 *
 * Single-threaded by design, like the simulators that own it.
 */
#ifndef LOGNIC_SIM_PACKET_SLAB_HPP_
#define LOGNIC_SIM_PACKET_SLAB_HPP_

#include <cstddef>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

namespace lognic::sim {

template <typename T>
class Slab {
  public:
    /// @p chunk_capacity objects are added per growth step.
    explicit Slab(std::size_t chunk_capacity = 1024)
        : chunk_capacity_(chunk_capacity > 0 ? chunk_capacity : 1)
    {
    }

    Slab(const Slab&) = delete;
    Slab& operator=(const Slab&) = delete;

    /// Construct a T in a recycled (or freshly grown) slot.
    template <typename... Args>
    T* acquire(Args&&... args)
    {
        if (free_.empty())
            grow();
        T* slot = free_.back();
        free_.pop_back();
        return ::new (static_cast<void*>(slot))
            T(std::forward<Args>(args)...);
    }

    /// Destroy @p obj and push its slot onto the free list (LIFO reuse).
    void release(T* obj)
    {
        obj->~T();
        free_.push_back(obj);
    }

    /// Total slots across all chunks (the high-water mark, rounded up).
    std::size_t capacity() const { return chunks_.size() * chunk_capacity_; }

    /// Live objects (acquired and not yet released).
    std::size_t in_use() const { return capacity() - free_.size(); }

  private:
    /// Raw, correctly-aligned storage for one T; construction is explicit.
    struct alignas(alignof(T)) Slot {
        unsigned char bytes[sizeof(T)];
    };

    void grow()
    {
        chunks_.push_back(std::make_unique<Slot[]>(chunk_capacity_));
        Slot* base = chunks_.back().get();
        // Reverse push so acquire() walks the chunk front to back. The
        // cast yields an address for placement-new, not yet an object;
        // acquire() materializes the T.
        for (std::size_t i = chunk_capacity_; i-- > 0;)
            free_.push_back(reinterpret_cast<T*>(base[i].bytes));
    }

    std::size_t chunk_capacity_;
    std::vector<std::unique_ptr<Slot[]>> chunks_;
    std::vector<T*> free_;
};

} // namespace lognic::sim

#endif // LOGNIC_SIM_PACKET_SLAB_HPP_
