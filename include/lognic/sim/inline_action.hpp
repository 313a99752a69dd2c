/**
 * @file
 * Small-buffer-optimized event action for the DES hot path.
 *
 * `InlineAction` replaces `std::function<void()>` on the event calendar.
 * The difference that matters at millions of events per second: the
 * callable is stored *inline* in the event record, never on the heap, and
 * is required (at compile time) to be trivially copyable and trivially
 * destructible. That buys three things:
 *
 *  - `EventQueue::schedule_at` never allocates — libstdc++'s
 *    `std::function` spills any capture larger than 16 bytes to the heap,
 *    and every simulator closure capturing `this` plus a packet pointer
 *    plus a couple of scalars is larger than that;
 *  - copying an action is a memcpy — no copy constructors, no destructor
 *    bookkeeping;
 *  - event destruction is free — popping an event runs no destructor.
 *
 * The capacity is a hard compile-time budget: a closure that outgrows
 * `kCapacity` (or captures a non-trivially-copyable payload such as a
 * `std::string` or `std::function` by value) fails to compile with a
 * static_assert naming the violated constraint, rather than silently
 * reintroducing allocations. Capture heavyweight state by pointer or
 * reference — the simulator owns it elsewhere (e.g. the packet slab).
 */
#ifndef LOGNIC_SIM_INLINE_ACTION_HPP_
#define LOGNIC_SIM_INLINE_ACTION_HPP_

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace lognic::sim {

class InlineAction {
  public:
    /**
     * Inline payload budget in bytes. Sized for the largest simulator
     * closure (`this` + packet pointer + a vertex id + four 8-byte
     * scalars = 56 bytes); with the invoke pointer one action is 64
     * bytes. Growing a closure past the budget is a compile error —
     * prefer slimming the capture.
     */
    static constexpr std::size_t kCapacity = 56;

    InlineAction() = default;

    /// Wrap any trivially-copyable callable that fits the inline budget.
    template <typename F,
              typename = std::enable_if_t<
                  !std::is_same_v<std::decay_t<F>, InlineAction>>>
    InlineAction(F&& fn) // NOLINT(google-explicit-constructor)
    {
        using Fn = std::decay_t<F>;
        static_assert(sizeof(Fn) <= kCapacity,
                      "InlineAction: closure exceeds the inline budget; "
                      "capture large state by pointer (e.g. a slab Packet*)");
        static_assert(alignof(Fn) <= alignof(void*),
                      "InlineAction: over-aligned closures are not "
                      "supported on the event hot path");
        static_assert(std::is_trivially_copyable_v<Fn>,
                      "InlineAction: event closures must be trivially "
                      "copyable (no std::function/std::string captures)");
        static_assert(std::is_trivially_destructible_v<Fn>,
                      "InlineAction: event closures must be trivially "
                      "destructible (events are dropped without running "
                      "destructors)");
        ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(fn));
        invoke_ = [](void* storage) {
            (*std::launder(reinterpret_cast<Fn*>(storage)))();
        };
    }

    void operator()() { invoke_(storage_); }

    explicit operator bool() const { return invoke_ != nullptr; }

  private:
    void (*invoke_)(void*){nullptr};
    alignas(alignof(void*)) unsigned char storage_[kCapacity]{};
};

static_assert(std::is_trivially_copyable_v<InlineAction>,
              "InlineAction must stay memcpy-friendly: actions are "
              "copied and dropped as raw bytes");

} // namespace lognic::sim

#endif // LOGNIC_SIM_INLINE_ACTION_HPP_
