// ---------------------------------------------------------------------------
// Global allocation counter. Replacing the replaceable global operator new
// lets a test assert an allocation property directly, e.g. that once the
// calendar reaches its high-water population, schedule + dispatch perform
// zero heap allocations. The replacement affects the whole test binary,
// but only the allocation tests read the counters around a critical
// region, so the other tests are unaffected.
//
// Disabled under ASan: the sanitizer pairs its own operator-new interceptor
// with its free interceptor, and a malloc-backed replacement in the
// executable trips alloc-dealloc-mismatch on allocations made inside
// unsanitized libraries (e.g. gtest). Under ASan the counting tests are
// skipped — that build's job is catching slab/action lifetime bugs, and
// the allocation claims are covered by every non-sanitized run.
// ---------------------------------------------------------------------------
#include "heap_counter.hpp"

#include <atomic>
#include <cstdlib>
#include <new>

namespace {
std::atomic<std::uint64_t> g_heap_allocs{0};
std::atomic<std::uint64_t> g_heap_bytes{0};
} // namespace

namespace lognic::test {

std::uint64_t
heap_allocations()
{
    return g_heap_allocs.load(std::memory_order_relaxed);
}

std::uint64_t
heap_bytes()
{
    return g_heap_bytes.load(std::memory_order_relaxed);
}

} // namespace lognic::test

#ifndef LOGNIC_TEST_ASAN

// Out of line: once GCC inlines a replacement into a caller, it pairs the
// free() below with the caller's operator new and warns
// (-Wmismatched-new-delete), although the pair is this file's own.

[[gnu::noinline]] void*
operator new(std::size_t size)
{
    g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
    g_heap_bytes.fetch_add(size, std::memory_order_relaxed);
    if (void* p = std::malloc(size ? size : 1))
        return p;
    throw std::bad_alloc{};
}

[[gnu::noinline]] void
operator delete(void* p) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete(void* p, std::size_t) noexcept
{
    std::free(p);
}

#endif // !LOGNIC_TEST_ASAN
