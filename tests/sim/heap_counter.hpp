/**
 * @file
 * Heap use as the sim test binary's replacement global operator new sees
 * it (heap_counter.cpp). Allocation tests read a counter before and after
 * a critical region; every other test ignores it.
 */
#ifndef LOGNIC_TESTS_SIM_HEAP_COUNTER_HPP_
#define LOGNIC_TESTS_SIM_HEAP_COUNTER_HPP_

#include <cstdint>

#if defined(__SANITIZE_ADDRESS__)
#define LOGNIC_TEST_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define LOGNIC_TEST_ASAN 1
#endif
#endif

namespace lognic::test {

/// Calls of the global operator new so far (0 forever under ASan).
std::uint64_t heap_allocations();

/// Bytes those calls asked for (0 forever under ASan).
std::uint64_t heap_bytes();

} // namespace lognic::test

#endif // LOGNIC_TESTS_SIM_HEAP_COUNTER_HPP_
