/**
 * @file
 * The mutations the JSON and spec-loader fuzz tests apply to valid
 * documents. Both draw from a caller-seeded generator, so every mutant is
 * reproducible from the test's seed.
 */
#ifndef LOGNIC_TESTS_IO_MUTATE_HPP_
#define LOGNIC_TESTS_IO_MUTATE_HPP_

#include <cctype>
#include <random>
#include <string>

namespace lognic::test {

/// Overwrite @p count randomly chosen bytes of @p doc with random bytes.
inline void
mutate_bytes(std::string& doc, int count, std::mt19937_64& rng)
{
    std::uniform_int_distribution<std::size_t> pos(0, doc.size() - 1);
    std::uniform_int_distribution<int> byte(0, 255);
    for (int m = 0; m < count; ++m)
        doc[pos(rng)] = static_cast<char>(byte(rng));
}

/// Overwrite one randomly chosen byte of @p doc: a digit with a random
/// digit, anything else with a random lowercase letter. Digit-to-digit
/// changes keep documents parseable more often, so they reach the loaders
/// behind the parser.
inline void
mutate_digit(std::string& doc, std::mt19937_64& rng)
{
    std::uniform_int_distribution<std::size_t> pos(0, doc.size() - 1);
    const std::size_t p = pos(rng);
    if (std::isdigit(static_cast<unsigned char>(doc[p])))
        doc[p] = static_cast<char>('0' + (rng() % 10));
    else
        doc[p] = static_cast<char>('a' + (rng() % 26));
}

} // namespace lognic::test

#endif // LOGNIC_TESTS_IO_MUTATE_HPP_
