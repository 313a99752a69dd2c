/**
 * @file
 * Deterministic fuzzing of the JSON parser: random mutations of valid
 * documents must either parse cleanly or throw std::runtime_error — never
 * crash, hang, or corrupt memory (run under ASan in sanitizer builds).
 */
#include <gtest/gtest.h>
#include <random>
#include <string>
#include <utility>

#include "../test_helpers.hpp"
#include "lognic/io/serialize.hpp"
#include "mutate.hpp"

namespace lognic::io {
namespace {

std::string
base_document()
{
    const Scenario scenario{test::small_nic(),
                            test::two_stage_graph(test::small_nic()),
                            test::mtu_traffic(8.0)};
    return save_scenario(scenario);
}

TEST(JsonFuzz, ByteMutationsNeverCrash)
{
    const std::string base = base_document();
    std::mt19937_64 rng(2024);

    int parsed_ok = 0;
    int rejected = 0;
    for (int round = 0; round < 500; ++round) {
        std::string doc = base;
        test::mutate_bytes(doc, 1 + round % 8, rng);
        try {
            const Json v = Json::parse(doc);
            // Parsed documents must re-serialize without throwing.
            (void)v.dump(-1);
            ++parsed_ok;
        } catch (const std::runtime_error&) {
            ++rejected;
        }
    }
    EXPECT_EQ(parsed_ok + rejected, 500);
    EXPECT_GT(rejected, 0); // mutations do break documents
}

TEST(JsonFuzz, TruncationsNeverCrash)
{
    const std::string base = base_document();
    for (std::size_t len = 0; len < base.size();
         len += std::max<std::size_t>(1, base.size() / 200)) {
        const std::string doc = base.substr(0, len);
        try {
            (void)Json::parse(doc);
        } catch (const std::runtime_error&) {
            // expected for most prefixes
        }
    }
    SUCCEED();
}

TEST(JsonFuzz, ScenarioDecoderRejectsMutationsGracefully)
{
    // Even when the JSON parses, the scenario decoder may reject the
    // semantics; both outcomes are fine, crashes are not.
    const std::string base = base_document();
    std::mt19937_64 rng(7);
    int loaded = 0;
    for (int round = 0; round < 300; ++round) {
        std::string doc = base;
        test::mutate_digit(doc, rng);
        try {
            (void)load_scenario(doc);
            ++loaded;
        } catch (const std::exception&) {
        }
    }
    EXPECT_GT(loaded, 0); // benign digit tweaks usually survive
}

TEST(JsonFuzz, DeepNestingThrows)
{
    // Each level recurses once, so without a cap these overflow the stack.
    std::string objects;
    for (int i = 0; i < 100000; ++i)
        objects += "{\"k\":";
    const std::pair<std::string, std::size_t> cases[] = {
        {std::string(1000000, '['), 512},
        {std::string(100000, '[') + std::string(100000, ']'), 512},
        {objects, 512 * 5}, // the bracket that would open level 513
    };
    for (const auto& [doc, offset] : cases) {
        try {
            (void)Json::parse(doc);
            ADD_FAILURE() << "a " << doc.size() << "-byte nest parsed";
        } catch (const std::runtime_error& e) {
            EXPECT_EQ(e.what(), "Json parse error at offset "
                                    + std::to_string(offset)
                                    + ": nesting deeper than 512");
        }
    }

    // 512 levels is the cap itself: accepted, and written back unchanged.
    const std::string deepest =
        std::string(512, '[') + "1" + std::string(512, ']');
    EXPECT_EQ(Json::parse(deepest).dump(-1), deepest);
    EXPECT_THROW(Json::parse("[" + deepest + "]"), std::runtime_error);
}

TEST(JsonFuzz, RandomGarbageNeverCrashes)
{
    std::mt19937_64 rng(99);
    std::uniform_int_distribution<int> byte(0, 255);
    std::uniform_int_distribution<std::size_t> len(0, 256);
    for (int round = 0; round < 500; ++round) {
        std::string doc(len(rng), '\0');
        for (auto& c : doc)
            c = static_cast<char>(byte(rng));
        try {
            (void)Json::parse(doc);
        } catch (const std::runtime_error&) {
        }
    }
    SUCCEED();
}

} // namespace
} // namespace lognic::io
