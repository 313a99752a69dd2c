/**
 * @file
 * Deterministic fuzzing of the checkpoint reader, io::decode_log, on
 * generation files: random byte flips, truncation at every offset, and
 * random garbage. The reader must never crash (run under ASan in
 * sanitizer builds), must never accept a record whose checksum fails, and
 * must name every defect it finds. A generation is usable only when its
 * header and its snapshot, record 0, decode.
 */
#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "lognic/io/checkpoint.hpp"

namespace lognic::io {
namespace {

const std::string kPayload =
    R"({"fingerprint":{"workload":"check"},"journal":{"units":[)"
    R"({"key":"trial:0","sims_run":"0x4","failed":false}]}})";

/// A freshly published generation: the header, then the snapshot.
std::string
base_frame()
{
    return encode_log_header({kCheckpointVersion, "check"})
        + encode_record(kPayload);
}

const std::vector<std::string> kRecords{
    kPayload,
    R"(units {"key":"trial:1","sims_run":"0x4","failed":false})",
    R"(units {"key":"trial:2","sims_run":"0x1","failed":true})",
    std::string("binary\0\n\xff", 10),
    R"(units {"key":"trial:3","sims_run":"0x4","failed":false})"};

/// A generation with records appended after its snapshot.
std::string
base_log()
{
    std::string log = encode_log_header({kCheckpointVersion, "check"});
    for (const auto& r : kRecords)
        log += encode_record(r);
    return log;
}

/**
 * Every record decode_log accepts passed its checksum, so under random
 * damage the accepted records are a prefix of the originals; a file not
 * accepted in full names why. Returns whether the snapshot is usable.
 */
bool
expect_log_sound(const std::string& data)
{
    std::string reason;
    const auto log = decode_log(data, &reason);
    if (!log) {
        EXPECT_FALSE(reason.empty());
        return false;
    }
    EXPECT_LE(log->records.size(), kRecords.size());
    for (std::size_t i = 0;
         i < log->records.size() && i < kRecords.size(); ++i)
        EXPECT_EQ(log->records[i], kRecords[i]) << "record " << i;
    EXPECT_LE(log->valid_bytes, data.size());
    EXPECT_EQ(log->defect.empty(), log->valid_bytes == data.size())
        << log->defect;
    return !log->records.empty();
}

TEST(CheckpointFuzz, FrameByteFlipsAreRejectedOrHarmless)
{
    const std::string base = base_frame();
    std::mt19937_64 rng(2024);
    std::uniform_int_distribution<std::size_t> pos(0, base.size() - 1);
    std::uniform_int_distribution<int> byte(0, 255);
    int rejected = 0;
    for (int round = 0; round < 2000; ++round) {
        std::string data = base;
        const int flips = 1 + round % 4;
        for (int f = 0; f < flips; ++f)
            data[pos(rng)] = static_cast<char>(byte(rng));
        rejected += expect_log_sound(data) ? 0 : 1;
    }
    EXPECT_GT(rejected, 1900);
}

TEST(CheckpointFuzz, FrameTruncatedAtEveryOffsetIsRejectedByName)
{
    const std::string base = base_frame();
    const std::size_t header = base.find('\n') + 1;
    for (std::size_t len = 0; len < base.size(); ++len) {
        std::string reason;
        const auto log = decode_log(base.substr(0, len), &reason);
        if (!log) {
            EXPECT_FALSE(reason.empty()) << len;
            continue;
        }
        EXPECT_TRUE(log->records.empty()) << len;
        // A file that ends right after its header has no defect to name;
        // the store rejects it as a missing snapshot record.
        if (len != header)
            EXPECT_FALSE(log->defect.empty()) << len;
    }
    const auto whole = decode_log(base);
    ASSERT_TRUE(whole.has_value());
    EXPECT_EQ(whole->records, std::vector<std::string>{kPayload});
}

TEST(CheckpointFuzz, LogByteFlipsNeverYieldABadRecord)
{
    const std::string base = base_log();
    std::mt19937_64 rng(7);
    std::uniform_int_distribution<std::size_t> pos(0, base.size() - 1);
    std::uniform_int_distribution<int> byte(0, 255);
    for (int round = 0; round < 2000; ++round) {
        std::string data = base;
        const int flips = 1 + round % 4;
        for (int f = 0; f < flips; ++f)
            data[pos(rng)] = static_cast<char>(byte(rng));
        expect_log_sound(data);
    }
}

TEST(CheckpointFuzz, LogTruncatedAtEveryOffsetKeepsAPrefix)
{
    const std::string base = base_log();
    const std::size_t header = base.find('\n') + 1;
    const std::size_t snapshot = base_frame().size();
    for (std::size_t len = 0; len <= base.size(); ++len) {
        const std::string data = base.substr(0, len);
        EXPECT_EQ(expect_log_sound(data), len >= snapshot) << len;
        EXPECT_EQ(decode_log(data).has_value(), len >= header) << len;
    }
}

TEST(CheckpointFuzz, RandomGarbageIsRejectedByName)
{
    std::mt19937_64 rng(99);
    std::uniform_int_distribution<int> byte(0, 255);
    std::uniform_int_distribution<std::size_t> len(0, 256);
    const std::string prefixes[] = {"", "LOGNICCKPT 2 check ",
                                    "LOGNICCKPT 2 check\n"};
    for (int round = 0; round < 1500; ++round) {
        std::string data = prefixes[round % 3];
        for (std::size_t n = len(rng); n > 0; --n)
            data += static_cast<char>(byte(rng));
        std::string reason;
        const auto log = decode_log(data, &reason);
        if (!log)
            EXPECT_FALSE(reason.empty());
        else
            EXPECT_EQ(log->defect.empty(), log->valid_bytes == data.size());
    }
}

} // namespace
} // namespace lognic::io
