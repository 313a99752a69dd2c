/**
 * @file
 * Deterministic fuzzing of the checkpoint readers, io::decode_frame and
 * io::decode_log: random byte flips, truncation at every offset, and
 * random garbage. A reader must never crash (run under ASan in sanitizer
 * builds), must never accept a payload or record whose checksum fails,
 * and must name every defect it finds.
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

std::string
base_frame()
{
    return encode_frame(CheckpointFrame{kCheckpointVersion, "check", kPayload});
}

const std::vector<std::string> kRecords{
    R"(units {"key":"trial:1","sims_run":"0x4","failed":false})",
    R"(units {"key":"trial:2","sims_run":"0x1","failed":true})",
    std::string("binary\0\n\xff", 10),
    R"(units {"key":"trial:3","sims_run":"0x4","failed":false})"};

std::string
base_log()
{
    LogHeader header;
    header.kind = "check";
    header.generation = 3;
    header.frame_checksum = fnv1a64(kPayload);
    std::string log = encode_log_header(header);
    for (const auto& r : kRecords)
        log += encode_record(r);
    return log;
}

/// A decoded frame is either the original or carries its own checksum.
void
expect_frame_sound(const std::string& data)
{
    std::string reason;
    const auto frame = decode_frame(data, &reason);
    if (!frame) {
        EXPECT_FALSE(reason.empty());
        return;
    }
    const std::size_t nl = data.find('\n');
    EXPECT_NE(data.substr(0, nl).find(u64_to_hex(fnv1a64(frame->payload))
                                          .substr(2)),
              std::string::npos)
        << "accepted a payload its header checksum does not cover";
}

/**
 * Every record decode_log accepts passed its checksum, so under random
 * damage the accepted records are a prefix of the originals; a log not
 * accepted in full names why.
 */
void
expect_log_sound(const std::string& data)
{
    std::string reason;
    const auto log = decode_log(data, &reason);
    if (!log) {
        EXPECT_FALSE(reason.empty());
        return;
    }
    ASSERT_LE(log->records.size(), kRecords.size());
    for (std::size_t i = 0; i < log->records.size(); ++i)
        EXPECT_EQ(log->records[i], kRecords[i]) << "record " << i;
    EXPECT_LE(log->valid_bytes, data.size());
    EXPECT_EQ(log->defect.empty(), log->valid_bytes == data.size())
        << log->defect;
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
        expect_frame_sound(data);
        rejected += decode_frame(data).has_value() ? 0 : 1;
    }
    EXPECT_GT(rejected, 1900);
}

TEST(CheckpointFuzz, FrameTruncatedAtEveryOffsetIsRejectedByName)
{
    const std::string base = base_frame();
    for (std::size_t len = 0; len < base.size(); ++len) {
        std::string reason;
        EXPECT_FALSE(decode_frame(base.substr(0, len), &reason)) << len;
        EXPECT_FALSE(reason.empty()) << len;
    }
    EXPECT_TRUE(decode_frame(base).has_value());
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
    for (std::size_t len = 0; len <= base.size(); ++len) {
        const std::string data = base.substr(0, len);
        expect_log_sound(data);
        EXPECT_EQ(decode_log(data).has_value(), len >= header) << len;
    }
}

TEST(CheckpointFuzz, RandomGarbageIsRejectedByName)
{
    std::mt19937_64 rng(99);
    std::uniform_int_distribution<int> byte(0, 255);
    std::uniform_int_distribution<std::size_t> len(0, 256);
    const std::string prefixes[] = {"", "LOGNICCKPT 1 check ",
                                    "LOGNICLOG 1 check 3 0x0\n"};
    for (int round = 0; round < 1500; ++round) {
        std::string data = prefixes[round % 3];
        for (std::size_t n = len(rng); n > 0; --n)
            data += static_cast<char>(byte(rng));
        std::string reason;
        if (!decode_frame(data, &reason)) {
            EXPECT_FALSE(reason.empty());
        }
        reason.clear();
        const auto log = decode_log(data, &reason);
        if (!log)
            EXPECT_FALSE(reason.empty());
        else
            EXPECT_EQ(log->defect.empty(), log->valid_bytes == data.size());
    }
}

} // namespace
} // namespace lognic::io
