/**
 * @file
 * Checkpoint file format and generation store: checksums, bit-exact hex
 * encodings, the atomic-rename publication protocol, and the
 * corrupt/torn/skewed-generation rejection corpus. Every defect must be
 * detected *by name* and skipped in favor of an older valid generation —
 * silently loading damaged state is the one unforgivable failure mode.
 */
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "lognic/ckpt/store.hpp"
#include "lognic/io/checkpoint.hpp"
#include "kill_points.hpp"

namespace lognic {
namespace {

namespace fs = std::filesystem;
using test::TempDir;

void
write_raw(const std::string& path, const std::string& contents)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << contents;
}

std::string
read_raw(const std::string& path)
{
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
}

// --- FNV-1a -------------------------------------------------------------------

// Published FNV-1a 64 reference vectors.
TEST(Fnv1a, MatchesReferenceVectors)
{
    EXPECT_EQ(io::fnv1a64(""), 0xcbf29ce484222325ull);
    EXPECT_EQ(io::fnv1a64("a"), 0xaf63dc4c8601ec8cull);
    EXPECT_EQ(io::fnv1a64("foobar"), 0x85944171f73967e8ull);
}

TEST(Fnv1a, SensitiveToEveryByte)
{
    const std::string base(256, 'x');
    const std::uint64_t h = io::fnv1a64(base);
    for (std::size_t i = 0; i < base.size(); i += 17) {
        std::string flipped = base;
        flipped[i] ^= 0x01;
        EXPECT_NE(io::fnv1a64(flipped), h) << "byte " << i;
    }
}

// --- hex encodings ------------------------------------------------------------

TEST(HexCodec, DoubleRoundTripsBitExactly)
{
    const double cases[] = {0.0,
                            -0.0,
                            1.0,
                            -1.5,
                            3.141592653589793,
                            1e-300,
                            -1e308,
                            std::numeric_limits<double>::denorm_min(),
                            std::numeric_limits<double>::max(),
                            std::numeric_limits<double>::infinity(),
                            -std::numeric_limits<double>::infinity(),
                            std::numeric_limits<double>::quiet_NaN()};
    for (double v : cases) {
        const double back = io::double_from_hex(io::double_to_hex(v), "t");
        EXPECT_EQ(std::bit_cast<std::uint64_t>(back),
                  std::bit_cast<std::uint64_t>(v))
            << io::double_to_hex(v);
    }
}

TEST(HexCodec, U64RoundTripsAndParsesStrictly)
{
    for (std::uint64_t v :
         std::initializer_list<std::uint64_t>{
             0, 1, 42, 0xdeadbeefcafef00dull,
             std::numeric_limits<std::uint64_t>::max()}) {
        EXPECT_EQ(io::parse_u64(io::u64_to_hex(v), "t"), v);
    }
    EXPECT_EQ(io::parse_u64("12345", "t"), 12345u);
    EXPECT_EQ(io::parse_u64(" 7 ", "t"), 7u);
    EXPECT_THROW(io::parse_u64("", "t"), std::runtime_error);
    EXPECT_THROW(io::parse_u64("12x", "t"), std::runtime_error);
    EXPECT_THROW(io::parse_u64("-3", "t"), std::runtime_error);
    EXPECT_THROW(io::parse_u64("99999999999999999999999", "t"),
                 std::runtime_error);
    // The context lands in the error message.
    try {
        io::parse_u64("bogus", "spec field seed");
        FAIL() << "expected throw";
    } catch (const std::runtime_error& e) {
        EXPECT_NE(std::string(e.what()).find("spec field seed"),
                  std::string::npos);
    }
}

TEST(HexCodec, ParseU64RejectsSignsOctalPrefixAndHexGarbage)
{
    // The hand-rolled parser (replacing raw std::stoull) must reject
    // everything stoull silently tolerated or misread.
    EXPECT_THROW(io::parse_u64("+5", "t"), std::runtime_error); // sign
    EXPECT_THROW(io::parse_u64("0x", "t"), std::runtime_error); // no digits
    EXPECT_THROW(io::parse_u64("0xg1", "t"), std::runtime_error);
    EXPECT_THROW(io::parse_u64("0x1g", "t"), std::runtime_error);
    EXPECT_THROW(io::parse_u64("1 2", "t"), std::runtime_error);
    EXPECT_THROW(io::parse_u64("0x10000000000000000", "t"),
                 std::runtime_error); // hex overflow
    // Leading zeros are decimal, never octal.
    EXPECT_EQ(io::parse_u64("0777", "t"), 777u);
    // Hex is case-insensitive and whitespace-trimmed.
    EXPECT_EQ(io::parse_u64(" 0X1a ", "t"), 26u);
    EXPECT_EQ(io::parse_u64("0xffffffffffffffff", "t"),
              std::numeric_limits<std::uint64_t>::max());
}

// --- a generation's frame: its header line and snapshot record ----------------

/// A generation file as CheckpointStore::save() writes it: the header
/// line, then @p payload as record 0.
std::string
generation_file(const std::string& kind, const std::string& payload)
{
    return io::encode_log_header({io::kCheckpointVersion, kind})
        + io::encode_record(payload);
}

TEST(Frame, RoundTripsBinaryPayloads)
{
    TempDir dir("ckpt_frame");
    ckpt::CheckpointStore store(dir.path(), "sweep");
    const std::string payload("line1\nline2\0binary\xff tail", 24);
    EXPECT_EQ(store.save(payload), 1u);
    const std::string file = read_raw(store.path_for(1));
    EXPECT_EQ(file, "LOGNICCKPT 2 sweep\n24 "
                        + io::u64_to_hex(io::fnv1a64(payload)) + "\n"
                        + payload);
    EXPECT_EQ(file, generation_file("sweep", payload));

    std::string reason;
    const auto decoded = io::decode_log(file, &reason);
    ASSERT_TRUE(decoded.has_value()) << reason;
    EXPECT_EQ(decoded->header.version, io::kCheckpointVersion);
    EXPECT_EQ(decoded->header.kind, "sweep");
    EXPECT_EQ(decoded->records, std::vector<std::string>{payload});
    const auto back = store.load_latest();
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->payload, payload);
    EXPECT_TRUE(back->records.empty());
    EXPECT_FALSE(back->tail.has_value());
}

TEST(Frame, RejectsBadKinds)
{
    EXPECT_THROW(io::encode_log_header({io::kCheckpointVersion, ""}),
                 std::exception);
    EXPECT_THROW(io::encode_log_header({io::kCheckpointVersion, "has space"}),
                 std::exception);
    TempDir dir("ckpt_frame_kind");
    ckpt::CheckpointStore store(dir.path(), "has space");
    EXPECT_THROW(store.save("x"), std::exception);
}

TEST(Frame, NamesEveryDefect)
{
    TempDir dir("ckpt_frame_defects");
    ckpt::CheckpointStore store(dir.path(), "check", ckpt::StoreOptions{10});
    const std::string good = generation_file("check", "{\"journal\":{}}");
    std::string rotted = good;
    rotted[rotted.size() - 2] ^= 0x20;
    std::string magic = good;
    magic[0] = 'X';
    std::string future = good;
    future.replace(future.find(' ') + 1, 1, "9"); // version 2 -> 9
    // Oldest first; load_latest() names them newest first.
    const std::vector<std::string> defects{
        "",                                 // empty file
        good.substr(0, good.find('\n') + 1), // header, no snapshot
        good.substr(0, good.size() - 3),    // torn snapshot
        rotted,                             // bit rot in the snapshot
        magic,
        future};
    for (std::size_t g = 0; g < defects.size(); ++g)
        write_raw(store.path_for(g + 1), defects[g]);

    std::vector<ckpt::Rejected> rejected;
    EXPECT_FALSE(store.load_latest(&rejected).has_value());
    ASSERT_EQ(rejected.size(), defects.size());
    const std::vector<std::string> named{
        "version skew",          "bad magic",
        "snapshot record: checksum mismatch",
        "snapshot record: truncated record",
        "snapshot record: missing", "truncated header"};
    for (std::size_t i = 0; i < named.size(); ++i) {
        EXPECT_EQ(rejected[i].path, store.path_for(defects.size() - i));
        EXPECT_NE(rejected[i].reason.find(named[i]), std::string::npos)
            << rejected[i].reason;
    }
}

TEST(Frame, GarbageHeaderNumbersRejectedByNameNotCrash)
{
    const std::string good = generation_file("check", "payload");
    const std::size_t nl = good.find('\n');
    ASSERT_NE(nl, std::string::npos);
    // The snapshot record's size and checksum line.
    const std::string tail = good.substr(good.find('\n', nl + 1));
    const auto with_record = [&](const std::string& size,
                                 const std::string& sum) {
        return good.substr(0, nl + 1) + size + " " + sum + tail;
    };

    // Swap the numeric fields for garbage a raw stoull would crash on
    // (out_of_range) or silently misparse, and check each is rejected with
    // its field named.
    std::string reason;
    auto log = io::decode_log(
        with_record("99999999999999999999999", "0x0"), &reason);
    ASSERT_TRUE(log.has_value()) << reason;
    EXPECT_TRUE(log->records.empty());
    EXPECT_NE(log->defect.find("record size"), std::string::npos)
        << log->defect;
    EXPECT_NE(log->defect.find("out of range"), std::string::npos)
        << log->defect;
    log = io::decode_log(with_record("7", "0xnope"), &reason);
    ASSERT_TRUE(log.has_value()) << reason;
    EXPECT_TRUE(log->records.empty());
    EXPECT_NE(log->defect.find("record checksum"), std::string::npos)
        << log->defect;
    // Signed version.
    std::string signed_version = good;
    signed_version.replace(good.find(' ') + 1, 1, "-1");
    EXPECT_FALSE(io::decode_log(signed_version, &reason));
    EXPECT_NE(reason.find("version"), std::string::npos) << reason;
}

// --- atomic_write_file --------------------------------------------------------

TEST(AtomicWrite, CreatesAndReplaces)
{
    TempDir dir("ckpt_atomic");
    const std::string path = dir.path() + "/file.txt";
    io::atomic_write_file(path, "first");
    EXPECT_EQ(read_raw(path), "first");
    io::atomic_write_file(path, "second");
    EXPECT_EQ(read_raw(path), "second");
    // No temporary left behind.
    EXPECT_FALSE(fs::exists(path + ".tmp"));
}

TEST(AtomicWrite, NamesThePathOnFailure)
{
    const std::string path = "/nonexistent-dir-zzz/file.txt";
    try {
        io::atomic_write_file(path, "x");
        FAIL() << "expected throw";
    } catch (const std::runtime_error& e) {
        EXPECT_NE(std::string(e.what()).find("/nonexistent-dir-zzz"),
                  std::string::npos)
            << e.what();
    }
}

// --- the generation store -----------------------------------------------------

TEST(Store, SaveLoadRoundTripsNewestGeneration)
{
    TempDir dir("ckpt_store");
    ckpt::CheckpointStore store(dir.path(), "sweep");
    EXPECT_FALSE(store.load_latest().has_value());

    EXPECT_EQ(store.save("gen one"), 1u);
    EXPECT_EQ(store.save("gen two"), 2u);
    const auto loaded = store.load_latest();
    ASSERT_TRUE(loaded.has_value());
    EXPECT_EQ(loaded->generation, 2u);
    EXPECT_EQ(loaded->payload, "gen two");
}

TEST(Store, ResumesNumberingAcrossInstances)
{
    TempDir dir("ckpt_renum");
    {
        ckpt::CheckpointStore store(dir.path(), "sim");
        store.save("a");
        store.save("b");
    }
    ckpt::CheckpointStore reopened(dir.path(), "sim");
    EXPECT_EQ(reopened.save("c"), 3u);
    EXPECT_EQ(reopened.load_latest()->payload, "c");
}

TEST(Store, PrunesBeyondRetention)
{
    TempDir dir("ckpt_retention");
    ckpt::CheckpointStore store(dir.path(), "calib",
                                ckpt::StoreOptions{2});
    for (int i = 0; i < 5; ++i)
        store.save("g" + std::to_string(i));
    const auto gens = store.generations();
    ASSERT_EQ(gens.size(), 2u);
    EXPECT_EQ(gens[0], 4u);
    EXPECT_EQ(gens[1], 5u);
}

TEST(Store, FallsBackPastCorruptTornAndSkewedGenerations)
{
    TempDir dir("ckpt_fallback");
    ckpt::CheckpointStore store(dir.path(), "check",
                                ckpt::StoreOptions{10});
    store.save("oldest good");
    store.save("middle good");
    store.save("newest");

    // Newest: flipped payload byte (checksum mismatch).
    {
        std::string data = read_raw(store.path_for(3));
        data[data.size() - 1] ^= 0x01;
        write_raw(store.path_for(3), data);
    }
    // Middle stays good; write a torn 4th and a version-skewed 5th
    // directly (simulating a crashed writer and a future producer).
    {
        ckpt::CheckpointStore again(dir.path(), "check",
                                    ckpt::StoreOptions{10});
        again.save("torn candidate");
        std::string data = read_raw(store.path_for(4));
        write_raw(store.path_for(4), data.substr(0, data.size() / 2));
        std::string future = read_raw(store.path_for(2));
        const auto sp = future.find(' ');
        future.replace(sp + 1, 1, "8");
        write_raw(store.path_for(5), future);
    }

    std::vector<ckpt::Rejected> rejected;
    const auto loaded = store.load_latest(&rejected);
    ASSERT_TRUE(loaded.has_value());
    EXPECT_EQ(loaded->generation, 2u);
    EXPECT_EQ(loaded->payload, "middle good");
    ASSERT_EQ(rejected.size(), 3u);
    EXPECT_NE(rejected[0].reason.find("version skew"), std::string::npos);
    EXPECT_NE(rejected[1].reason.find("truncated"), std::string::npos);
    EXPECT_NE(rejected[2].reason.find("checksum"), std::string::npos);
}

TEST(Store, RefusesAVersionOneGenerationByName)
{
    // Version 1 kept a snapshot as a whole-payload frame, with a record
    // log beside it in a .lnlog file of its own.
    TempDir dir("ckpt_v1");
    ckpt::CheckpointStore store(dir.path(), "check");
    store.save("current");
    const std::string payload = "{\"journal\":{}}";
    write_raw(store.path_for(2),
              "LOGNICCKPT 1 check " + std::to_string(payload.size()) + " "
                  + io::u64_to_hex(io::fnv1a64(payload)) + "\n" + payload);

    std::vector<ckpt::Rejected> rejected;
    const auto loaded = store.load_latest(&rejected);
    ASSERT_TRUE(loaded.has_value());
    EXPECT_EQ(loaded->generation, 1u);
    EXPECT_EQ(loaded->payload, "current");
    ASSERT_EQ(rejected.size(), 1u);
    EXPECT_EQ(rejected[0].path, store.path_for(2));
    EXPECT_EQ(rejected[0].reason,
              "version skew: file version 1, reader supports 2");
}

TEST(Store, IgnoresTmpLeftoversAndForeignKinds)
{
    TempDir dir("ckpt_tmp");
    ckpt::CheckpointStore store(dir.path(), "sweep");
    store.save("real");
    // A crashed writer's leftover and unrelated files must not be scanned.
    write_raw(dir.path() + "/sweep-00000099.lnck.tmp", "junk");
    write_raw(dir.path() + "/notes.txt", "junk");

    // A generation of a different kind renamed into this store's
    // namespace is rejected as a kind mismatch, not loaded.
    ckpt::CheckpointStore other(dir.path(), "calib");
    other.save("calib payload");
    fs::rename(other.path_for(1), store.path_for(50));

    std::vector<ckpt::Rejected> rejected;
    const auto loaded = store.load_latest(&rejected);
    ASSERT_TRUE(loaded.has_value());
    EXPECT_EQ(loaded->payload, "real");
    ASSERT_EQ(rejected.size(), 1u);
    EXPECT_NE(rejected[0].reason.find("kind mismatch"), std::string::npos);
}

TEST(Store, ScanSurvivesGarbageNeighborFilenames)
{
    TempDir dir("ckpt_garbage");
    ckpt::CheckpointStore store(dir.path(), "sweep");
    store.save("real");

    // Files somebody else dropped next to ours: wrong digit-run length
    // (including one long enough to overflow a raw stoull), non-digit
    // characters in the generation slot, and a missing generation
    // entirely. The scan must skip every one without throwing.
    write_raw(dir.path() + "/sweep-99999999999999999999999.lnck", "junk");
    write_raw(dir.path() + "/sweep-0000001x.lnck", "junk");
    write_raw(dir.path() + "/sweep-1.lnck", "junk");
    write_raw(dir.path() + "/sweep-.lnck", "junk");
    write_raw(dir.path() + "/sweep-деадбиф.lnck", "junk");

    const auto gens = store.generations();
    ASSERT_EQ(gens.size(), 1u);
    EXPECT_EQ(gens[0], 1u);
    const auto loaded = store.load_latest();
    ASSERT_TRUE(loaded.has_value());
    EXPECT_EQ(loaded->payload, "real");

    // A reopened store resumes numbering from the real generation, not
    // from any of the garbage.
    ckpt::CheckpointStore reopened(dir.path(), "sweep");
    EXPECT_EQ(reopened.save("next"), 2u);
}

TEST(Store, RejectsInvalidConstruction)
{
    TempDir dir("ckpt_invalid");
    EXPECT_THROW(ckpt::CheckpointStore(dir.path(), ""),
                 std::runtime_error);
    EXPECT_THROW(
        ckpt::CheckpointStore(dir.path(), "x", ckpt::StoreOptions{0}),
        std::runtime_error);
}

} // namespace
} // namespace lognic
