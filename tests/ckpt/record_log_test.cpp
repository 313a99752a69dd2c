/**
 * @file
 * The append-only record log: its framing, its place next to a snapshot
 * generation, and the Campaign that publishes through it. A torn or
 * rotten record must be named by path, byte offset, and reason and never
 * replayed; a log bound to another snapshot must be refused by name; and
 * publication must stay linear — bytes written and generations kept grow
 * with the records, not with the records squared.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <string>
#include <vector>

#include "lognic/ckpt/journal.hpp"
#include "lognic/ckpt/store.hpp"
#include "lognic/ckpt/supervisor.hpp"
#include "lognic/io/checkpoint.hpp"
#include "kill_points.hpp"

namespace lognic::ckpt {
namespace {

namespace fs = std::filesystem;
using test::clone_killed_at;
using test::KillPoint;
using test::publications;
using test::TempDir;

// --- a synthetic journal ------------------------------------------------------

io::Json
note_to_json(const std::string& note)
{
    io::Json j;
    j.set("note", note);
    return j;
}

std::string
note_from_json(const io::Json& j)
{
    return j.at("note").as_string();
}

/// Notes keyed by index: one small, cheap journal entry per completion.
struct NoteCodec {
    using Key = std::size_t;
    using Value = std::string;
    static constexpr const char* kArray = "notes";
    static constexpr const char* kKey = "id";
    static constexpr auto to_json = note_to_json;
    static constexpr auto from_json = note_from_json;
};
using NoteJournal = Journal<NoteCodec>;

std::string
note(std::size_t i)
{
    return "completed unit " + std::to_string(i)
        + " of a synthetic campaign; its outcome is this sentence";
}

io::Json
notes_fingerprint()
{
    io::Json fp;
    fp.set("workload", "notes");
    return fp;
}

SupervisorOptions
every_publication(const std::string& dir)
{
    SupervisorOptions sup;
    sup.dir = dir;
    sup.checkpoint_every = 1;
    sup.retention = 1000;
    return sup;
}

/// Record notes [0, n) into @p journal under @p campaign, one completion
/// each, skipping those the journal already holds.
void
record_notes(NoteJournal& journal, Campaign& campaign, std::size_t n)
{
    const auto hook = journal.record_fn(campaign.tick_fn());
    std::string seen;
    for (std::size_t i = 0; i < n; ++i)
        if (!journal.lookup(i, seen))
            hook(i, note(i));
}

/// A finished campaign of @p n notes: its final journal document.
std::string
run_notes(const SupervisorOptions& sup, std::size_t n)
{
    NoteJournal journal;
    Campaign campaign(sup, "notes", notes_fingerprint(), journal);
    record_notes(journal, campaign, n);
    campaign.flush();
    return journal.to_json().dump(-1);
}

std::string
newest_snapshot(const std::string& dir)
{
    return CheckpointStore(dir, "notes").load_latest()->payload;
}

/// The last publication that appended to a log.
std::uint64_t
last_append(const std::string& dir)
{
    const std::vector<KillPoint> pubs = publications(dir, "notes");
    for (std::size_t p = pubs.size(); p > 0; --p)
        if (pubs[p - 1].records > 0)
            return p;
    return 0;
}

// --- framing ------------------------------------------------------------------

std::string
sample_log(const std::vector<std::string>& records)
{
    io::LogHeader header;
    header.kind = "check";
    header.generation = 7;
    header.frame_checksum = 0x0123456789abcdefull;
    std::string log = io::encode_log_header(header);
    for (const auto& r : records)
        log += io::encode_record(r);
    return log;
}

const std::vector<std::string> kRecords{
    "units {\"key\":\"trial:0\"}", std::string("binary\0\n\xff tail", 14),
    "", "units {\"key\":\"trial:1\",\"failed\":false}"};

TEST(RecordLog, RoundTripsHeaderAndRecords)
{
    const std::string log = sample_log(kRecords);
    std::string reason;
    const auto back = io::decode_log(log, &reason);
    ASSERT_TRUE(back.has_value()) << reason;
    EXPECT_EQ(back->header.kind, "check");
    EXPECT_EQ(back->header.generation, 7u);
    EXPECT_EQ(back->header.frame_checksum, 0x0123456789abcdefull);
    EXPECT_EQ(back->records, kRecords);
    EXPECT_EQ(back->valid_bytes, log.size());
    EXPECT_TRUE(back->defect.empty());
    EXPECT_THROW(io::encode_log_header(io::LogHeader{}), std::runtime_error);
}

TEST(RecordLog, CutAtEveryOffsetKeepsTheWholeRecordsBeforeIt)
{
    const std::string log = sample_log(kRecords);
    std::vector<std::size_t> ends{sample_log({}).size()};
    for (const auto& r : kRecords)
        ends.push_back(ends.back() + io::encode_record(r).size());
    for (std::size_t cut = ends.front(); cut < log.size(); ++cut) {
        const auto back = io::decode_log(log.substr(0, cut));
        ASSERT_TRUE(back.has_value()) << cut;
        std::size_t whole = 0;
        while (whole + 1 < ends.size() && ends[whole + 1] <= cut)
            ++whole;
        EXPECT_EQ(back->records,
                  std::vector<std::string>(kRecords.begin(),
                                           kRecords.begin() + whole))
            << cut;
        EXPECT_EQ(back->valid_bytes, ends[whole]) << cut;
        if (cut == ends[whole])
            EXPECT_TRUE(back->defect.empty()) << cut;
        else
            EXPECT_NE(back->defect.find("truncated"), std::string::npos)
                << cut << ": " << back->defect;
    }
}

TEST(RecordLog, BitRotStopsReplayAtTheRottenRecord)
{
    std::string log = sample_log(kRecords);
    const std::size_t second = sample_log({kRecords[0]}).size();
    log[second + io::encode_record(kRecords[1]).size() - 3] ^= 0x10;
    const auto back = io::decode_log(log);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->records, std::vector<std::string>{kRecords[0]});
    EXPECT_EQ(back->valid_bytes, second);
    EXPECT_NE(back->defect.find("checksum mismatch"), std::string::npos)
        << back->defect;
}

TEST(RecordLog, HeaderDefectsAreNamed)
{
    const std::string good = sample_log({"x"});
    std::string reason;
    EXPECT_FALSE(io::decode_log("", &reason));
    EXPECT_NE(reason.find("truncated header"), std::string::npos) << reason;
    std::string magic = good;
    magic[0] = 'X';
    EXPECT_FALSE(io::decode_log(magic, &reason));
    EXPECT_NE(reason.find("bad magic"), std::string::npos) << reason;
    std::string skew = good;
    skew.replace(skew.find(' ') + 1, 1, "9");
    EXPECT_FALSE(io::decode_log(skew, &reason));
    EXPECT_NE(reason.find("version skew"), std::string::npos) << reason;
    std::string generation = good;
    generation.replace(generation.find(" 7 "), 3, " -7 ");
    EXPECT_FALSE(io::decode_log(generation, &reason));
    EXPECT_NE(reason.find("generation"), std::string::npos) << reason;
    // A frame is not a log.
    EXPECT_FALSE(io::decode_log(
        io::encode_frame(io::CheckpointFrame{1, "check", "{}"}), &reason));
    EXPECT_NE(reason.find("bad magic"), std::string::npos) << reason;
}

// --- the store ----------------------------------------------------------------

TEST(Store, LogsAreNamedAndPrunedWithTheirGeneration)
{
    TempDir dir("ckpt_log_prune");
    CheckpointStore store(dir.path(), "sweep", StoreOptions{2});
    EXPECT_EQ(store.log_path_for(42), dir.path() + "/sweep-00000042.lnlog");
    for (int g = 1; g <= 3; ++g) {
        const std::string payload = "gen " + std::to_string(g);
        const std::uint64_t gen = store.save(payload);
        store.open_log(gen, io::fnv1a64(payload))->append(
            io::encode_record("r" + std::to_string(g)));
    }
    EXPECT_EQ(store.generations(), (std::vector<std::uint64_t>{2, 3}));
    EXPECT_FALSE(fs::exists(store.log_path_for(1)));
    EXPECT_TRUE(fs::exists(store.log_path_for(2)));

    const auto newest = store.load_latest();
    ASSERT_TRUE(newest.has_value());
    const LogReplay log = store.load_log(*newest);
    EXPECT_EQ(log.records, std::vector<std::string>{"r3"});
    EXPECT_FALSE(log.rejected.has_value());
    // A snapshot with no log has nothing to replay, and nothing is wrong.
    fs::remove(store.log_path_for(3));
    EXPECT_TRUE(store.load_log(*newest).records.empty());
    EXPECT_FALSE(store.load_log(*newest).rejected.has_value());
}

// --- campaigns publishing through the log -------------------------------------

TEST(Campaign, PublicationsAppendToTheLogBetweenSnapshots)
{
    TempDir dir("ckpt_log_append");
    SupervisorOptions sup = every_publication(dir.path());
    sup.checkpoint_every = 4;
    NoteJournal journal;
    {
        Campaign campaign(sup, "notes", notes_fingerprint(), journal);
        record_notes(journal, campaign, 38);
        // Nine publications of four records each; two records pending.
        EXPECT_EQ(campaign.checkpoints(), 9u);
        const CheckpointStore store(dir.path(), "notes");
        const auto gens = store.generations();
        ASSERT_LT(gens.size(), 9u); // most publications appended
        const std::size_t logged =
            test::read_log(store, gens.back()).records.size();
        EXPECT_GT(logged, 0u);
        EXPECT_EQ(logged % 4, 0u);
        campaign.flush(); // the pending two go out in the final snapshot
        EXPECT_EQ(campaign.checkpoints(), 10u);
    }
    NoteJournal back;
    const Campaign resumed(sup, "notes", notes_fingerprint(), back);
    EXPECT_EQ(back.to_json().dump(-1), journal.to_json().dump(-1));
    EXPECT_EQ(resumed.resume().replayed, 0u);
    EXPECT_EQ(back.size(), 38u);
}

TEST(Campaign, PublicationCostStaysLinearOverManyRecords)
{
    // 10^5 completions at checkpoint_every 1. Every file the campaign
    // wrote stays on disk (no retention pruning), so their sizes add up to
    // the bytes it wrote. tmpfs keeps the 10^5 fdatasyncs cheap; their
    // cost is not what this test measures.
    constexpr std::size_t kNotes = 100000;
    const fs::path base = fs::is_directory("/dev/shm")
        ? fs::path("/dev/shm")
        : fs::temp_directory_path();
    TempDir dir("ckpt_log_linear", base);
    const SupervisorOptions sup = every_publication(dir.path());
    NoteJournal journal;
    {
        Campaign campaign(sup, "notes", notes_fingerprint(), journal);
        record_notes(journal, campaign, kNotes);
        campaign.flush();
        EXPECT_EQ(campaign.checkpoints(), kNotes + 1);
    }

    std::uintmax_t written = 0;
    for (const auto& entry : fs::directory_iterator(dir.path()))
        written += entry.file_size();
    const CheckpointStore store(dir.path(), "notes");
    const auto gens = store.generations();
    const std::uintmax_t final_bytes = fs::file_size(store.path_for(gens.back()));
    EXPECT_LE(written, 8 * final_bytes)
        << written << " bytes written, final snapshot " << final_bytes;
    EXPECT_LE(gens.size(),
              static_cast<std::size_t>(std::ceil(std::log2(kNotes))) + 2);

    NoteJournal back;
    const Campaign resumed(sup, "notes", notes_fingerprint(), back);
    EXPECT_EQ(back.size(), kNotes);
}

TEST(Campaign, KeyInSnapshotAndLogReplaysWithoutDroppingOrMixingWork)
{
    // A unit recorded into the journal just before another thread's
    // publication compacts is in that snapshot; its own tick then appends
    // the same entry to the fresh log.
    TempDir dir("ckpt_log_overlap");
    const SupervisorOptions sup = every_publication(dir.path());
    NoteJournal journal;
    {
        Campaign campaign(sup, "notes", notes_fingerprint(), journal);
        record_notes(journal, campaign, 1); // snapshot {0}
        journal.record(1, note(1));
        campaign.flush(); // snapshot {0, 1}
        campaign.tick(NoteJournal::encode_record(1, note(1)));
        record_notes(journal, campaign, 3); // log [1, 2]
    }
    const std::vector<KillPoint> pubs = publications(dir.path(), "notes");
    ASSERT_EQ(pubs.size(), 4u);
    EXPECT_EQ(pubs.back().records, 2u);

    NoteJournal back;
    const Campaign resumed(sup, "notes", notes_fingerprint(), back);
    EXPECT_EQ(resumed.resume().replayed, 2u);
    EXPECT_EQ(resumed.resume().completed, 3u);
    EXPECT_TRUE(resumed.resume().rejected.empty());
    EXPECT_EQ(back.to_json().dump(-1), journal.to_json().dump(-1));
}

TEST(Campaign, TornLastRecordAtEveryOffsetIsNamedAndResumed)
{
    TempDir full("ckpt_log_torn_full");
    const std::string want = run_notes(every_publication(full.path()), 12);
    const std::string final_snapshot = newest_snapshot(full.path());
    const std::uint64_t p = last_append(full.path());
    ASSERT_GT(p, 0u);

    TempDir killed("ckpt_log_torn");
    const KillPoint at = clone_killed_at(full.path(), killed.path(), "notes", p);
    const CheckpointStore probe(killed.path(), "notes");
    const std::string log = probe.log_path_for(at.generation);
    const std::size_t start =
        test::log_prefix_bytes(probe, at.generation, at.records - 1);
    const std::size_t end = fs::file_size(log);
    ASSERT_GT(end, start);
    for (std::size_t cut = start + 1; cut < end; ++cut) {
        clone_killed_at(full.path(), killed.path(), "notes", p);
        fs::resize_file(log, cut);
        std::vector<std::string> logged;
        SupervisorOptions sup = every_publication(killed.path());
        sup.log = [&logged](const std::string& m) { logged.push_back(m); };
        NoteJournal journal;
        Campaign campaign(sup, "notes", notes_fingerprint(), journal);
        ASSERT_EQ(campaign.resume().rejected.size(), 1u) << cut;
        const Rejected& r = campaign.resume().rejected[0];
        EXPECT_EQ(r.path, log);
        EXPECT_EQ(r.reason.rfind("truncated at byte " + std::to_string(start)
                                     + ": ",
                                 0),
                  0u)
            << r.reason;
        EXPECT_EQ(campaign.resume().replayed, at.records - 1) << cut;
        bool named = false;
        for (const auto& m : logged)
            named = named || m.find(log) != std::string::npos;
        EXPECT_TRUE(named) << cut;

        // Finishing the campaign republishes the uninterrupted result.
        record_notes(journal, campaign, 12);
        campaign.flush();
        EXPECT_EQ(journal.to_json().dump(-1), want) << cut;
        EXPECT_TRUE(newest_snapshot(killed.path()) == final_snapshot) << cut;
    }
}

TEST(Campaign, LogBoundToAnotherSnapshotIsRejectedByName)
{
    TempDir full("ckpt_log_bound_full");
    const std::string want = run_notes(every_publication(full.path()), 6);
    const std::uint64_t p = last_append(full.path());
    ASSERT_GT(p, 0u);

    const auto rebind = [](io::LogHeader& h, const std::string& field) {
        if (field == "kind")
            h.kind = "sweep";
        else if (field == "generation")
            h.generation += 7;
        else
            h.frame_checksum ^= 1;
    };
    for (const std::string field : {"kind", "generation", "checksum"}) {
        TempDir killed("ckpt_log_bound_" + field);
        const KillPoint at =
            clone_killed_at(full.path(), killed.path(), "notes", p);
        const CheckpointStore probe(killed.path(), "notes");
        const std::string log = probe.log_path_for(at.generation);
        io::DecodedLog decoded = test::read_log(probe, at.generation);
        rebind(decoded.header, field);
        std::string rewritten = io::encode_log_header(decoded.header);
        for (const auto& r : decoded.records)
            rewritten += io::encode_record(r);
        io::atomic_write_file(log, rewritten);

        NoteJournal journal;
        Campaign campaign(every_publication(killed.path()), "notes",
                          notes_fingerprint(), journal);
        ASSERT_EQ(campaign.resume().rejected.size(), 1u) << field;
        EXPECT_EQ(campaign.resume().rejected[0].path, log);
        EXPECT_NE(campaign.resume().rejected[0].reason.find(
                      "header mismatch: "
                      + std::string(field == "checksum" ? "snapshot checksum"
                                                        : field)),
                  std::string::npos)
            << campaign.resume().rejected[0].reason;
        EXPECT_EQ(campaign.resume().replayed, 0u);
        record_notes(journal, campaign, 6);
        campaign.flush();
        EXPECT_EQ(journal.to_json().dump(-1), want) << field;
    }
}

} // namespace
} // namespace lognic::ckpt
