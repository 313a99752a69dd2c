/**
 * @file
 * Completed-work journals (lognic::ckpt): the payloads a checkpoint
 * generation carries for sweep/replication campaigns, `lognic check`
 * runs, calibration fits, and (see dse/supervise.hpp) explorations.
 *
 * A journal is a keyed map of finished units of work — task index →
 * runner::CompletedTask, "trial:<i>"/"corpus:<name>" → check::TrialOutcome,
 * start index → calib::StartRecord — that round-trips through JSON
 * *bit-exactly*: every double travels as the hex of its IEEE-754 bit
 * pattern and every u64 as a hex string (see io/checkpoint.hpp for why the
 * plain JSON number path cannot carry them). That bit-exactness is what
 * lets a resumed run replay journaled outcomes verbatim and still produce
 * a report byte-identical to an uninterrupted run.
 *
 * Every journal is one class template, Journal<Codec>. A codec names only
 * what differs between workloads: the key and value types, the JSON array
 * and key field, and the value's JSON encode/decode functions below.
 *
 * Journals are internally locked: the lookup_fn()/record_fn() adapters
 * plug straight into the runner/check/calib/dse hook seams, whose hooks
 * fire from worker threads. record_fn() takes an optional `after` callback
 * that receives the entry just recorded as one log record
 * ("<Codec::kArray> <entry JSON>"), encoded on the completing thread
 * outside the journal lock (the supervisor appends it to the checkpoint
 * log there; calling to_json() from inside the lock would deadlock).
 * replay() applies such a record, so snapshot + log reload the journal.
 */
#ifndef LOGNIC_CKPT_JOURNAL_HPP_
#define LOGNIC_CKPT_JOURNAL_HPP_

#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <stdexcept>
#include <string>
#include <type_traits>

#include "lognic/calib/calibrator.hpp"
#include "lognic/check/harness.hpp"
#include "lognic/io/checkpoint.hpp"
#include "lognic/io/json.hpp"
#include "lognic/runner/replicator.hpp"
#include "lognic/sim/nic_simulator.hpp"

namespace lognic::ckpt {

// --- bit-exact serialization of result types ----------------------------------

/// MetricsSnapshot with hex-encoded values (counters, gauges, histogram
/// bounds/counts/sum). Key order is the map's — deterministic.
io::Json metrics_to_json(const obs::MetricsSnapshot& m);
/// @throws std::runtime_error naming the offending field on bad input.
obs::MetricsSnapshot metrics_from_json(const io::Json& j);

/// Full-fidelity SimResult: every scalar, the per-vertex stats, and the
/// structured metrics snapshot, all bit-exact through a dump/parse cycle.
io::Json sim_result_to_json(const sim::SimResult& r);
sim::SimResult sim_result_from_json(const io::Json& j);

io::Json completed_task_to_json(const runner::CompletedTask& t);
runner::CompletedTask completed_task_from_json(const io::Json& j);

io::Json trial_outcome_to_json(const check::TrialOutcome& t);
check::TrialOutcome trial_outcome_from_json(const io::Json& j);

io::Json start_record_to_json(const calib::StartRecord& r);
calib::StartRecord start_record_from_json(const io::Json& j);

// --- journals -----------------------------------------------------------------

/**
 * A thread-safe journal of completed units, serialized in key order as
 * {"<Codec::kArray>": [{"<Codec::kKey>": key, ...value fields...}, ...]}.
 * Integral keys travel as hex u64 strings, string keys verbatim.
 */
template <class Codec>
class Journal {
public:
    using Key = typename Codec::Key;
    using Value = typename Codec::Value;
    /// Integral keys by value, string keys by reference: exactly the
    /// signatures of the runner/check/calib/dse lookup and hook seams.
    using KeyArg =
        std::conditional_t<std::is_integral_v<Key>, Key, const Key&>;
    using Lookup = std::function<bool(KeyArg, Value&)>;
    using Hook = std::function<void(KeyArg, const Value&)>;
    /// Receives each recorded entry as a log record.
    using After = std::function<void(std::string record)>;

    io::Json to_json() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        io::Json entries(io::JsonArray{});
        for (const auto& [key, done] : entries_)
            entries.push_back(entry_json(key, done));
        io::Json j;
        j.set(Codec::kArray, std::move(entries));
        return j;
    }

    /// Replace the contents from a journal document.
    /// @throws std::runtime_error on malformed input, or on a duplicate
    /// key (it would silently drop work).
    void load_json(const io::Json& j)
    {
        std::map<Key, Value> loaded;
        for (const auto& e : j.at(Codec::kArray).as_array()) {
            Key key = key_from_json(e);
            if (!loaded.emplace(key, Codec::from_json(e)).second)
                throw std::runtime_error(
                    std::string(Codec::kArray) + " journal: duplicate "
                    + Codec::kKey + " " + key_to_json(key).dump(-1));
        }
        std::lock_guard<std::mutex> lock(mutex_);
        entries_ = std::move(loaded);
    }

    std::size_t size() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return entries_.size();
    }

    void record(KeyArg key, Value done)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        entries_.insert_or_assign(key, std::move(done));
    }

    /// One entry as a log record: "<Codec::kArray> <entry JSON>".
    static std::string encode_record(KeyArg key, const Value& done)
    {
        return std::string(Codec::kArray) + ' '
            + entry_json(key, done).dump(-1);
    }

    /// Apply a record from encode_record(), replacing any entry under its
    /// key (a later record supersedes the snapshot and earlier records).
    /// Returns false, applying nothing, when the record belongs to another
    /// journal's array. @throws std::runtime_error on a malformed entry.
    bool replay(const std::string& record)
    {
        const std::size_t tag = std::char_traits<char>::length(Codec::kArray);
        if (record.size() <= tag || record[tag] != ' '
            || record.compare(0, tag, Codec::kArray) != 0)
            return false;
        const io::Json e = io::Json::parse(record.substr(tag + 1));
        Key key = key_from_json(e);
        Value done = Codec::from_json(e);
        std::lock_guard<std::mutex> lock(mutex_);
        entries_.insert_or_assign(std::move(key), std::move(done));
        return true;
    }

    bool lookup(KeyArg key, Value& out) const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        const auto it = entries_.find(key);
        if (it == entries_.end())
            return false;
        out = it->second;
        return true;
    }

    /// Drop the entries whose value satisfies @p pred (a sweep retry
    /// round drops its failures to re-run them); returns how many.
    template <class Pred>
    std::size_t erase_if(Pred pred)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return std::erase_if(entries_, [&pred](const auto& entry) {
            return pred(entry.second);
        });
    }

    /// Adapter for the resume-lookup seam. The journal must outlive the
    /// returned function.
    Lookup lookup_fn() const
    {
        return [this](KeyArg key, Value& out) { return lookup(key, out); };
    }

    /// Adapter for the completion hook; @p after (may be empty) receives
    /// each recorded entry's log record, outside the journal lock.
    Hook record_fn(After after = {})
    {
        return [this, after = std::move(after)](KeyArg key,
                                                const Value& done) {
            record(key, done);
            if (after)
                after(encode_record(key, done));
        };
    }

private:
    static io::Json entry_json(KeyArg key, const Value& done)
    {
        io::Json e = Codec::to_json(done);
        e.set(Codec::kKey, key_to_json(key));
        return e;
    }

    static io::Json key_to_json(KeyArg key)
    {
        if constexpr (std::is_integral_v<Key>)
            return io::u64_to_hex(static_cast<std::uint64_t>(key));
        else
            return key;
    }

    static Key key_from_json(const io::Json& e)
    {
        const std::string& text = e.at(Codec::kKey).as_string();
        if constexpr (std::is_integral_v<Key>)
            return static_cast<Key>(io::parse_u64(
                text, std::string("journal field ") + Codec::kKey));
        else
            return text;
    }

    mutable std::mutex mutex_;
    std::map<Key, Value> entries_;
};

/// Sweep/replication tasks, keyed by task index
/// (point * replications + replication).
struct TaskCodec {
    using Key = std::size_t;
    using Value = runner::CompletedTask;
    static constexpr const char* kArray = "tasks";
    static constexpr const char* kKey = "task";
    static constexpr auto to_json = completed_task_to_json;
    static constexpr auto from_json = completed_task_from_json;
};
using TaskJournal = Journal<TaskCodec>;

/// `lognic check` units, keyed "trial:<index>" / "corpus:<name>".
struct CheckCodec {
    using Key = std::string;
    using Value = check::TrialOutcome;
    static constexpr const char* kArray = "units";
    static constexpr const char* kKey = "key";
    static constexpr auto to_json = trial_outcome_to_json;
    static constexpr auto from_json = trial_outcome_from_json;
};
using CheckJournal = Journal<CheckCodec>;

/// Calibration starts, keyed by start index. Only top-level starts
/// journal — fold fits run with cleared hooks.
struct FitCodec {
    using Key = std::size_t;
    using Value = calib::StartRecord;
    static constexpr const char* kArray = "starts";
    static constexpr const char* kKey = "start";
    static constexpr auto to_json = start_record_to_json;
    static constexpr auto from_json = start_record_from_json;
};
using FitJournal = Journal<FitCodec>;

} // namespace lognic::ckpt

#endif // LOGNIC_CKPT_JOURNAL_HPP_
