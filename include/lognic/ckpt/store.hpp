/**
 * @file
 * Generation-numbered checkpoint store (lognic::ckpt).
 *
 * A store owns one directory and one frame kind. Each save() publishes a
 * new generation file `<kind>-<00000042>.lnck` via the io atomic-rename
 * protocol and prunes the oldest generations beyond the retention bound.
 * load_latest() scans generations newest-first and returns the first one
 * that decodes cleanly — a torn, corrupt, or version-skewed newest file is
 * *recorded* (path + reason) and skipped in favor of an older valid
 * generation, never silently loaded. That is the whole point of keeping
 * more than one generation: the failure mode of "crashed mid-publication"
 * or "disk ate a byte" costs one checkpoint interval, not the run.
 *
 * Next to a generation may sit its record log, `<kind>-<00000042>.lnlog`:
 * records appended after that snapshot was published (see io/checkpoint
 * for the framing). A log is named with its generation and pruned with
 * it. load_log() returns the valid prefix of a snapshot's log and names
 * the first bad record, or the whole log when its header is bound to
 * another snapshot.
 */
#ifndef LOGNIC_CKPT_STORE_HPP_
#define LOGNIC_CKPT_STORE_HPP_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "lognic/io/checkpoint.hpp"

namespace lognic::ckpt {

struct StoreOptions {
    /// Generations kept on disk; older ones are pruned after each save.
    /// At least 1.
    std::size_t retention{3};
};

/// A generation file that could not be used, and why.
struct Rejected {
    std::string path;
    std::string reason;
};

struct Loaded {
    std::uint64_t generation{0};
    std::string payload;
};

/// What a snapshot's record log adds to it.
struct LogReplay {
    /// Payloads of the valid records, in append order.
    std::vector<std::string> records;
    /// Set when the log could not be used in full: the first bad record
    /// ("truncated at byte N: <why>") or, with no records, a header that
    /// is unreadable or bound to another snapshot.
    std::optional<Rejected> rejected;
};

class CheckpointStore {
public:
    /// Creates @p dir (and parents) when missing.
    /// @throws std::runtime_error on invalid kind/options or mkdir failure.
    CheckpointStore(std::string dir, std::string kind, StoreOptions options = {});

    const std::string& dir() const { return dir_; }
    const std::string& kind() const { return kind_; }

    /// Publish @p payload as the next generation; returns its number.
    std::uint64_t save(const std::string& payload);

    /**
     * Newest valid generation, or nullopt when none exists. Generations
     * that fail to decode (torn payload, checksum mismatch, version skew,
     * wrong kind) are appended to @p rejected when non-null and skipped.
     * "*.tmp" leftovers from a crashed writer are ignored entirely.
     */
    std::optional<Loaded> load_latest(std::vector<Rejected>* rejected = nullptr) const;

    /// Generation numbers present on disk, ascending (valid or not).
    std::vector<std::uint64_t> generations() const;

    std::string path_for(std::uint64_t generation) const;
    std::string log_path_for(std::uint64_t generation) const;

    /// The valid prefix of @p snapshot's record log; no records when it
    /// has none (nothing was appended after the snapshot).
    LogReplay load_log(const Loaded& snapshot) const;

    /// Start the record log of @p generation, whose snapshot payload
    /// hashes to @p frame_checksum, replacing any stale file by that name.
    std::unique_ptr<io::AppendFile>
    open_log(std::uint64_t generation, std::uint64_t frame_checksum) const;

private:
    std::string dir_;
    std::string kind_;
    StoreOptions options_;
    std::uint64_t next_generation_{1};
};

} // namespace lognic::ckpt

#endif // LOGNIC_CKPT_STORE_HPP_
