/**
 * @file
 * Generation-numbered checkpoint store (lognic::ckpt).
 *
 * A store owns one directory and one kind. Each generation is one
 * append-only file, `<kind>-<00000042>.lnck` (see io/checkpoint for the
 * framing): a header line, then records. Record 0 is the snapshot: save()
 * publishes it as the next generation via the io atomic-rename protocol
 * and prunes the oldest generations beyond the retention bound. The
 * records after it are the generation's log, appended through open_log().
 *
 * load_latest() scans generations newest-first and returns the first one
 * whose header and snapshot decode cleanly, with its log — a torn,
 * corrupt, or version-skewed newest file is *recorded* (path + reason) and
 * skipped in favor of an older valid generation, never silently loaded.
 * That is the whole point of keeping more than one generation: the
 * failure mode of "crashed mid-publication" or "disk ate a byte" costs
 * one checkpoint interval, not the run. A cut or rotten record after the
 * snapshot ends the log there and is named by byte offset.
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

/// A usable generation: its snapshot and its log.
struct Loaded {
    std::uint64_t generation{0};
    /// Record 0: the snapshot.
    std::string payload;
    /// The whole records after it, in append order.
    std::vector<std::string> records;
    /// Set when the file does not end on a record boundary: the first bad
    /// record ("truncated at byte N: <why>"), where the log ends.
    std::optional<Rejected> tail;
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
     * whose header or snapshot fails to decode (torn snapshot, checksum
     * mismatch, version skew, wrong kind) are appended to @p rejected when
     * non-null and skipped. "*.tmp" leftovers from a crashed writer are
     * ignored entirely.
     */
    std::optional<Loaded> load_latest(std::vector<Rejected>* rejected = nullptr) const;

    /// Generation numbers present on disk, ascending (valid or not).
    std::vector<std::uint64_t> generations() const;

    std::string path_for(std::uint64_t generation) const;

    /// Open @p generation's file to append records after its snapshot.
    std::unique_ptr<io::AppendFile> open_log(std::uint64_t generation) const;

private:
    std::string dir_;
    std::string kind_;
    StoreOptions options_;
    std::uint64_t next_generation_{1};
};

} // namespace lognic::ckpt

#endif // LOGNIC_CKPT_STORE_HPP_
