/**
 * @file
 * Kill points for checkpoint tests: a scratch directory, the publications
 * a supervised campaign left in its checkpoint directory, and a clone of
 * that directory cut to the state a SIGKILL right after one of them
 * leaves behind.
 *
 * Campaigns under test checkpoint after every completion
 * (checkpoint_every = 1) and keep every generation (high retention), so
 * the directory records each publication: a generation whose record 0 is
 * a snapshot, then one record appended to that file per publication until
 * the next snapshot.
 */
#ifndef LOGNIC_TESTS_CKPT_KILL_POINTS_HPP_
#define LOGNIC_TESTS_CKPT_KILL_POINTS_HPP_

#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <vector>

#include "lognic/ckpt/store.hpp"
#include "lognic/io/checkpoint.hpp"

namespace lognic::test {

/// A fresh directory `lognic_<tag>_<pid>` under @p base (the system
/// temporary directory by default), removed on destruction.
class TempDir {
  public:
    explicit TempDir(const std::string& tag,
                     const std::filesystem::path& base =
                         std::filesystem::temp_directory_path())
        : path_((base / ("lognic_" + tag + "_" + std::to_string(::getpid())))
                    .string())
    {
        std::filesystem::remove_all(path_);
        std::filesystem::create_directories(path_);
    }
    ~TempDir() { std::filesystem::remove_all(path_); }
    TempDir(const TempDir&) = delete;
    TempDir& operator=(const TempDir&) = delete;
    const std::string& path() const { return path_; }

  private:
    std::string path_;
};

/// The on-disk state right after one publication: the newest generation,
/// and how many records its file held after the snapshot.
struct KillPoint {
    std::uint64_t generation{0};
    std::size_t records{0};
};

/// The decoded file of @p generation: record 0 is its snapshot.
inline io::DecodedLog
read_generation(const ckpt::CheckpointStore& store, std::uint64_t generation)
{
    const std::string path = store.path_for(generation);
    const auto data = io::read_file_if_exists(path);
    if (!data)
        throw std::runtime_error("missing generation " + path);
    std::string reason;
    auto log = io::decode_log(*data, &reason);
    if (!log || log->records.empty())
        throw std::runtime_error("unreadable generation " + path + ": "
                                 + reason);
    return *log;
}

/// Bytes of @p generation's file up to the end of the first @p records
/// records after its snapshot.
inline std::size_t
log_prefix_bytes(const ckpt::CheckpointStore& store, std::uint64_t generation,
                 std::size_t records)
{
    const io::DecodedLog log = read_generation(store, generation);
    std::size_t bytes = io::encode_log_header(log.header).size();
    for (std::size_t i = 0; i <= records; ++i)
        bytes += io::encode_record(log.records.at(i)).size();
    return bytes;
}

/// Every publication recorded in @p dir, in order.
inline std::vector<KillPoint>
publications(const std::string& dir, const std::string& kind)
{
    const ckpt::CheckpointStore store(dir, kind, ckpt::StoreOptions{1000});
    std::vector<KillPoint> out;
    for (std::uint64_t g : store.generations()) {
        const std::size_t n = read_generation(store, g).records.size() - 1;
        for (std::size_t r = 0; r <= n; ++r)
            out.push_back({g, r});
    }
    return out;
}

/**
 * Clone @p src into @p dst as a kill right after publication @p p
 * (1-based) leaves it: generations newer than the one @p p landed in are
 * deleted, and that generation's file is truncated to its snapshot and
 * the first KillPoint::records records after it. Returns the kill point.
 */
inline KillPoint
clone_killed_at(const std::string& src, const std::string& dst,
                const std::string& kind, std::uint64_t p)
{
    namespace fs = std::filesystem;
    const KillPoint at = publications(src, kind).at(p - 1);
    fs::remove_all(dst);
    fs::create_directories(dst);
    for (const auto& entry : fs::directory_iterator(src))
        fs::copy(entry.path(), dst / entry.path().filename());
    const ckpt::CheckpointStore store(dst, kind, ckpt::StoreOptions{1000});
    for (std::uint64_t g : store.generations())
        if (g > at.generation)
            fs::remove(store.path_for(g));
    fs::resize_file(store.path_for(at.generation),
                    log_prefix_bytes(store, at.generation, at.records));
    return at;
}

} // namespace lognic::test

#endif // LOGNIC_TESTS_CKPT_KILL_POINTS_HPP_
