/**
 * @file
 * Checkpoint file format and crash-safe file publication (lognic::io).
 *
 * A checkpoint file is a header line, then checksummed records:
 *
 *     LOGNICCKPT <version> <kind>\n
 *     <payload-bytes> <fnv1a64-hex>\n<payload bytes>      (per record)
 *
 * The header is a single ASCII line; a record's payload is an opaque byte
 * string (in practice a JSON document). The checksum is FNV-1a 64 over the
 * payload only, rendered as 16 lowercase hex digits. decode_log() rejects
 * — with a reason, never silently — a file whose header magic, version or
 * kind is unusable (a file from another format version is "version skew");
 * past the header it returns the valid prefix of the records and names the
 * first bad one by byte offset and reason. A crash mid-append leaves a
 * torn last record, bit rot a record whose checksum fails; the reader
 * never skips past either, because records after a gap cannot be trusted
 * to be in order.
 *
 * atomic_write_file() is the publication protocol: write a temporary in
 * the same directory, fsync it, rename over the target, fsync the
 * directory. A reader concurrently scanning the directory observes either
 * the old file, the new file, or (for a fresh path) no file — never a
 * partial one. Leftover "*.tmp" files from a crashed writer are garbage by
 * construction and are ignored by checkpoint scans. Records appended later
 * go through AppendFile, which makes every append durable with fdatasync.
 *
 * The hex helpers exist because checkpoints must round-trip *bit-exactly*:
 * the JSON writer emits null for non-finite doubles (a calibration start
 * that failed has final_loss = inf) and %.17g for the rest, so doubles
 * inside checkpoint payloads are stored as the hex of their IEEE-754 bit
 * pattern and u64 values (seeds, counters) as hex strings, immune to the
 * double-precision limit of JSON numbers.
 */
#ifndef LOGNIC_IO_CHECKPOINT_HPP_
#define LOGNIC_IO_CHECKPOINT_HPP_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace lognic::io {

/// Bumped on any incompatible change to file or payload layout. Readers
/// reject other versions (version skew) rather than guessing.
inline constexpr std::uint32_t kCheckpointVersion = 2;

/// FNV-1a 64-bit over @p data. Not cryptographic; detects torn writes and
/// bit rot, which is the threat model for a local checkpoint directory.
std::uint64_t fnv1a64(std::string_view data);

/// What a checkpoint file's header line declares.
struct LogHeader {
    std::uint32_t version{kCheckpointVersion};
    /// Workload tag ("sweep", "check", "calib", "sim", "explore"). A store
    /// only loads files whose kind matches, so checkpoints from different
    /// workloads sharing a directory cannot be confused.
    std::string kind;
};

/// The header line. @p header.kind must be non-empty and contain no
/// whitespace (it is a token in the line); throws otherwise.
std::string encode_log_header(const LogHeader& header);

/// One record, ready to append: size and checksum line, then @p payload.
std::string encode_record(std::string_view payload);

/// The readable part of a checkpoint file.
struct DecodedLog {
    LogHeader header;
    /// Payloads of the valid records, in append order.
    std::vector<std::string> records;
    /// Bytes of header and valid records: where the first bad record, if
    /// any, begins.
    std::size_t valid_bytes{0};
    /// Why the bytes from valid_bytes on are not a record ("truncated
    /// record: ...", "checksum mismatch: ..."); empty when the file ends
    /// on a record boundary.
    std::string defect;
};

/**
 * Parse a checkpoint file. Returns nullopt when the header line itself is
 * unusable and, when @p reason is non-null, stores why ("truncated
 * header: ...", "bad magic", "version skew: ...", "malformed header:
 * ..."); otherwise the valid prefix, with the first defect after it named
 * in DecodedLog::defect.
 */
std::optional<DecodedLog> decode_log(const std::string& data,
                                     std::string* reason = nullptr);

/**
 * Crash-safe replacement of @p path with @p contents: write "<path>.tmp",
 * fsync, rename over @p path, fsync the containing directory.
 * @throws std::runtime_error naming the path on any I/O failure.
 */
void atomic_write_file(const std::string& path, const std::string& contents);

/**
 * An existing file opened for appending, every append durable. Opening
 * creates nothing and writes nothing: the file was published, and its
 * directory entry made durable, by atomic_write_file().
 * @throws std::runtime_error naming the path on any I/O failure, here and
 * in append().
 */
class AppendFile {
public:
    explicit AppendFile(std::string path);
    ~AppendFile();
    AppendFile(const AppendFile&) = delete;
    AppendFile& operator=(const AppendFile&) = delete;

    /// Write @p bytes at the end of the file, then fdatasync.
    void append(std::string_view bytes);

private:
    std::string path_;
    int fd_{-1};
};

/**
 * Whole-file read; nullopt when the file cannot be opened (missing or
 * unreadable — for checkpoint scans both mean "not a usable generation").
 * @throws std::runtime_error naming the path when a read fails mid-file.
 */
std::optional<std::string> read_file_if_exists(const std::string& path);

/// "0x" + 16 lowercase hex digits of the IEEE-754 bit pattern. Round-trips
/// every double bit-exactly, including ±inf, NaN payloads, and -0.0.
std::string double_to_hex(double value);

/// Inverse of double_to_hex(). @throws std::runtime_error naming
/// @p context on malformed input.
double double_from_hex(const std::string& text, const std::string& context);

/// "0x" + 16 lowercase hex digits.
std::string u64_to_hex(std::uint64_t value);

/**
 * Strict full-consumption unsigned parse: base 10, or 16 with a 0x/0X
 * prefix, optional surrounding ASCII whitespace, nothing else. @throws
 * std::runtime_error naming @p context (a JSON field or parameter path)
 * on empty input, trailing garbage, or overflow — so a malformed "seed"
 * in a spec reads as an error about that field, not a bare
 * std::invalid_argument from the bowels of the parser.
 */
std::uint64_t parse_u64(const std::string& text, const std::string& context);

} // namespace lognic::io

#endif // LOGNIC_IO_CHECKPOINT_HPP_
