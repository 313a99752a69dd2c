/**
 * @file
 * Checkpoint frame format and crash-safe file replacement (lognic::io).
 *
 * A checkpoint file is one frame:
 *
 *     LOGNICCKPT <version> <kind> <payload-bytes> <fnv1a64-hex>\n
 *     <payload bytes>
 *
 * The header is a single ASCII line; the payload is an opaque byte string
 * (in practice a JSON document). The checksum is FNV-1a 64 over the payload
 * only, rendered as 16 lowercase hex digits. Decoding rejects — with a
 * reason, never silently — any frame whose magic, version, kind, size, or
 * checksum does not match: a torn write (short payload), a flipped bit, and
 * a file from a future format version all surface as a named defect the
 * caller can report and skip in favor of an older generation.
 *
 * atomic_write_file() is the publication protocol: write a temporary in
 * the same directory, fsync it, rename over the target, fsync the
 * directory. A reader concurrently scanning the directory observes either
 * the old file, the new file, or (for a fresh path) no file — never a
 * partial one. Leftover "*.tmp" files from a crashed writer are garbage by
 * construction and are ignored by checkpoint scans.
 *
 * A record log is the append-only companion of one frame: a header line
 * binding it to that frame, then checksummed records,
 *
 *     LOGNICLOG <version> <kind> <generation> <frame-fnv1a64-hex>\n
 *     <payload-bytes> <fnv1a64-hex>\n<payload bytes>      (per record)
 *
 * appended through AppendFile, which makes every append durable with
 * fdatasync. A crash mid-append leaves a torn last record; bit rot leaves
 * a record whose checksum fails. decode_log() returns the valid prefix and
 * names the first bad record by byte offset and reason — it never skips
 * past one, because records after a gap cannot be trusted to be in order.
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

/// Bumped on any incompatible change to frame or payload layout. Readers
/// reject other versions (version skew) rather than guessing.
inline constexpr std::uint32_t kCheckpointVersion = 1;

/// FNV-1a 64-bit over @p data. Not cryptographic; detects torn writes and
/// bit rot, which is the threat model for a local checkpoint directory.
std::uint64_t fnv1a64(std::string_view data);

struct CheckpointFrame {
    std::uint32_t version{kCheckpointVersion};
    /// Workload tag ("sweep", "check", "calib", "sim"). A store only loads
    /// frames whose kind matches, so checkpoints from different workloads
    /// sharing a directory cannot be confused.
    std::string kind;
    std::string payload;
};

/**
 * Serialize header + payload. @p frame.kind must be non-empty and contain
 * no whitespace (it is a token in the header line); throws otherwise.
 */
std::string encode_frame(const CheckpointFrame& frame);

/**
 * Parse and verify one frame. Returns nullopt on any defect and, when
 * @p reason is non-null, stores why ("bad magic", "version skew: ...",
 * "truncated payload: ...", "checksum mismatch: ...").
 */
std::optional<CheckpointFrame> decode_frame(const std::string& data,
                                            std::string* reason = nullptr);

/// What a record log is bound to: the frame of kind @p kind published as
/// generation @p generation, whose payload hashes to @p frame_checksum.
struct LogHeader {
    std::uint32_t version{kCheckpointVersion};
    std::string kind;
    std::uint64_t generation{0};
    std::uint64_t frame_checksum{0};
};

/// The header line. @p header.kind follows encode_frame()'s rules.
std::string encode_log_header(const LogHeader& header);

/// One record, ready to append: size and checksum line, then @p payload.
std::string encode_record(std::string_view payload);

/// The readable part of a record log.
struct DecodedLog {
    LogHeader header;
    /// Payloads of the valid records, in append order.
    std::vector<std::string> records;
    /// Bytes of header and valid records: where the first bad record, if
    /// any, begins.
    std::size_t valid_bytes{0};
    /// Why the bytes from valid_bytes on are not a record ("truncated
    /// record: ...", "checksum mismatch: ..."); empty when the log ends on
    /// a record boundary.
    std::string defect;
};

/**
 * Parse a record log. Returns nullopt when the header line itself is
 * unusable (reason stored like decode_frame()'s); otherwise the valid
 * prefix, with the first defect after it named in DecodedLog::defect.
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
 * An append-only file whose every append is durable. Construction creates
 * (or truncates) @p path, writes @p header, fdatasyncs it, and fsyncs the
 * containing directory so the file itself survives a crash.
 * @throws std::runtime_error naming the path on any I/O failure, here and
 * in append().
 */
class AppendFile {
public:
    AppendFile(std::string path, const std::string& header);
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
