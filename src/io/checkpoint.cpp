#include "lognic/io/checkpoint.hpp"

#include <algorithm>
#include <bit>
#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <stdexcept>

#include <fcntl.h>
#include <unistd.h>

namespace lognic::io {
namespace {

std::string hex16(std::uint64_t value) {
    char buf[19];
    std::snprintf(buf, sizeof(buf), "0x%016llx",
                  static_cast<unsigned long long>(value));
    return buf;
}

[[noreturn]] void throw_errno(const std::string& what, const std::string& path) {
    throw std::runtime_error(what + " '" + path + "': " + std::strerror(errno));
}

/// Directory part of @p path ("." when there is none) for the
/// post-rename directory fsync.
std::string dir_of(const std::string& path) {
    const std::size_t slash = path.find_last_of('/');
    if (slash == std::string::npos) return ".";
    if (slash == 0) return "/";
    return path.substr(0, slash);
}

/// Persist the directory entry of @p path: without it a crash can roll a
/// new name back even though the data blocks are safe.
void fsync_dir_of(const std::string& path) {
    const int dfd = ::open(dir_of(path).c_str(), O_RDONLY | O_DIRECTORY);
    if (dfd >= 0) {
        ::fsync(dfd); // best-effort: some filesystems reject directory fsync
        ::close(dfd);
    }
}

/// Write all of @p bytes, retrying on EINTR; false (errno set) on failure.
bool write_all(int fd, std::string_view bytes) {
    std::size_t written = 0;
    while (written < bytes.size()) {
        const ssize_t n =
            ::write(fd, bytes.data() + written, bytes.size() - written);
        if (n < 0) {
            if (errno == EINTR) continue;
            return false;
        }
        written += static_cast<std::size_t>(n);
    }
    return true;
}

/// @p line split at every space. Empty fields are kept, so a doubled or
/// trailing space shows up as a wrong field count.
std::vector<std::string> split_fields(std::string_view line) {
    std::vector<std::string> out;
    std::size_t pos = 0;
    for (;;) {
        const std::size_t sp = line.find(' ', pos);
        out.emplace_back(line.substr(pos, sp - pos));
        if (sp == std::string_view::npos) return out;
        pos = sp + 1;
    }
}

/// A kind is a token in a header line: non-empty, no whitespace.
void require_kind_token(const std::string& kind) {
    if (kind.empty())
        throw std::runtime_error("checkpoint kind must be non-empty");
    for (const char c : kind)
        if (std::isspace(static_cast<unsigned char>(c)))
            throw std::runtime_error("checkpoint kind '" + kind +
                                     "' must not contain whitespace");
}

/// Longest record size/checksum line: a 20-digit size, a space, a
/// 0x-prefixed checksum, a newline.
constexpr std::size_t kMaxRecordHeader = 64;

} // namespace

std::uint64_t fnv1a64(std::string_view data) {
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const char c : data) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ull;
    }
    return h;
}

void atomic_write_file(const std::string& path, const std::string& contents) {
    const std::string tmp = path + ".tmp";
    const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd < 0) throw_errno("cannot create", tmp);

    if (!write_all(fd, contents)) {
        const int err = errno;
        ::close(fd);
        ::unlink(tmp.c_str());
        errno = err;
        throw_errno("cannot write", tmp);
    }
    if (::fsync(fd) != 0) {
        ::close(fd);
        ::unlink(tmp.c_str());
        throw_errno("cannot fsync", tmp);
    }
    if (::close(fd) != 0) {
        ::unlink(tmp.c_str());
        throw_errno("cannot close", tmp);
    }
    if (::rename(tmp.c_str(), path.c_str()) != 0) {
        ::unlink(tmp.c_str());
        throw_errno("cannot rename into place", path);
    }
    fsync_dir_of(path); // persist the rename itself
}

std::string encode_log_header(const LogHeader& header) {
    require_kind_token(header.kind);
    return "LOGNICCKPT " + std::to_string(header.version) + ' ' + header.kind +
           '\n';
}

std::string encode_record(std::string_view payload) {
    std::string out = std::to_string(payload.size());
    out += ' ';
    out += hex16(fnv1a64(payload));
    out += '\n';
    out += payload;
    return out;
}

std::optional<DecodedLog> decode_log(const std::string& data,
                                     std::string* reason) {
    const auto fail = [reason](std::string why) -> std::optional<DecodedLog> {
        if (reason != nullptr) *reason = std::move(why);
        return std::nullopt;
    };

    const std::size_t nl = data.find('\n');
    if (nl == std::string::npos) return fail("truncated header: no newline");
    // The header line: magic, version, kind. The version is read before
    // the field count, so a file of another version is refused by name.
    const std::vector<std::string> tokens =
        split_fields(std::string_view(data).substr(0, nl));
    if (tokens[0] != "LOGNICCKPT") return fail("bad magic");
    if (tokens.size() < 2) return fail("malformed header: expected 3 fields");
    std::uint64_t version = 0;
    try {
        version = parse_u64(tokens[1], "checkpoint header version");
    } catch (const std::exception& e) {
        return fail(std::string("malformed header: ") + e.what());
    }
    if (version != kCheckpointVersion)
        return fail("version skew: file version " + tokens[1] +
                    ", reader supports " + std::to_string(kCheckpointVersion));
    if (tokens.size() != 3) return fail("malformed header: expected 3 fields");
    DecodedLog log;
    log.header.version = static_cast<std::uint32_t>(version);
    log.header.kind = tokens[2];
    if (log.header.kind.empty()) return fail("malformed header: empty kind");

    std::size_t pos = nl + 1;
    log.valid_bytes = pos;
    while (pos < data.size()) {
        const std::size_t rest = data.size() - pos;
        const std::size_t window = std::min(rest, kMaxRecordHeader);
        const std::size_t rnl = data.find('\n', pos);
        if (rnl == std::string::npos || rnl - pos >= window) {
            log.defect = rest < kMaxRecordHeader
                ? "truncated record: header has no newline"
                : "malformed record: header has no newline";
            break;
        }
        const std::vector<std::string> fields =
            split_fields(std::string_view(data).substr(pos, rnl - pos));
        if (fields.size() != 2) {
            log.defect = "malformed record: expected 2 header fields";
            break;
        }
        std::uint64_t size = 0;
        std::uint64_t sum = 0;
        try {
            size = parse_u64(fields[0], "record size");
            sum = parse_u64(fields[1], "record checksum");
        } catch (const std::exception& e) {
            log.defect = std::string("malformed record: ") + e.what();
            break;
        }
        const std::size_t have = data.size() - (rnl + 1);
        if (size > have) {
            log.defect = "truncated record: header declares " + fields[0] +
                         " bytes, " + std::to_string(have) + " remain";
            break;
        }
        std::string payload = data.substr(rnl + 1, size);
        const std::uint64_t actual = fnv1a64(payload);
        if (actual != sum) {
            log.defect = "checksum mismatch: record declares " + fields[1] +
                         ", payload hashes to " + hex16(actual);
            break;
        }
        log.records.push_back(std::move(payload));
        pos = rnl + 1 + size;
        log.valid_bytes = pos;
    }
    return log;
}

AppendFile::AppendFile(std::string path) : path_(std::move(path)) {
    fd_ = ::open(path_.c_str(), O_WRONLY | O_APPEND);
    if (fd_ < 0) throw_errno("cannot open for appending", path_);
}

AppendFile::~AppendFile() { ::close(fd_); }

void AppendFile::append(std::string_view bytes) {
    if (!write_all(fd_, bytes)) throw_errno("cannot append to", path_);
    if (::fdatasync(fd_) != 0) throw_errno("cannot fdatasync", path_);
}

std::optional<std::string> read_file_if_exists(const std::string& path) {
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0) return std::nullopt;
    std::string out;
    char buf[1 << 16];
    for (;;) {
        const ssize_t n = ::read(fd, buf, sizeof(buf));
        if (n < 0) {
            if (errno == EINTR) continue;
            ::close(fd);
            throw_errno("cannot read", path);
        }
        if (n == 0) break;
        out.append(buf, static_cast<std::size_t>(n));
    }
    ::close(fd);
    return out;
}

std::string double_to_hex(double value) {
    return hex16(std::bit_cast<std::uint64_t>(value));
}

double double_from_hex(const std::string& text, const std::string& context) {
    return std::bit_cast<double>(parse_u64(text, context));
}

std::string u64_to_hex(std::uint64_t value) { return hex16(value); }

std::uint64_t parse_u64(const std::string& text, const std::string& context) {
    const auto bad = [&](const std::string& why) -> std::runtime_error {
        return std::runtime_error("invalid unsigned integer for " + context +
                                  ": '" + text + "' (" + why + ")");
    };
    std::size_t begin = 0;
    std::size_t end = text.size();
    while (begin < end && std::isspace(static_cast<unsigned char>(text[begin])))
        ++begin;
    while (end > begin && std::isspace(static_cast<unsigned char>(text[end - 1])))
        --end;
    if (begin == end) throw bad("empty");
    const std::string body = text.substr(begin, end - begin);
    if (body[0] == '-') throw bad("negative");
    // Hand-rolled hex/decimal accumulation: unlike stoull(base 0) this
    // rejects '+' signs and never reinterprets leading zeros as octal, and
    // every failure is rejected by name through @p context.
    std::size_t pos = 0;
    std::uint64_t base = 10;
    if (body.size() > 2 && body[0] == '0' &&
        (body[1] == 'x' || body[1] == 'X')) {
        base = 16;
        pos = 2;
    }
    if (pos == body.size()) throw bad("not a number");
    std::uint64_t value = 0;
    for (; pos < body.size(); ++pos) {
        const char c = body[pos];
        std::uint64_t digit = 0;
        if (c >= '0' && c <= '9')
            digit = static_cast<std::uint64_t>(c - '0');
        else if (base == 16 && c >= 'a' && c <= 'f')
            digit = static_cast<std::uint64_t>(c - 'a') + 10;
        else if (base == 16 && c >= 'A' && c <= 'F')
            digit = static_cast<std::uint64_t>(c - 'A') + 10;
        else if (pos == 0 || (base == 16 && pos == 2))
            throw bad("not a number");
        else
            throw bad("trailing garbage");
        if (value > (UINT64_MAX - digit) / base) throw bad("out of range");
        value = value * base + digit;
    }
    return value;
}

} // namespace lognic::io
