#include "lognic/ckpt/store.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <stdexcept>
#include <system_error>

#include "lognic/io/checkpoint.hpp"

namespace lognic::ckpt {
namespace fs = std::filesystem;

CheckpointStore::CheckpointStore(std::string dir, std::string kind,
                                 StoreOptions options)
    : dir_(std::move(dir)), kind_(std::move(kind)), options_(options) {
    if (kind_.empty())
        throw std::runtime_error("checkpoint store kind must be non-empty");
    if (options_.retention == 0)
        throw std::runtime_error("checkpoint store retention must be >= 1");
    std::error_code ec;
    fs::create_directories(dir_, ec);
    if (ec)
        throw std::runtime_error("cannot create checkpoint directory '" + dir_ +
                                 "': " + ec.message());
    // Resume numbering after whatever is already on disk so a restarted
    // supervisor never renames over a generation it has not read.
    const std::vector<std::uint64_t> existing = generations();
    if (!existing.empty()) next_generation_ = existing.back() + 1;
}

std::string CheckpointStore::path_for(std::uint64_t generation) const {
    char name[32];
    std::snprintf(name, sizeof(name), "-%08llu.lnck",
                  static_cast<unsigned long long>(generation));
    return dir_ + "/" + kind_ + name;
}

std::string CheckpointStore::log_path_for(std::uint64_t generation) const {
    std::string path = path_for(generation);
    path.replace(path.size() - 5, 5, ".lnlog");
    return path;
}

std::vector<std::uint64_t> CheckpointStore::generations() const {
    std::vector<std::uint64_t> out;
    const std::string prefix = kind_ + "-";
    std::error_code ec;
    for (const auto& entry : fs::directory_iterator(dir_, ec)) {
        const std::string name = entry.path().filename().string();
        if (name.size() != prefix.size() + 8 + 5) continue;
        if (name.compare(0, prefix.size(), prefix) != 0) continue;
        if (name.compare(name.size() - 5, 5, ".lnck") != 0) continue;
        const std::string digits = name.substr(prefix.size(), 8);
        if (digits.find_first_not_of("0123456789") != std::string::npos) continue;
        // parse_u64 names the file on failure; a directory scan must skip
        // (not throw on) entries somebody else dropped next to ours.
        try {
            out.push_back(
                io::parse_u64(digits, "checkpoint generation in '" + name + "'"));
        } catch (const std::exception&) {
            continue;
        }
    }
    std::sort(out.begin(), out.end());
    return out;
}

std::uint64_t CheckpointStore::save(const std::string& payload) {
    const std::uint64_t gen = next_generation_++;
    io::CheckpointFrame frame;
    frame.kind = kind_;
    frame.payload = payload;
    io::atomic_write_file(path_for(gen), io::encode_frame(frame));

    std::vector<std::uint64_t> gens = generations();
    while (gens.size() > options_.retention) {
        std::error_code ec; // best-effort prune, the log before its snapshot
        fs::remove(log_path_for(gens.front()), ec);
        fs::remove(path_for(gens.front()), ec);
        gens.erase(gens.begin());
    }
    return gen;
}

LogReplay CheckpointStore::load_log(const Loaded& snapshot) const {
    LogReplay out;
    const std::string path = log_path_for(snapshot.generation);
    const auto reject = [&](std::string reason) {
        out.rejected = Rejected{path, std::move(reason)};
        return out;
    };
    std::optional<std::string> data;
    try {
        data = io::read_file_if_exists(path);
    } catch (const std::exception& e) {
        return reject(e.what());
    }
    if (!data) return out;
    std::string reason;
    std::optional<io::DecodedLog> log = io::decode_log(*data, &reason);
    if (!log) return reject("unusable header: " + reason);
    const io::LogHeader& h = log->header;
    if (h.kind != kind_)
        return reject("header mismatch: kind '" + h.kind + "', store is '" +
                      kind_ + "'");
    if (h.generation != snapshot.generation)
        return reject("header mismatch: generation " +
                      std::to_string(h.generation) + ", snapshot is generation " +
                      std::to_string(snapshot.generation));
    const std::uint64_t sum = io::fnv1a64(snapshot.payload);
    if (h.frame_checksum != sum)
        return reject("header mismatch: snapshot checksum " +
                      io::u64_to_hex(h.frame_checksum) + ", snapshot hashes to " +
                      io::u64_to_hex(sum));
    out.records = std::move(log->records);
    if (!log->defect.empty())
        out.rejected = Rejected{path, "truncated at byte " +
                                          std::to_string(log->valid_bytes) +
                                          ": " + log->defect};
    return out;
}

std::unique_ptr<io::AppendFile>
CheckpointStore::open_log(std::uint64_t generation,
                          std::uint64_t frame_checksum) const {
    io::LogHeader header;
    header.kind = kind_;
    header.generation = generation;
    header.frame_checksum = frame_checksum;
    return std::make_unique<io::AppendFile>(log_path_for(generation),
                                            io::encode_log_header(header));
}

std::optional<Loaded>
CheckpointStore::load_latest(std::vector<Rejected>* rejected) const {
    std::vector<std::uint64_t> gens = generations();
    for (auto it = gens.rbegin(); it != gens.rend(); ++it) {
        const std::string path = path_for(*it);
        const auto reject = [&](std::string reason) {
            if (rejected != nullptr)
                rejected->push_back({path, std::move(reason)});
        };
        std::optional<std::string> data;
        try {
            data = io::read_file_if_exists(path);
        } catch (const std::exception& e) {
            reject(e.what());
            continue;
        }
        if (!data) {
            reject("unreadable");
            continue;
        }
        std::string reason;
        const auto frame = io::decode_frame(*data, &reason);
        if (!frame) {
            reject(reason);
            continue;
        }
        if (frame->kind != kind_) {
            reject("kind mismatch: frame is '" + frame->kind + "', store is '" +
                   kind_ + "'");
            continue;
        }
        return Loaded{*it, frame->payload};
    }
    return std::nullopt;
}

} // namespace lognic::ckpt
