#include "lognic/ckpt/store.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <iterator>
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
    std::string file = io::encode_log_header({io::kCheckpointVersion, kind_});
    file += io::encode_record(payload);
    io::atomic_write_file(path_for(gen), file);

    std::vector<std::uint64_t> gens = generations();
    while (gens.size() > options_.retention) {
        std::error_code ec; // best-effort prune
        fs::remove(path_for(gens.front()), ec);
        gens.erase(gens.begin());
    }
    return gen;
}

std::unique_ptr<io::AppendFile>
CheckpointStore::open_log(std::uint64_t generation) const {
    return std::make_unique<io::AppendFile>(path_for(generation));
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
        std::optional<io::DecodedLog> log = io::decode_log(*data, &reason);
        if (!log) {
            reject(reason);
            continue;
        }
        if (log->header.kind != kind_) {
            reject("kind mismatch: file is '" + log->header.kind +
                   "', store is '" + kind_ + "'");
            continue;
        }
        if (log->records.empty()) {
            reject("snapshot record: " +
                   (log->defect.empty() ? "missing" : log->defect));
            continue;
        }
        Loaded out{*it, std::move(log->records.front()), {}, std::nullopt};
        out.records.assign(std::make_move_iterator(log->records.begin() + 1),
                           std::make_move_iterator(log->records.end()));
        if (!log->defect.empty())
            out.tail = Rejected{path, "truncated at byte " +
                                          std::to_string(log->valid_bytes) +
                                          ": " + log->defect};
        return out;
    }
    return std::nullopt;
}

} // namespace lognic::ckpt
