/**
 * @file
 * Kill-tolerant exploration supervision (lognic::dse on the lognic::ckpt
 * seams).
 *
 * ExploreJournal is the completed-work journal for an exploration
 * campaign: two ckpt::Journal instances, one of model-oracle Evaluations
 * keyed by canonical config string, one of DES validations of frontier
 * members under the same keys. Both round-trip through JSON bit-exactly
 * (doubles as IEEE-754 hex, u64 as hex strings), so a resumed run
 * replays journaled outcomes verbatim.
 *
 * supervise_exploration() wraps explore() in a ckpt::Campaign: resume
 * from the newest valid "explore" generation and its record log
 * (fingerprint-checked against the live campaign), wire the journals into
 * the resume_eval/on_eval and resume_des/on_des seams, publish every
 * checkpoint_every completions (evaluations and DES validations tick one
 * counter, and append to one log), and always publish a final snapshot.
 * A run SIGKILLed at any point and resumed produces a FrontierReport
 * byte-identical to the uninterrupted run, at any thread count — journal
 * replay satisfies the *work* of a memo-cache miss without perturbing the
 * miss count (see BatchEvaluator in explorer.hpp).
 */
#ifndef LOGNIC_DSE_SUPERVISE_HPP_
#define LOGNIC_DSE_SUPERVISE_HPP_

#include <cstdint>
#include <string>
#include <utility>

#include "lognic/ckpt/journal.hpp"
#include "lognic/ckpt/supervisor.hpp"
#include "lognic/dse/explorer.hpp"
#include "lognic/io/json.hpp"

namespace lognic::dse {

/// Frame kind used by exploration checkpoints.
inline constexpr const char* kExploreCheckpointKind = "explore";

// Bit-exact (de)serialization of journal entries; exposed for tests.
io::Json evaluation_to_json(const Evaluation& e);
Evaluation evaluation_from_json(const io::Json& j);
io::Json des_validation_to_json(const DesValidation& v);
DesValidation des_validation_from_json(const io::Json& j);

/// Model-oracle evaluations, keyed by canonical config string.
struct EvalCodec {
    using Key = std::string;
    using Value = Evaluation;
    static constexpr const char* kArray = "evals";
    static constexpr const char* kKey = "key";
    static constexpr auto to_json = evaluation_to_json;
    static constexpr auto from_json = evaluation_from_json;
};

/// DES validations of frontier members, under the same keys.
struct DesCodec {
    using Key = std::string;
    using Value = DesValidation;
    static constexpr const char* kArray = "des";
    static constexpr const char* kKey = "key";
    static constexpr auto to_json = des_validation_to_json;
    static constexpr auto from_json = des_validation_from_json;
};

/// {"evals": [{"key": ..., ...}], "des": [{"key": ..., ...}]}.
/// Thread-safe: the record hooks fire from evaluation worker threads.
struct ExploreJournal {
    ckpt::Journal<EvalCodec> evals;
    ckpt::Journal<DesCodec> des;

    io::Json to_json() const;
    /// Replace the contents from a journal document.
    /// @throws std::runtime_error on malformed input or a duplicate key.
    void load_json(const io::Json& j);
    /// Apply a log record of either journal; false when it is neither's.
    bool replay(const std::string& record);
    /// Entries in both journals.
    std::size_t size() const { return evals.size() + des.size(); }

    void record_eval(const std::string& key, Evaluation done)
    {
        evals.record(key, std::move(done));
    }
    void record_des(const std::string& key, DesValidation done)
    {
        des.record(key, std::move(done));
    }
};

struct SupervisedExploration {
    FrontierReport report;
    ckpt::ResumeInfo resume;
    std::uint64_t checkpoints{0}; ///< generations published this run
};

/**
 * Run (or resume) an exploration under checkpoint supervision.
 * @p opts.resume_eval / on_eval / resume_des / on_des must be unset (the
 * supervisor owns those seams); throws std::invalid_argument otherwise.
 * A fingerprint mismatch against the stored campaign throws
 * std::runtime_error rather than mixing incompatible work.
 */
SupervisedExploration
supervise_exploration(const DesignSpace& space,
                      const std::vector<ObjectiveSpec>& objectives,
                      const std::vector<Constraint>& constraints,
                      ExploreOptions opts, const ckpt::SupervisorOptions& sup,
                      obs::MetricsRegistry* metrics = nullptr);

} // namespace lognic::dse

#endif // LOGNIC_DSE_SUPERVISE_HPP_
