// Adaptive algorithm-variant selection for the contraction service.
//
// Each request picks one of the paper's three variants — COOY+SPA,
// COOY+HtA, HtY+HtA — from (a) estimator features known before the run
// (operand sizes, whether a cached plan exists, remaining budget) and
// (b) observed per-variant latency feedback, normalized by request work
// so small and large requests share one scale. Feedback is kept
// per contraction key (x|y|cx|cy): two different tensor pairs never
// share an EWMA, so a variant that is right for one shape cannot be
// wrong for another by association. The service names a network's
// intermediate operand in the key by its dims ("__tmp/256x256"), so
// each step of a repeated network keeps one key.
//
// Cold start has two regimes:
//   * analytic (default): any never-tried feasible variant on a key is
//     explored first, so the EWMAs start from real observations;
//   * learned (SelectorConfig::model): a CostModel fit offline by
//     tools/sparta_autotune seeds every feasible variant's EWMA with
//     its predicted seconds-per-work, and the first decision exploits
//     immediately. Observations then blend into the seeded EWMA with
//     the usual alpha, so warm behavior is unchanged either way.
//
// The policy is deliberately deterministic (no RNG — reproducible
// workload scripts are a feature):
//   * a cached plan forces HtY+HtA: stage ① is already paid for;
//   * variants whose Eq. 5 footprint exceeds the remaining budget are
//     excluded up front;
//   * every `explore_period`-th decision round-robins over the feasible
//     variants (and any never-tried, unseeded variant is explored
//     first);
//   * otherwise the variant with the lowest EWMA of seconds-per-unit-
//     work wins.
//
// The whole table (per-key EWMAs, counters, active model id) can be
// snapshotted to JSON and restored, so a service restart does not
// forget what it learned (SelectorConfig::state_path, sparta_serve
// --selector-state).
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>

#include "contraction/options.hpp"
#include "serve/costmodel.hpp"

namespace sparta::serve {

struct SelectorConfig {
  /// Every Nth decision explores instead of exploiting; 0 disables
  /// exploration (pure exploit after the initial seeding round).
  int explore_period = 8;

  /// Weight of the newest observation in the latency EWMA.
  double ewma_alpha = 0.3;

  /// Path to a sparta_autotune model file used as the cold-start prior;
  /// empty = analytic seeding (explore-first). Load failures throw
  /// sparta::Error from the VariantSelector constructor — a configured
  /// but unreadable brain is an operator error, not a silent fallback.
  std::string model;

  /// Path for the selector-state snapshot: loaded (when the file
  /// exists) at construction, written by ContractionService::shutdown,
  /// so per-key EWMAs survive restarts. Empty = in-memory only.
  std::string state_path;

  /// Throws sparta::Error with a flag-naming diagnostic on out-of-range
  /// knobs; called by the service constructor and sparta_serve's flag
  /// parser so replay experiments fail fast, not subtly.
  void validate() const;
};

/// Features available before a request runs.
struct RequestFeatures {
  std::size_t nnz_x = 0;
  std::size_t nnz_y = 0;
  int order_y = 0;
  int num_contract_modes = 0;
  double density_x = 0.0;
  double density_y = 0.0;
  /// Contraction key (x|y|cx|cy) scoping the EWMA table; "" shares one
  /// global entry (the pre-per-key behavior, used by direct callers).
  std::string key;
  /// A retained plan exists for (Y, cy): HtY+HtA skips stage ①.
  bool plan_cached = false;
  /// Remaining DRAM budget in bytes; 0 = unlimited.
  std::size_t budget_remaining = 0;

  [[nodiscard]] CostFeatures cost_features() const {
    return {nnz_x, nnz_y, order_y, num_contract_modes, density_x,
            density_y};
  }
};

class VariantSelector {
 public:
  /// The candidate set, in degradation-ladder order (lightest first).
  static constexpr std::array<Algorithm, 3> kVariants = {
      Algorithm::kSpa, Algorithm::kCooHta, Algorithm::kSparta};

  /// Validates cfg, then loads cfg.model and any existing cfg.state_path
  /// snapshot (both throw sparta::Error on malformed content).
  explicit VariantSelector(SelectorConfig cfg = {});

  /// Picks the variant for one request.
  [[nodiscard]] Algorithm choose(const RequestFeatures& f);

  /// Feeds back one completed request: `seconds` of contraction time
  /// over `work` units (nnz_x + nnz_y), into the key's EWMA row and the
  /// global aggregate. Also records the latency into the per-variant
  /// obs histogram serve.variant_us.<name>.
  void record(const std::string& key, Algorithm a, double seconds,
              std::size_t work);

  /// Keyless overload: records into the "" key (direct callers, tests).
  void record(Algorithm a, double seconds, std::size_t work) {
    record(std::string(), a, seconds, work);
  }

  /// Installs a learned prior directly (tests, bench replay); the CLI
  /// path is SelectorConfig::model.
  void set_model(CostModel model);

  /// Active model's content id; empty when running on the analytic
  /// prior.
  [[nodiscard]] std::string model_id() const;
  [[nodiscard]] bool has_model() const;

  /// Predicted wall seconds for `a` under the loaded model; 0.0 when no
  /// model (or no fit for `a`) — the statlog's pred_seconds column.
  [[nodiscard]] double predicted_seconds(const RequestFeatures& f,
                                         Algorithm a) const;

  struct VariantStats {
    std::uint64_t runs = 0;
    bool seeded = false;  ///< EWMA initialized from the learned prior
    double ewma_seconds_per_work = 0.0;
  };
  /// Global (all-key) aggregate for one variant.
  [[nodiscard]] VariantStats variant_stats(Algorithm a) const;
  /// Per-key row; default-constructed stats for an unseen key.
  [[nodiscard]] VariantStats key_stats(const std::string& key,
                                       Algorithm a) const;

  /// {"decisions":..,"explored":..,"model_id":..,"keys":N,
  ///  "variants":{..},"per_key":{..}} — the sparta_serve --json
  /// "selector" section.
  [[nodiscard]] std::string stats_json() const;

  /// Selector section of the Prometheus exposition: decision counters,
  /// per-variant aggregates, and a model-info sample naming the active
  /// brain (sparta_selector_model_info{model_id=..,prior=..} 1).
  [[nodiscard]] std::string prometheus_text() const;

  /// Durable snapshot of the learning state (counters + every key's
  /// per-variant EWMA row + the model id it was learned under).
  [[nodiscard]] std::string state_json() const;
  /// Restores a state_json() snapshot; throws sparta::Error on
  /// malformed input.
  void load_state_json(const std::string& doc);
  /// Writes state_json() to cfg.state_path (no-op when unset); false +
  /// stderr note when the file cannot be written.
  bool save_state() const;

 private:
  struct KeyState {
    std::array<VariantStats, 3> stats{};
  };

  static std::size_t slot(Algorithm a);
  KeyState& key_state_locked(const std::string& key);
  void seed_from_model_locked(KeyState& ks, const RequestFeatures& f);

  SelectorConfig cfg_;
  CostModel model_;
  mutable std::mutex mu_;
  std::uint64_t decisions_ = 0;
  std::uint64_t explored_ = 0;
  std::array<VariantStats, 3> stats_{};  ///< global aggregate
  std::map<std::string, KeyState> keys_;
};

}  // namespace sparta::serve
