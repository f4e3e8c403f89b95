#include "serve/selector.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <vector>

#include "common/error.hpp"
#include "contraction/estimators.hpp"
#include "obs/exposition.hpp"
#include "obs/json.hpp"
#include "obs/json_parse.hpp"
#include "obs/metrics.hpp"
#include "simd/swiss_table.hpp"

namespace sparta::serve {

namespace {

void write_variant_stats(obs::JsonWriter& w,
                         const VariantSelector::VariantStats& s) {
  w.begin_object();
  w.key("runs").value(s.runs);
  w.key("seeded").value(s.seeded);
  w.key("ewma_seconds_per_work").value(s.ewma_seconds_per_work);
  w.end_object();
}

}  // namespace

void SelectorConfig::validate() const {
  SPARTA_CHECK(explore_period >= 0,
               "selector explore_period (--explore-period) must be >= 0 "
               "(0 disables exploration), got " +
                   std::to_string(explore_period));
  SPARTA_CHECK(ewma_alpha > 0.0 && ewma_alpha <= 1.0,
               "selector ewma_alpha (--ewma-alpha) must be in (0, 1], "
               "got " + std::to_string(ewma_alpha));
}

VariantSelector::VariantSelector(SelectorConfig cfg)
    : cfg_(std::move(cfg)) {
  cfg_.validate();
  if (!cfg_.model.empty()) {
    model_ = CostModel::load_file(cfg_.model);
  }
  if (!cfg_.state_path.empty()) {
    std::ifstream in(cfg_.state_path);
    if (in.good()) {
      std::stringstream ss;
      ss << in.rdbuf();
      load_state_json(ss.str());
    }
  }
}

std::size_t VariantSelector::slot(Algorithm a) {
  for (std::size_t i = 0; i < kVariants.size(); ++i) {
    if (kVariants[i] == a) return i;
  }
  throw Error("variant selector does not manage algorithm " +
              std::string(algorithm_name(a)));
}

VariantSelector::KeyState& VariantSelector::key_state_locked(
    const std::string& key) {
  return keys_[key];
}

// Learned cold start: initialize every never-run, never-seeded variant
// the model covers with its predicted seconds-per-work, so the exploit
// path can rank variants before any of them has executed. A seed is a
// prior, not an observation: runs stays 0, and the first real
// measurement blends into it with the normal EWMA alpha.
void VariantSelector::seed_from_model_locked(KeyState& ks,
                                             const RequestFeatures& f) {
  const std::size_t work =
      std::max<std::size_t>(f.nnz_x + f.nnz_y, 1);
  for (std::size_t i = 0; i < kVariants.size(); ++i) {
    VariantStats& s = ks.stats[i];
    if (s.runs > 0 || s.seeded || !model_.has(kVariants[i])) continue;
    s.ewma_seconds_per_work =
        model_.predict_seconds(kVariants[i], f.cost_features()) /
        static_cast<double>(work);
    s.seeded = true;
    SPARTA_COUNTER_ADD("serve.selector.model_seed", 1);
  }
}

Algorithm VariantSelector::choose(const RequestFeatures& f) {
  std::lock_guard<std::mutex> lk(mu_);
  ++decisions_;

  // A retained plan means HtY already exists — any other variant would
  // throw away the cache's whole point.
  if (f.plan_cached) {
    SPARTA_COUNTER_ADD("serve.selector.cached_plan", 1);
    return Algorithm::kSparta;
  }

  // Feasibility: drop HtY+HtA when Eq. 5 alone cannot fit the
  // remaining budget (the two COO variants carry no HtY).
  std::vector<Algorithm> feasible(kVariants.begin(), kVariants.end());
  if (f.budget_remaining != 0) {
    const std::size_t est = estimate_hty_bytes(
        f.nnz_y, f.order_y, simd::detail::swiss_slots_for(f.nnz_y));
    if (est > f.budget_remaining) {
      feasible.erase(
          std::remove(feasible.begin(), feasible.end(),
                      Algorithm::kSparta),
          feasible.end());
    }
  }
  if (feasible.empty()) feasible.push_back(Algorithm::kSpa);

  KeyState& ks = key_state_locked(f.key);
  if (!model_.empty()) seed_from_model_locked(ks, f);

  // Seed: any feasible variant this key has neither run nor had seeded
  // by the model is tried first, so the EWMAs start from real
  // observations, not optimism constants. With a loaded model covering
  // every variant this loop never fires — that is the learned prior
  // replacing the cold-start exploration.
  for (Algorithm a : feasible) {
    const VariantStats& s = ks.stats[slot(a)];
    if (s.runs == 0 && !s.seeded) {
      ++explored_;
      SPARTA_COUNTER_ADD("serve.selector.explore", 1);
      return a;
    }
  }

  // Deterministic exploration: every Nth decision rotates through the
  // feasible set so a variant that got slow (or fast) since its last
  // run cannot be starved forever.
  if (cfg_.explore_period > 0 &&
      decisions_ % static_cast<std::uint64_t>(cfg_.explore_period) == 0) {
    ++explored_;
    SPARTA_COUNTER_ADD("serve.selector.explore", 1);
    const std::uint64_t round =
        decisions_ / static_cast<std::uint64_t>(cfg_.explore_period);
    return feasible[static_cast<std::size_t>(round % feasible.size())];
  }

  // Exploit: lowest observed (or model-seeded) seconds-per-unit-work
  // for this key.
  Algorithm best = feasible.front();
  double best_cost = ks.stats[slot(best)].ewma_seconds_per_work;
  for (Algorithm a : feasible) {
    const double cost = ks.stats[slot(a)].ewma_seconds_per_work;
    if (cost < best_cost) {
      best = a;
      best_cost = cost;
    }
  }
  SPARTA_COUNTER_ADD("serve.selector.exploit", 1);
  return best;
}

void VariantSelector::record(const std::string& key, Algorithm a,
                             double seconds, std::size_t work) {
  const double per_work =
      seconds / static_cast<double>(std::max<std::size_t>(work, 1));
  const auto blend = [this, per_work](VariantStats& s) {
    if (s.runs == 0 && !s.seeded) {
      s.ewma_seconds_per_work = per_work;
    } else {
      s.ewma_seconds_per_work =
          cfg_.ewma_alpha * per_work +
          (1.0 - cfg_.ewma_alpha) * s.ewma_seconds_per_work;
    }
    ++s.runs;
  };
  {
    std::lock_guard<std::mutex> lk(mu_);
    blend(key_state_locked(key).stats[slot(a)]);
    blend(stats_[slot(a)]);
  }
  // Latency distribution per variant; dynamic name, so go through the
  // registry directly instead of the literal-keyed macro.
  if (obs::metrics_enabled()) {
    obs::MetricsRegistry::global()
        .histogram("serve.variant_us." +
                   std::string(algorithm_name(a)))
        .record(static_cast<std::uint64_t>(seconds * 1e6));
  }
}

void VariantSelector::set_model(CostModel model) {
  std::lock_guard<std::mutex> lk(mu_);
  model_ = std::move(model);
}

std::string VariantSelector::model_id() const {
  std::lock_guard<std::mutex> lk(mu_);
  return model_.id();
}

bool VariantSelector::has_model() const {
  std::lock_guard<std::mutex> lk(mu_);
  return !model_.empty();
}

double VariantSelector::predicted_seconds(const RequestFeatures& f,
                                          Algorithm a) const {
  std::lock_guard<std::mutex> lk(mu_);
  if (model_.empty() || !model_.has(a)) return 0.0;
  return model_.predict_seconds(a, f.cost_features());
}

VariantSelector::VariantStats VariantSelector::variant_stats(
    Algorithm a) const {
  std::lock_guard<std::mutex> lk(mu_);
  return stats_[slot(a)];
}

VariantSelector::VariantStats VariantSelector::key_stats(
    const std::string& key, Algorithm a) const {
  std::lock_guard<std::mutex> lk(mu_);
  const auto it = keys_.find(key);
  if (it == keys_.end()) return {};
  return it->second.stats[slot(a)];
}

std::string VariantSelector::stats_json() const {
  std::lock_guard<std::mutex> lk(mu_);
  obs::JsonWriter w;
  w.begin_object();
  w.key("decisions").value(decisions_);
  w.key("explored").value(explored_);
  w.key("model_id").value(std::string_view(model_.id()));
  w.key("keys").value(static_cast<std::uint64_t>(keys_.size()));
  w.key("variants").begin_object();
  for (std::size_t i = 0; i < kVariants.size(); ++i) {
    w.key(algorithm_name(kVariants[i]));
    write_variant_stats(w, stats_[i]);
  }
  w.end_object();
  w.key("per_key").begin_object();
  for (const auto& [key, ks] : keys_) {
    w.key(key).begin_object();
    for (std::size_t i = 0; i < kVariants.size(); ++i) {
      const VariantStats& s = ks.stats[i];
      if (s.runs == 0 && !s.seeded) continue;
      w.key(algorithm_name(kVariants[i]));
      write_variant_stats(w, s);
    }
    w.end_object();
  }
  w.end_object();
  w.end_object();
  return w.str();
}

std::string VariantSelector::prometheus_text() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::string out;
  const auto scalar = [&out](const char* kind, const std::string& name,
                             double v) {
    out += "# TYPE " + name + " " + kind + "\n" + name + " ";
    obs::detail::prometheus_number(out, v);
    out += "\n";
  };
  scalar("counter", "sparta_selector_decisions",
         static_cast<double>(decisions_));
  scalar("counter", "sparta_selector_explored",
         static_cast<double>(explored_));
  scalar("gauge", "sparta_selector_keys",
         static_cast<double>(keys_.size()));
  // Which brain makes decisions: an info-style sample whose labels name
  // the active model (or the analytic prior), so a scrape can join any
  // other series against the deciding model id.
  out += "# TYPE sparta_selector_model_info gauge\n";
  out += "sparta_selector_model_info{model_id=\"" + model_.id() +
         "\",prior=\"" +
         (model_.empty() ? std::string("analytic")
                         : std::string("learned")) +
         "\"} 1\n";
  out += "# TYPE sparta_selector_variant_runs counter\n";
  for (std::size_t i = 0; i < kVariants.size(); ++i) {
    out += "sparta_selector_variant_runs{variant=\"" +
           std::string(algorithm_name(kVariants[i])) + "\"} ";
    obs::detail::prometheus_number(
        out, static_cast<double>(stats_[i].runs));
    out += "\n";
  }
  out += "# TYPE sparta_selector_variant_ewma_seconds_per_work gauge\n";
  for (std::size_t i = 0; i < kVariants.size(); ++i) {
    out += "sparta_selector_variant_ewma_seconds_per_work{variant=\"" +
           std::string(algorithm_name(kVariants[i])) + "\"} ";
    obs::detail::prometheus_number(out, stats_[i].ewma_seconds_per_work);
    out += "\n";
  }
  return out;
}

std::string VariantSelector::state_json() const {
  std::lock_guard<std::mutex> lk(mu_);
  obs::JsonWriter w;
  w.begin_object();
  w.key("version").value(1);
  w.key("model_id").value(std::string_view(model_.id()));
  w.key("decisions").value(decisions_);
  w.key("explored").value(explored_);
  w.key("global").begin_object();
  for (std::size_t i = 0; i < kVariants.size(); ++i) {
    w.key(algorithm_name(kVariants[i]));
    write_variant_stats(w, stats_[i]);
  }
  w.end_object();
  w.key("keys").begin_object();
  for (const auto& [key, ks] : keys_) {
    w.key(key).begin_object();
    for (std::size_t i = 0; i < kVariants.size(); ++i) {
      const VariantStats& s = ks.stats[i];
      if (s.runs == 0 && !s.seeded) continue;
      w.key(algorithm_name(kVariants[i]));
      write_variant_stats(w, s);
    }
    w.end_object();
  }
  w.end_object();
  w.end_object();
  return w.str();
}

void VariantSelector::load_state_json(const std::string& doc) {
  const std::optional<obs::JsonValue> root = obs::json_parse(doc);
  if (!root || !root->is_object()) {
    throw Error("selector state: not a JSON object");
  }
  const obs::JsonValue* v = root->get("version");
  if (v == nullptr || v->number_or(0) != 1) {
    throw Error("selector state: missing or unsupported version");
  }
  const auto read_stats = [](const obs::JsonValue& entry,
                             VariantStats& out) {
    out.runs = static_cast<std::uint64_t>(
        entry.get("runs") ? entry.get("runs")->number_or(0) : 0);
    out.seeded =
        entry.get("seeded") != nullptr &&
        entry.get("seeded")->bool_or(false);
    out.ewma_seconds_per_work =
        entry.get("ewma_seconds_per_work")
            ? entry.get("ewma_seconds_per_work")->number_or(0.0)
            : 0.0;
  };

  std::lock_guard<std::mutex> lk(mu_);
  const std::string snap_model =
      root->get("model_id") ? root->get("model_id")->string_or("") : "";
  // A snapshot taken under a different brain: its observations are
  // still real, but pure seeds (runs == 0) were that model's opinions,
  // not measurements — drop them so the current prior re-seeds.
  const bool stale_seeds = snap_model != model_.id();
  decisions_ = static_cast<std::uint64_t>(
      root->get("decisions") ? root->get("decisions")->number_or(0) : 0);
  explored_ = static_cast<std::uint64_t>(
      root->get("explored") ? root->get("explored")->number_or(0) : 0);
  if (const obs::JsonValue* g = root->get("global")) {
    for (std::size_t i = 0; i < kVariants.size(); ++i) {
      if (const obs::JsonValue* e = g->get(algorithm_name(kVariants[i]))) {
        read_stats(*e, stats_[i]);
      }
    }
  }
  keys_.clear();
  if (const obs::JsonValue* ks = root->get("keys")) {
    if (!ks->is_object()) throw Error("selector state: 'keys' not an object");
    for (const auto& [key, entry] : ks->obj) {
      KeyState& state = keys_[key];
      for (std::size_t i = 0; i < kVariants.size(); ++i) {
        if (const obs::JsonValue* e =
                entry.get(algorithm_name(kVariants[i]))) {
          read_stats(*e, state.stats[i]);
          if (stale_seeds && state.stats[i].runs == 0) {
            state.stats[i] = {};
          }
        }
      }
    }
  }
}

bool VariantSelector::save_state() const {
  if (cfg_.state_path.empty()) return true;
  const std::string doc = state_json();
  std::FILE* f = std::fopen(cfg_.state_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "sparta: cannot write selector state '%s'\n",
                 cfg_.state_path.c_str());
    return false;
  }
  std::fwrite(doc.data(), 1, doc.size(), f);
  std::fputc('\n', f);
  std::fclose(f);
  return true;
}

}  // namespace sparta::serve
