// sparta_stats — aggregate the per-request JSONL stat store written by
// the contraction service (ServeConfig::statlog_path / sparta_serve
// --statlog) into per-variant latency percentiles, cache hit rates,
// outcome counts, and per-key regret against the best observed variant.
//
//   sparta_stats FILE... [--json] [--estimator-error]
//
// Reads every FILE in order (pass rotated segments oldest-first for a
// chronological merge; aggregation is order-insensitive anyway). Output
// is deterministic: variants, outcomes, and keys are emitted sorted.
//
// --estimator-error adds a per-variant section with percentiles of the
// predicted-over-measured cost ratios schema-2 records carry: Eq. 5
// (HtY bytes), Eq. 6 (HtA bytes), and the learned model's seconds
// prediction when one was serving — model drift is visible without
// running the autotuner.
//
// Regret: requests are grouped by contraction key (the record's `key`,
// x|y|cx|cy with an intermediate named by its dims); within a
// group each variant's median exec time is computed, and a variant's
// regret is its median minus the best median in the group — "how much
// slower than the best decision we have evidence for". The summary
// reports the mean regret per variant across keys where it appeared.
//
// Exit codes: 0 ok; 1 malformed record or bad I/O; 2 usage.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "obs/json.hpp"
#include "obs/json_parse.hpp"

namespace {

using sparta::obs::JsonValue;

struct Record {
  std::uint64_t request_id = 0;
  std::string key;      // x|y|cx|cy
  std::string variant;
  std::string outcome;
  bool cache_hit = false;
  double exec_seconds = 0.0;
  double queue_seconds = 0.0;
  // Predicted-over-measured ratios (0 = not available on this record):
  // Eq. 5 HtY bytes, Eq. 6 HtA bytes, learned-model seconds.
  double eq5_ratio = 0.0;
  double eq6_ratio = 0.0;
  double pred_ratio = 0.0;
};

struct VariantAgg {
  std::vector<double> exec;
  std::uint64_t count = 0;
  std::uint64_t hits = 0;
  double regret_sum = 0.0;
  std::uint64_t regret_keys = 0;
  std::vector<double> eq5;
  std::vector<double> eq6;
  std::vector<double> pred;
};

void usage(const char* prog) {
  std::fprintf(stderr, "usage: %s FILE... [--json] [--estimator-error]\n",
               prog);
  std::exit(2);
}

double percentile(std::vector<double>& v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto idx =
      static_cast<std::size_t>(p * static_cast<double>(v.size() - 1));
  return v[idx];
}

double median(std::vector<double> v) { return percentile(v, 0.5); }

std::string modes_string(const JsonValue* modes) {
  std::string s;
  if (modes == nullptr || !modes->is_array()) return s;
  for (const JsonValue& m : modes->arr) {
    if (!s.empty()) s += ",";
    s += std::to_string(static_cast<long long>(m.number_or(-1)));
  }
  return s;
}

// One statlog line -> Record; false (with a stderr note) on anything
// that is not a well-formed schema-1/2 record. Strictness is the point:
// CI runs this on fresh logs, and a malformed line means the writer —
// not the operator — broke.
bool parse_record(const std::string& line, std::size_t lineno,
                  const char* path, Record& out) {
  const std::optional<JsonValue> doc = sparta::obs::json_parse(line);
  const auto fail = [&](const char* why) {
    std::fprintf(stderr, "sparta_stats: %s:%zu: %s\n", path, lineno, why);
    return false;
  };
  if (!doc || !doc->is_object()) return fail("not a JSON object");
  const JsonValue* sv = doc->get("schema_version");
  const double schema = sv == nullptr ? 0 : sv->number_or(0);
  if (schema != 1 && schema != 2) {
    return fail("missing or unsupported schema_version");
  }
  const JsonValue* rid = doc->get("request_id");
  if (rid == nullptr || !rid->is_number() || rid->num_v < 1) {
    return fail("missing request_id");
  }
  out.request_id = static_cast<std::uint64_t>(rid->num_v);
  const JsonValue* x = doc->get("x");
  const JsonValue* y = doc->get("y");
  const JsonValue* variant = doc->get("variant");
  const JsonValue* outcome = doc->get("outcome");
  if (x == nullptr || y == nullptr || !x->is_string() || !y->is_string()) {
    return fail("missing operands");
  }
  if (variant == nullptr || !variant->is_string()) {
    return fail("missing variant");
  }
  if (outcome == nullptr || !outcome->is_string()) {
    return fail("missing outcome");
  }
  // The service's own key names a network intermediate by its dims, so
  // every execution of a step falls in one group; rebuilt from the
  // operand names for records without one.
  const JsonValue* key = doc->get("key");
  out.key = key != nullptr && key->is_string()
                ? key->str_v
                : x->str_v + "|" + y->str_v + "|" +
                      modes_string(doc->get("cx")) + "|" +
                      modes_string(doc->get("cy"));
  out.variant = variant->str_v;
  out.outcome = outcome->str_v;
  out.cache_hit = doc->get("cache_hit") != nullptr &&
                  doc->get("cache_hit")->bool_or(false);
  const JsonValue* exec = doc->get("exec_seconds");
  const JsonValue* queue = doc->get("queue_seconds");
  if (exec == nullptr || queue == nullptr) return fail("missing timings");
  out.exec_seconds = exec->number_or(0.0);
  out.queue_seconds = queue->number_or(0.0);
  const auto ratio = [&doc](const char* est_key, const char* meas_key) {
    const JsonValue* est = doc->get(est_key);
    const JsonValue* meas = doc->get(meas_key);
    if (est == nullptr || meas == nullptr) return 0.0;
    const double e = est->number_or(0.0);
    const double m = meas->number_or(0.0);
    return e > 0.0 && m > 0.0 ? e / m : 0.0;
  };
  out.eq5_ratio = ratio("est_hty_bytes", "hty_bytes");
  out.eq6_ratio = ratio("est_hta_bytes", "hta_bytes");
  out.pred_ratio = ratio("pred_seconds", "exec_seconds");
  return true;
}

// Ratio vector -> deterministic percentile row; zeros (ratio not
// available on that record) are dropped first.
struct RatioRow {
  std::uint64_t n = 0;
  double p50 = 0.0;
  double p95 = 0.0;
  double max = 0.0;
};

RatioRow ratio_row(std::vector<double> v) {
  RatioRow row;
  v.erase(std::remove(v.begin(), v.end(), 0.0), v.end());
  if (v.empty()) return row;
  std::sort(v.begin(), v.end());
  row.n = v.size();
  const auto at = [&v](double p) {
    return v[static_cast<std::size_t>(p *
                                      static_cast<double>(v.size() - 1))];
  };
  row.p50 = at(0.5);
  row.p95 = at(0.95);
  row.max = v.back();
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> paths;
  bool as_json = false;
  bool estimator_error = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--json") {
      as_json = true;
    } else if (a == "--estimator-error") {
      estimator_error = true;
    } else if (!a.empty() && a[0] == '-') {
      std::fprintf(stderr, "%s: unknown flag '%s'\n", argv[0], a.c_str());
      usage(argv[0]);
    } else {
      paths.push_back(a);
    }
  }
  if (paths.empty()) usage(argv[0]);

  std::vector<Record> records;
  for (const std::string& path : paths) {
    std::FILE* f = std::fopen(path.c_str(), "r");
    if (f == nullptr) {
      std::fprintf(stderr, "sparta_stats: cannot read '%s'\n",
                   path.c_str());
      return 1;
    }
    std::string line;
    std::size_t lineno = 0;
    int c;
    while ((c = std::fgetc(f)) != EOF) {
      if (c != '\n') {
        line += static_cast<char>(c);
        continue;
      }
      ++lineno;
      if (!line.empty()) {
        Record r;
        if (!parse_record(line, lineno, path.c_str(), r)) {
          std::fclose(f);
          return 1;
        }
        records.push_back(std::move(r));
      }
      line.clear();
    }
    std::fclose(f);
    if (!line.empty()) {
      // A torn trailing line (no newline) means the writer died
      // mid-append; everything before it is still good data, but CI
      // should know.
      std::fprintf(stderr,
                   "sparta_stats: %s: ignoring torn trailing line\n",
                   path.c_str());
    }
  }

  // Per-variant aggregates over requests that actually executed
  // (ok/degraded); outcome counts cover everything.
  std::map<std::string, VariantAgg> variants;
  std::map<std::string, std::uint64_t> outcomes;
  // key -> variant -> exec samples, for the regret computation.
  std::map<std::string, std::map<std::string, std::vector<double>>> by_key;
  std::uint64_t cache_lookups = 0;
  std::uint64_t cache_hits = 0;
  for (const Record& r : records) {
    ++outcomes[r.outcome];
    if (r.outcome != "ok" && r.outcome != "degraded") continue;
    VariantAgg& agg = variants[r.variant];
    ++agg.count;
    agg.exec.push_back(r.exec_seconds);
    agg.eq5.push_back(r.eq5_ratio);
    agg.eq6.push_back(r.eq6_ratio);
    agg.pred.push_back(r.pred_ratio);
    ++cache_lookups;
    if (r.cache_hit) {
      ++agg.hits;
      ++cache_hits;
    }
    by_key[r.key][r.variant].push_back(r.exec_seconds);
  }

  // Regret: within each key, each variant's median vs the best median.
  for (const auto& [key, per_variant] : by_key) {
    double best = 0.0;
    bool first = true;
    std::map<std::string, double> medians;
    for (const auto& [variant, samples] : per_variant) {
      const double m = median(samples);
      medians[variant] = m;
      if (first || m < best) best = m;
      first = false;
    }
    for (const auto& [variant, m] : medians) {
      VariantAgg& agg = variants[variant];
      agg.regret_sum += m - best;
      ++agg.regret_keys;
    }
  }

  if (as_json) {
    sparta::obs::JsonWriter w;
    w.begin_object();
    w.key("schema_version").value(1);
    w.key("tool").value("sparta_stats");
    w.key("requests").value(static_cast<std::uint64_t>(records.size()));
    w.key("cache_hit_rate")
        .value(cache_lookups == 0 ? 0.0
                                  : static_cast<double>(cache_hits) /
                                        static_cast<double>(cache_lookups));
    w.key("outcomes").begin_object();
    for (const auto& [name, n] : outcomes) w.key(name).value(n);
    w.end_object();
    w.key("variants").begin_object();
    for (auto& [name, agg] : variants) {
      w.key(name).begin_object();
      w.key("count").value(agg.count);
      w.key("cache_hits").value(agg.hits);
      w.key("exec_seconds").begin_object();
      w.key("p50").value(percentile(agg.exec, 0.5));
      w.key("p95").value(percentile(agg.exec, 0.95));
      w.key("max").value(percentile(agg.exec, 1.0));
      w.end_object();
      w.key("mean_regret_seconds")
          .value(agg.regret_keys == 0
                     ? 0.0
                     : agg.regret_sum /
                           static_cast<double>(agg.regret_keys));
      if (estimator_error) {
        const auto write_row = [&w](const char* key, RatioRow row) {
          w.key(key).begin_object();
          w.key("samples").value(row.n);
          w.key("p50").value(row.p50);
          w.key("p95").value(row.p95);
          w.key("max").value(row.max);
          w.end_object();
        };
        w.key("estimator_error").begin_object();
        write_row("eq5_pred_over_measured", ratio_row(agg.eq5));
        write_row("eq6_pred_over_measured", ratio_row(agg.eq6));
        write_row("model_pred_over_measured", ratio_row(agg.pred));
        w.end_object();
      }
      w.end_object();
    }
    w.end_object();
    w.end_object();
    std::printf("%s\n", w.str().c_str());
    return 0;
  }

  std::printf("# sparta_stats\n\n");
  std::printf("requests: %zu\n", records.size());
  std::printf("cache hit rate: %.1f%% (%llu/%llu)\n\n",
              cache_lookups == 0 ? 0.0
                                 : 100.0 * static_cast<double>(cache_hits) /
                                       static_cast<double>(cache_lookups),
              static_cast<unsigned long long>(cache_hits),
              static_cast<unsigned long long>(cache_lookups));
  std::printf("## Outcomes\n\n| outcome | count |\n|---|---|\n");
  for (const auto& [name, n] : outcomes) {
    std::printf("| %s | %llu |\n", name.c_str(),
                static_cast<unsigned long long>(n));
  }
  std::printf(
      "\n## Variants\n\n"
      "| variant | count | p50 ms | p95 ms | max ms | hit rate | "
      "mean regret ms |\n|---|---|---|---|---|---|---|\n");
  for (auto& [name, agg] : variants) {
    std::printf(
        "| %s | %llu | %.3f | %.3f | %.3f | %.1f%% | %.3f |\n",
        name.c_str(), static_cast<unsigned long long>(agg.count),
        percentile(agg.exec, 0.5) * 1e3, percentile(agg.exec, 0.95) * 1e3,
        percentile(agg.exec, 1.0) * 1e3,
        agg.count == 0 ? 0.0
                       : 100.0 * static_cast<double>(agg.hits) /
                             static_cast<double>(agg.count),
        (agg.regret_keys == 0 ? 0.0
                              : agg.regret_sum /
                                    static_cast<double>(agg.regret_keys)) *
            1e3);
  }
  if (estimator_error) {
    std::printf(
        "\n## Estimator error (predicted / measured, 1.0 = perfect)\n\n"
        "| variant | source | samples | p50 | p95 | max |\n"
        "|---|---|---|---|---|---|\n");
    for (auto& [name, agg] : variants) {
      const auto print_row = [&name](const char* src, RatioRow row) {
        if (row.n == 0) {
          std::printf("| %s | %s | 0 | n/a | n/a | n/a |\n",
                      name.c_str(), src);
          return;
        }
        std::printf("| %s | %s | %llu | %.3f | %.3f | %.3f |\n",
                    name.c_str(), src,
                    static_cast<unsigned long long>(row.n), row.p50,
                    row.p95, row.max);
      };
      print_row("Eq.5 HtY bytes", ratio_row(agg.eq5));
      print_row("Eq.6 HtA bytes", ratio_row(agg.eq6));
      print_row("model seconds", ratio_row(agg.pred));
    }
  }
  return 0;
}
