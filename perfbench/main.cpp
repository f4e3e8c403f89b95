// The repository benchmark: one workload per run, chosen by name.
//
//   perfbench --workload <engine_sweep|serve_repeated_y|network_chain>
//             --seed <n> --seconds <s> --trace <0|1>
//             [--tiny] [--git-sha <sha>] [--src-digest <hex>]
//             [--trace-out <path>]
//
// Untraced runs (--trace 0) print the end-to-end metrics; traced runs
// (--trace 1) print the per-layer metrics and write the benchmark's own
// spans to --trace-out. The last line of stdout is one JSON object:
// {"correct":..,"attempted":..,"failed":..,"metrics":{..}}.
// README.md defines every workload and metric.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <vector>

#include "bench.hpp"
#include "obs/json.hpp"
#include "simd/dispatch.hpp"

namespace {

using perfbench::Clock;
using perfbench::Options;
using perfbench::Phase;
using perfbench::Tally;

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed "
               "<n> --seconds <s> --trace <0|1> [--tiny] [--git-sha <sha>] "
               "[--src-digest <hex>] [--trace-out <path>]\n",
               why.c_str());
  std::exit(2);
}

Options parse_args(int argc, char** argv) {
  Options o;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + a);
      return argv[++i];
    };
    try {
      if (a == "--workload") {
        o.workload = next();
        have_workload = true;
      } else if (a == "--seed") {
        o.seed = std::stoull(next());
      } else if (a == "--seconds") {
        o.seconds = std::stod(next());
      } else if (a == "--trace") {
        o.trace = std::stoi(next()) != 0;
      } else if (a == "--tiny") {
        o.tiny = true;
      } else if (a == "--git-sha") {
        o.git_sha = next();
      } else if (a == "--src-digest") {
        o.src_digest = next();
      } else if (a == "--trace-out") {
        o.trace_out = next();
      } else {
        usage("unknown argument " + a);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + a);
    }
  }
  if (!have_workload) usage("--workload is required");
  if (!(o.seconds > 0.0)) usage("--seconds must be positive");
  return o;
}

/// Nearest-rank percentile of sorted samples.
double percentile(const std::vector<double>& sorted, double p) {
  const auto n = static_cast<double>(sorted.size());
  const auto rank = static_cast<std::size_t>(std::ceil(p * n));
  return sorted[std::max<std::size_t>(rank, 1) - 1];
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// The phase is cut into kWindows windows of whole traffic cycles, so
/// every window sees the same mix, and the least disturbed one, the
/// window with the highest throughput, is reported. On a shared machine
/// a neighbour's burst can slow most of a run; whole-run or median-of-
/// window figures then moved by up to 60 %, the best window by under
/// 10 %. p95 comes from that window when it holds at least
/// kMinP95Samples operations (10 above its p95), else from the whole
/// phase.
constexpr std::size_t kWindows = 5;
constexpr std::size_t kMinP95Samples = 200;

struct Windowed {
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double ops_per_s = 0.0;
};

Windowed windowed(const Phase& ph) {
  const std::size_t cycles = ph.op_ms.size() / ph.cycle;
  const std::size_t w = std::max<std::size_t>(
      1, std::min(kWindows, cycles));
  std::vector<double> best;
  double best_rate = -1.0;
  for (std::size_t j = 0; j < w; ++j) {
    const std::size_t lo = j * cycles / w * ph.cycle;
    const std::size_t hi =
        std::max(lo + 1, (j + 1) * cycles / w * ph.cycle);
    const double from = lo == 0 ? 0.0 : ph.done_s[lo - 1];
    const double rate =
        static_cast<double>(hi - lo) / (ph.done_s[hi - 1] - from);
    if (rate > best_rate) {
      best_rate = rate;
      best.assign(ph.op_ms.begin() + static_cast<std::ptrdiff_t>(lo),
                  ph.op_ms.begin() + static_cast<std::ptrdiff_t>(hi));
    }
  }
  std::sort(best.begin(), best.end());
  std::vector<double> all = ph.op_ms;
  std::sort(all.begin(), all.end());
  const bool windowed_p95 = best.size() >= kMinP95Samples;
  const std::vector<double>& tail = windowed_p95 ? best : all;
  const double p95 = percentile(tail, 0.95);
  const auto above = static_cast<std::size_t>(
      tail.end() - std::upper_bound(tail.begin(), tail.end(), p95));
  std::printf("samples: %zu operations, %zu windows; best window %zu "
              "operations; p95 over the %s with %zu above it\n",
              all.size(), w, best.size(),
              windowed_p95 ? "best window" : "whole phase", above);
  return {percentile(best, 0.50), p95, best_rate};
}

std::vector<Metric> end_to_end(const Phase& ph, double setup_s) {
  const Windowed win = windowed(ph);
  const double ok = static_cast<double>(ph.attempted - ph.failed);
  return {
      {"setup_s", setup_s, "s"},
      {"op_p50_ms", win.p50_ms, "ms"},
      {"op_p95_ms", win.p95_ms, "ms"},
      {"ops_per_s", win.ops_per_s, "1/s"},
      {"success_rate", ok / static_cast<double>(ph.attempted), "ratio"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
  };
}

std::vector<Metric> per_layer(const Tally& t, double plain_ops_per_s,
                              double traced_ops_per_s, double memsim_s) {
  const double n = t.ops == 0 ? 1.0 : static_cast<double>(t.ops);
  const auto ms = [n](double s) { return s * 1e3 / n; };
  const auto per_op = [n](double v) { return v / n; };
  const auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  const auto stage = [&t](sparta::Stage s) {
    return t.stage_s[static_cast<std::size_t>(s)];
  };
  using sparta::Stage;
  const double cache_lookups =
      static_cast<double>(t.cache_hits + t.cache_misses);
  return {
      {"contraction.input_ms", ms(stage(Stage::kInputProcessing)), "ms"},
      {"contraction.search_ms", ms(stage(Stage::kIndexSearch)), "ms"},
      {"contraction.accumulate_ms", ms(stage(Stage::kAccumulation)), "ms"},
      {"contraction.writeback_ms", ms(stage(Stage::kWriteback)), "ms"},
      {"contraction.sort_ms", ms(stage(Stage::kOutputSorting)), "ms"},
      {"contraction.unattributed_ms", ms(t.unattributed_s), "ms"},
      {"contraction.searches", per_op(t.searches), "count/op"},
      {"contraction.hit_ratio", ratio(t.hits, t.searches), "ratio"},
      {"contraction.multiplies", per_op(t.multiplies), "count/op"},
      {"contraction.nnz_z", per_op(t.nnz_z), "count/op"},
      {"contraction.hty_bytes", per_op(t.hty_bytes), "B/op"},
      {"contraction.hta_bytes", per_op(t.hta_bytes), "B/op"},
      {"contraction.zlocal_bytes", per_op(t.zlocal_bytes), "B/op"},
      {"serve.queue_ms", ms(t.queue_s), "ms"},
      {"serve.exec_ms", ms(t.exec_s), "ms"},
      {"serve.overhead_ms", ms(t.overhead_s), "ms"},
      {"serve.exec_outside_stages_ms", ms(t.exec_outside_stages_s), "ms"},
      {"serve.plan_cache.hit_ratio",
       ratio(static_cast<double>(t.cache_hits), cache_lookups), "ratio"},
      {"serve.plan_cache.builds",
       per_op(static_cast<double>(t.cache_misses)), "count/op"},
      {"serve.plan_cache.evictions",
       per_op(static_cast<double>(t.cache_evictions)), "count/op"},
      {"serve.select.sparta_frac",
       ratio(static_cast<double>(t.sparta_requests),
             static_cast<double>(t.requests)),
       "ratio"},
      {"serve.select.non_hty_exec_frac", ratio(t.non_hty_exec_s, t.exec_s),
       "ratio"},
      {"serve.admission.degraded", per_op(static_cast<double>(t.degraded)),
       "count/op"},
      {"serve.admission.rejected", per_op(static_cast<double>(t.rejected)),
       "count/op"},
      {"serve.registry.load_ms",
       ratio(t.load_s * 1e3, static_cast<double>(t.loads)), "ms"},
      {"plan.parse_ms", ms(t.parse_s), "ms"},
      {"plan.search_ms", ms(t.search_s), "ms"},
      {"plan.cache_hit_ratio",
       ratio(static_cast<double>(t.plan_cache_hits),
             static_cast<double>(t.plan_runs)),
       "ratio"},
      {"plan.steps_ms", ms(t.steps_s), "ms"},
      {"plan.rollup_ms", ms(t.rollup_s), "ms"},
      {"plan.peak_temp_bytes", per_op(t.peak_temp_bytes), "B/op"},
      {"plan.peak_est_ratio",
       ratio(t.peak_est_ratio, static_cast<double>(t.plan_runs)), "ratio"},
      {"memsim.sparta_model_s", memsim_s, "s"},
      {"obs.trace_overhead_frac",
       ratio(plain_ops_per_s, traced_ops_per_s) - 1.0, "ratio"},
      {"obs.op_mean_ms", ms(t.op_s), "ms"},
  };
}

std::string result_json(bool correct, std::uint64_t attempted,
                        std::uint64_t failed,
                        const std::vector<Metric>& metrics) {
  sparta::obs::JsonWriter w;
  w.begin_object();
  w.key("correct").value(correct);
  w.key("attempted").value(attempted);
  w.key("failed").value(failed);
  w.key("metrics").begin_object();
  for (const Metric& m : metrics) {
    w.key(m.name).begin_object();
    w.key("value").value(m.value);
    w.key("unit").value(std::string_view(m.unit));
    w.end_object();
  }
  w.end_object();
  w.end_object();
  return w.str();
}

std::string context_json(const Options& o, const perfbench::Workload& w) {
  sparta::obs::JsonWriter j;
  j.begin_object();
  j.key("workload").value(std::string_view(o.workload));
  j.key("seed").value(o.seed);
  j.key("seconds").value(o.seconds);
  j.key("trace").value(o.trace);
  j.key("tiny").value(o.tiny);
  j.key("simd_isa")
      .value(sparta::simd::isa_name(sparta::simd::active_isa()));
  j.key("threads").value(perfbench::kThreads);
  j.key("nproc").value(static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN)));
  j.key("shape").value(std::string_view(w.shape()));
  j.key("build_type").value(PERFBENCH_BUILD_TYPE);
  j.key("git_sha").value(std::string_view(o.git_sha));
  j.key("src_digest").value(std::string_view(o.src_digest));
  j.end_object();
  return j.str();
}

int run(const Options& o) {
  std::unique_ptr<perfbench::Workload> w;
  if (o.workload == "engine_sweep") {
    w = perfbench::make_engine_sweep(o);
  } else if (o.workload == "serve_repeated_y") {
    w = perfbench::make_serve_repeated_y(o);
  } else if (o.workload == "network_chain") {
    w = perfbench::make_network_chain(o);
  } else {
    usage("unknown workload '" + o.workload + "'");
  }
  std::printf("context %s\n", context_json(o, *w).c_str());

  // Set-up is repeated and its median reported, so a slow first
  // set-up (cold pages, idle CPUs waking) does not move setup_s: at
  // least five times and 2 s in all (at most 15 times), or three times
  // when those already took over 6 s.
  std::vector<double> setup_s;
  double setup_total_s = 0.0;
  for (int i = 0; i < (o.tiny ? 1 : 15); ++i) {
    if (i >= 3 && setup_total_s > 6.0) break;
    if (i >= 5 && setup_total_s > 2.0) break;
    const auto t0 = Clock::now();
    w->setup();
    setup_s.push_back(perfbench::seconds_between(t0, Clock::now()));
    setup_total_s += setup_s.back();
  }

  perfbench::SpanLog spans;
  std::vector<Metric> metrics;
  Phase total;
  if (!o.trace) {
    Tally tally;
    total = w->run(o.seconds, false, spans, tally);
    metrics = end_to_end(total, median(setup_s));
  } else {
    // Half the time untraced, half traced: the ratio of the two
    // throughputs is the tracing overhead.
    Tally plain_tally;
    const Phase plain = w->run(o.seconds / 2, false, spans, plain_tally);
    spans.enable();
    Tally tally;
    const Phase traced = w->run(o.seconds / 2, true, spans, tally);
    const double memsim_s = w->memsim_model_s();
    const auto rate = [](const Phase& p) {
      return static_cast<double>(p.op_ms.size()) / p.wall_s();
    };
    metrics = per_layer(tally, rate(plain), rate(traced), memsim_s);
    if (!o.trace_out.empty()) {
      if (!spans.write(o.trace_out)) {
        std::fprintf(stderr, "perfbench: cannot write %s\n",
                     o.trace_out.c_str());
        return 1;
      }
      std::printf("trace: %zu spans written to %s\n", spans.size(),
                  o.trace_out.c_str());
    }
    total = plain;
    total.attempted += traced.attempted;
    total.failed += traced.failed;
    total.wrong_outputs += traced.wrong_outputs;
  }
  for (const Metric& m : metrics) {
    if (!std::isfinite(m.value)) {
      std::fprintf(stderr, "perfbench: metric %s is not finite\n",
                   m.name.c_str());
      return 1;
    }
  }
  const bool correct =
      total.wrong_outputs == 0 && total.failed < total.attempted;
  std::printf("%s\n", result_json(correct, total.attempted, total.failed,
                                  metrics)
                          .c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse_args(argc, argv);
  try {
    return run(o);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
