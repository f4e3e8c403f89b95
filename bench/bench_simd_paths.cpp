// SIMD paths: swiss-table HtY probing vs the paper's chained HtY (kept
// as a reference in hashtable/grouped_map.hpp), and a full Sparta
// contraction on the swiss tables.
//
// The gated "probe" cases time the HtY find loop directly — table built
// once outside the timed region, single thread — so the measurement is
// the probe and nothing else (inside a 2-thread contraction the stage-②
// loop saturates memory bandwidth and the table layouts converge). The
// key stream is deterministic and miss-dominated (~31/32), the
// sparse-contraction norm (stats.hits typically runs well below
// stats.searches) and exactly where the flat table's compact control
// array pays off: a miss resolves inside the 1-byte-per-slot ctrl
// vector without touching the 24-byte-per-bucket chain headers. The
// miss-heavy mix also keeps the gate margin well clear of timing noise
// (the layouts measure ~1.4x at 50% misses but ~2x-3x miss-dominated,
// against the 1.2x the CI gate demands).
//
//   bench_simd_paths [--table chained|swiss] [bench flags]
//
// Without --table, one report carries both implementations as separate
// cases (the committed-baseline shape). With --table, the single case
// is named "probe" so two single-table reports pair by case name:
//
//   bench_simd_paths --table chained --json SIMD_chained.json --smoke
//   bench_simd_paths --table swiss   --json SIMD_swiss.json   --smoke
//   sparta_perfdiff --threshold -17% SIMD_chained.json SIMD_swiss.json
//
// The negative threshold makes CI fail unless swiss is >= 1.2x chained.
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "common/format.hpp"
#include "hashtable/grouped_map.hpp"
#include "simd/swiss_table.hpp"

namespace {

using namespace sparta;
using namespace sparta::bench;

/// Deterministic probe stream over a 32n key space where only the even
/// keys below 2n are present: ~31/32 of the probes miss.
std::vector<lnkey_t> make_probe_keys(std::size_t n) {
  std::vector<lnkey_t> keys(2 * n);
  std::uint64_t s = 0x2545f4914f6cdd1dULL;
  for (auto& k : keys) {
    // xorshift64 — hash-scattered, identical on every run/platform.
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    k = s % (32 * n);
  }
  return keys;
}

/// Times the find loop over `keys` (best of `reps`, single thread) and,
/// when --json is active, appends a report case whose stage time is all
/// index search and whose counters are the real probe/hit tallies.
template <typename Table>
double time_probe_loop(const Table& t, const std::vector<lnkey_t>& keys,
                       std::size_t num_keys, int reps,
                       const std::string& label) {
  double best = 1e300;
  std::vector<double> all_secs;
  all_secs.reserve(static_cast<std::size_t>(reps));
  std::size_t hits = 0;
  double sink = 0.0;
  for (int r = 0; r < reps; ++r) {
    hits = 0;
    Timer timer;
    for (const lnkey_t k : keys) {
      const auto items = t.find(k);
      if (!items.empty()) {
        ++hits;
        sink += items.front().val;
      }
    }
    const double secs = timer.seconds();
    all_secs.push_back(secs);
    best = std::min(best, secs);
  }
  if (sink < 0.0) std::printf("%f\n", sink);  // defeat dead-code elim
  std::sort(all_secs.begin(), all_secs.end());
  if (!json_path().empty()) {
    JsonCase c;
    c.name = label;
    c.repeats = reps;
    c.min_seconds = best;
    c.median_seconds = all_secs[all_secs.size() / 2];
    StageTimes st;
    st[Stage::kIndexSearch] = best;
    c.stages_json = st.to_json();
    ContractStats stats;
    stats.nnz_x = keys.size();
    stats.nnz_y = num_keys;
    stats.num_y_keys = num_keys;
    stats.searches = keys.size();
    stats.hits = hits;
    stats.multiplies = hits;
    c.counters_json = stats.to_json();
    json_cases().push_back(std::move(c));
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  // --table is this bench's own flag; strip it before the shared parser
  // (which rejects anything it does not know).
  std::string table;
  std::vector<char*> rest;
  rest.reserve(static_cast<std::size_t>(argc));
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--table") == 0 && i + 1 < argc) {
      table = argv[++i];
      continue;
    }
    rest.push_back(argv[i]);
  }
  if (!table.empty() && table != "chained" && table != "swiss") {
    std::fprintf(stderr, "%s: --table must be 'chained' or 'swiss'\n",
                 argv[0]);
    return 2;
  }
  parse_cli(static_cast<int>(rest.size()), rest.data());
  print_header("SIMD paths: swiss-table probing vs the chained HtY",
               "16-wide group probing beats pointer-chasing chains on "
               "the probe-dominated index-search loop");
  std::printf("active SIMD tier: %s\n\n",
              simd::isa_name(simd::active_isa()).data());

  // Sized so the chained baseline stays comfortably above perfdiff's
  // --min-seconds floor even in smoke mode (the gate must engage).
  const std::size_t n =
      smoke_mode()
          ? (std::size_t{1} << 18)
          : static_cast<std::size_t>(
                static_cast<double>(std::size_t{1} << 20) *
                std::max(0.25, scale_from_env()));
  // The probe pair feeds a perf gate; best-of-1 cold-cache timing has
  // ~40% run-to-run noise, so always take a few warm repeats.
  const int reps = std::max(6, repeats_from_env());
  const std::vector<lnkey_t> keys = make_probe_keys(n);

  std::printf("probe workload: %zu keys, %zu probes (~31/32 misses)\n\n",
              n, keys.size());
  std::printf("%-16s %14s\n", "case", "best");

  double t_chained = 0.0;
  double t_swiss = 0.0;
  for (const bool swiss : {false, true}) {
    if (!table.empty() && swiss != (table == "swiss")) continue;
    // Single case name under --table so two single-table reports pair
    // by case name in sparta_perfdiff.
    const std::string label =
        table.empty() ? (swiss ? "probe_swiss" : "probe_chained") : "probe";
    HtyRuns runs = group_by_key(
        n, 64, 1, {},
        [](std::size_t b, std::size_t e,
           simd::KeyPos* pos, FreeItem* items) {
          for (std::size_t i = b; i < e; ++i) {
            pos[i] = {2 * i, static_cast<std::uint32_t>(i)};
            items[i] = FreeItem{0, 1.0};
          }
        });
    double secs = 0.0;
    if (swiss) {
      const simd::SwissYMap t(std::move(runs));
      secs = time_probe_loop(t, keys, n, reps, label);
    } else {
      const GroupedHashMap t(std::move(runs), n);
      secs = time_probe_loop(t, keys, n, reps, label);
    }
    (swiss ? t_swiss : t_chained) = secs;
    std::printf("%-16s %14s\n", label.c_str(),
                format_seconds(secs).c_str());
  }
  if (table.empty() && t_chained > 0.0 && t_swiss > 0.0) {
    std::printf("\nprobe speedup (chained / swiss): %.2fx\n",
                t_chained / t_swiss);
  }

  // End-to-end (only in the both-tables shape): a full Sparta
  // contraction on a real dataset case, HtY build included. Too small to
  // clear the CI gate's noise floor — tracked, not gated. The engine has
  // no chained path left to contrast it with.
  if (table.empty()) {
    const SpTCCase c =
        make_sptc_case("chicago", 2, 0.5 * scale_from_env());
    ContractOptions o;
    o.algorithm = Algorithm::kSparta;
    const TimedRun run = time_contraction(c.x, c.y, c.cx, c.cy, o,
                                          std::min(2, reps), "e2e_swiss");
    std::printf("%-16s %14s\n", "e2e_swiss",
                format_seconds(run.seconds).c_str());
  }
  return 0;
}
