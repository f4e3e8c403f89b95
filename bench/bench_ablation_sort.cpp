// Ablation: sorting strategy for the input-processing / output-sorting
// stages — the paper's task-parallel quicksort vs the LN radix sort
// this reproduction adds (key width is known from the index space), on
// one thread (the serial tier) and on the team (sort_ln_pairs_team).
#include <algorithm>
#include <cstdio>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "common/format.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "simd/sort.hpp"

int main(int argc, char** argv) {
  sparta::bench::parse_cli(argc, argv);
  using namespace sparta;
  using namespace sparta::bench;
  print_header("Ablation: quicksort vs LN radix sort",
               "radix does ceil(bits/8) linear passes; wins grow with n "
               "and shrink with key width");

  const double scale = scale_from_env();
  const int reps = repeats_from_env();
  std::printf("%-10s %-8s %12s %12s %12s %9s %9s\n", "n", "bits",
              "quicksort", "radix", "team radix", "speedup", "team");

  for (const std::size_t n :
       {std::size_t{50'000}, std::size_t{200'000}, std::size_t{800'000}}) {
    for (const int bits : {24, 40, 56}) {
      const auto scaled = static_cast<std::size_t>(n * scale);
      Rng rng(9);
      std::vector<std::pair<std::uint64_t, std::size_t>> base(scaled);
      const std::uint64_t mask =
          bits >= 64 ? ~0ull : (1ull << bits) - 1;
      for (std::size_t i = 0; i < scaled; ++i) {
        base[i] = {rng() & mask, i};
      }

      double t_quick = 1e300, t_radix = 1e300, t_team = 1e300;
      for (int r = 0; r < reps; ++r) {
        auto v = base;
        Timer t;
        parallel_sort(v.begin(), v.end(), [](const auto& a, const auto& b) {
          return a.first < b.first;
        });
        t_quick = std::min(t_quick, t.seconds());

        auto w = base;
        t.reset();
        simd::sort_ln_pairs(w, bits);
        t_radix = std::min(t_radix, t.seconds());

        auto u = base;
        t.reset();
        simd::sort_ln_pairs_team(u, bits, team_size(scaled, 0));
        t_team = std::min(t_team, t.seconds());
        if (r == 0) {
          // Cross-check: equal key sequences, and both radix sorts are
          // stable, so they agree on the payloads too.
          for (std::size_t i = 0; i < scaled; ++i) {
            if (v[i].first != w[i].first || w[i] != u[i]) {
              std::printf("MISMATCH at %zu\n", i);
              return 1;
            }
          }
        }
      }
      std::printf("%-10zu %-8d %12s %12s %12s %8.2fx %8.2fx\n", scaled, bits,
                  format_seconds(t_quick).c_str(),
                  format_seconds(t_radix).c_str(),
                  format_seconds(t_team).c_str(), t_quick / t_radix,
                  t_radix / t_team);
    }
  }
  return 0;
}
