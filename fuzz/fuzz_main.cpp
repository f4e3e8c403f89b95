// fuzz_sptc — deterministic differential fuzzer for the contraction
// variants.
//
//   fuzz_sptc --seeds 500            # run seeds 0..499
//   fuzz_sptc --start 1000 --seeds 500
//   fuzz_sptc --seed 1234            # replay one case (byte-for-byte)
//   fuzz_sptc --seed 1234 --dump     # also print every non-zero
//
// Every case is a pure function of its seed, so a failure found on any
// machine replays identically anywhere. On failure the harness prints
// the findings, minimizes the case (unless --no-minimize), and dumps the
// minimized operands. Exit status: 0 = all clean, 1 = mismatches found,
// 2 = bad usage.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>

#include "fuzz/chaos.hpp"
#include "fuzz/differential.hpp"
#include "fuzz/fuzz_case.hpp"
#include "fuzz/minimize.hpp"
#include "fuzz/network.hpp"

namespace {

void usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--seeds N] [--start S] [--seed X] [--tolerance T]\n"
      "          [--threads T] [--max-nnz N] [--no-minimize] [--no-dense]\n"
      "          [--inject-alloc-failures] [--schedules K]\n"
      "          [--isa-diff] [--chaos] [--network] [--repro-dir DIR]\n"
      "          [--dump] [--quiet]\n"
      "  --seeds N      number of consecutive seeds to run (default 100)\n"
      "  --start S      first seed (default 0)\n"
      "  --seed X       run exactly one seed (replay mode)\n"
      "  --tolerance T  comparison tolerance (default 1e-9)\n"
      "  --threads T    thread count for the variants (default: ambient)\n"
      "  --max-nnz N    per-operand non-zero cap (default 200)\n"
      "  --no-minimize  skip failing-case minimization\n"
      "  --no-dense     skip the dense oracle\n"
      "  --inject-alloc-failures\n"
      "                 fault-injection mode: drive contract_resilient()\n"
      "                 and contract() through random failpoint schedules\n"
      "                 derived from each case seed, instead of the\n"
      "                 differential sweep\n"
      "  --schedules K  failpoint schedules per case (default 4)\n"
      "  --isa-diff     differential ISA mode: replay each case under\n"
      "                 SPARTA_SIMD=scalar and the native tier for\n"
      "                 every algorithm, demanding bitwise-identical\n"
      "                 outputs\n"
      "  --chaos        chaos mode: random cancel points (countdown,\n"
      "                 site, deadline) layered on failpoints and budget\n"
      "                 pressure through contract(), contract_resilient()\n"
      "                 and the contraction service; asserts budget\n"
      "                 returns to zero and registries stay consistent\n"
      "  --network      plan-compiler mode: random small tensor networks\n"
      "                 with exact-integer values; every legal\n"
      "                 contraction order (and the planner's searched\n"
      "                 one, and einsum) must produce bitwise identical\n"
      "                 results\n"
      "  --repro-dir DIR\n"
      "                 write a repro file (operand dump + findings)\n"
      "                 per failing seed into DIR (created if absent)\n"
      "  --dump         dump every case's operands (replay mode aid)\n"
      "  --quiet        only print failures and the final summary\n",
      argv0);
}

struct Cli {
  std::uint64_t start = 0;
  std::uint64_t seeds = 100;
  bool single = false;
  double tolerance = 1e-9;
  int threads = 0;
  std::size_t max_nnz = 200;
  bool minimize = true;
  bool dense = true;
  bool dump = false;
  bool quiet = false;
  bool inject_faults = false;
  int schedules = 4;
  bool isa_diff = false;
  bool chaos = false;
  bool network = false;
  std::string repro_dir;
};

bool parse_u64(const char* s, std::uint64_t& out) {
  char* end = nullptr;
  out = std::strtoull(s, &end, 10);
  return end && *end == '\0' && end != s;
}

int parse_cli(int argc, char** argv, Cli& cli) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (a == "--seeds") {
      const char* v = next();
      if (!v || !parse_u64(v, cli.seeds)) return 2;
    } else if (a == "--start") {
      const char* v = next();
      if (!v || !parse_u64(v, cli.start)) return 2;
    } else if (a == "--seed") {
      const char* v = next();
      if (!v || !parse_u64(v, cli.start)) return 2;
      cli.seeds = 1;
      cli.single = true;
    } else if (a == "--tolerance") {
      const char* v = next();
      if (!v) return 2;
      cli.tolerance = std::atof(v);
    } else if (a == "--threads") {
      const char* v = next();
      if (!v) return 2;
      cli.threads = std::atoi(v);
    } else if (a == "--max-nnz") {
      const char* v = next();
      std::uint64_t n = 0;
      if (!v || !parse_u64(v, n) || n == 0) return 2;
      cli.max_nnz = static_cast<std::size_t>(n);
    } else if (a == "--inject-alloc-failures") {
      cli.inject_faults = true;
    } else if (a == "--isa-diff") {
      cli.isa_diff = true;
    } else if (a == "--chaos") {
      cli.chaos = true;
    } else if (a == "--network") {
      cli.network = true;
    } else if (a == "--repro-dir") {
      const char* v = next();
      if (!v || *v == '\0') return 2;
      cli.repro_dir = v;
    } else if (a == "--schedules") {
      const char* v = next();
      std::uint64_t n = 0;
      if (!v || !parse_u64(v, n) || n == 0) return 2;
      cli.schedules = static_cast<int>(n);
    } else if (a == "--no-minimize") {
      cli.minimize = false;
    } else if (a == "--no-dense") {
      cli.dense = false;
    } else if (a == "--dump") {
      cli.dump = true;
    } else if (a == "--quiet") {
      cli.quiet = true;
    } else if (a == "--help" || a == "-h") {
      usage(argv[0]);
      return 1;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", a.c_str());
      return 2;
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace sparta::fuzz;

  Cli cli;
  switch (parse_cli(argc, argv, cli)) {
    case 0:
      break;
    case 1:
      return 0;  // --help
    default:
      usage(argv[0]);
      return 2;
  }
  if (static_cast<int>(cli.inject_faults) + static_cast<int>(cli.isa_diff) +
          static_cast<int>(cli.chaos) + static_cast<int>(cli.network) >
      1) {
    std::fprintf(stderr,
                 "--inject-alloc-failures, --isa-diff, --chaos and "
                 "--network are separate modes; pick one\n");
    return 2;
  }

  if (cli.network) {
    // The plan-compiler differential has its own case type (a whole
    // network, not an (x, y) pair), so it runs as a separate loop.
    std::uint64_t failed = 0;
    std::uint64_t orders_run = 0;
    for (std::uint64_t s = cli.start; s < cli.start + cli.seeds; ++s) {
      NetworkCase c;
      try {
        c = draw_network_case(s);
      } catch (const std::exception& e) {
        ++failed;
        std::printf("FAIL seed=%llu: network generation threw: %s\n",
                    static_cast<unsigned long long>(s), e.what());
        continue;
      }
      if (!cli.quiet && (cli.single || cli.seeds <= 20)) {
        std::printf("[%llu] %s\n", static_cast<unsigned long long>(s),
                    c.label().c_str());
      }
      if (cli.dump) std::fputs(dump_network_case(c).c_str(), stdout);
      const DiffReport rep = run_network_differential(c);
      orders_run += static_cast<std::uint64_t>(rep.variants_run);
      if (rep.ok()) continue;

      ++failed;
      std::printf("FAIL %s\n", c.label().c_str());
      for (const Finding& f : rep.findings) {
        std::printf("  [%s] %s\n", f.variant.c_str(), f.what.c_str());
      }
      std::printf("  replay: fuzz_sptc --seed %llu --network\n",
                  static_cast<unsigned long long>(s));
      if (!cli.repro_dir.empty()) {
        std::error_code ec;
        std::filesystem::create_directories(cli.repro_dir, ec);
        const std::string path =
            cli.repro_dir + "/network-seed-" + std::to_string(s) + ".txt";
        std::ofstream out(path);
        if (out) {
          out << "seed: " << s << "\n" << c.label() << "\n";
          for (const Finding& f : rep.findings) {
            out << "[" << f.variant << "] " << f.what << "\n";
          }
          out << "replay: fuzz_sptc --seed " << s << " --network\n\n"
              << dump_network_case(c);
          std::printf("  repro written: %s\n", path.c_str());
        }
      }
      if (cli.minimize) {
        int calls = 0;
        const NetworkCase tiny = minimize_network(
            c,
            [](const NetworkCase& cand) {
              return !run_network_differential(cand).ok();
            },
            &calls);
        std::size_t before = 0;
        std::size_t after = 0;
        for (const auto& t : c.tensors) before += t.nnz();
        for (const auto& t : tiny.tensors) after += t.nnz();
        std::printf("  minimized (%d predicate calls): total nnz "
                    "%zu -> %zu\n",
                    calls, before, after);
        std::fputs(dump_network_case(tiny).c_str(), stdout);
        const DiffReport tiny_rep = run_network_differential(tiny);
        for (const Finding& f : tiny_rep.findings) {
          std::printf("  [%s] %s\n", f.variant.c_str(), f.what.c_str());
        }
      }
    }
    std::printf(
        "fuzz_sptc --network: %llu seed(s) starting at %llu, %llu order "
        "executions, %llu failing case(s)\n",
        static_cast<unsigned long long>(cli.seeds),
        static_cast<unsigned long long>(cli.start),
        static_cast<unsigned long long>(orders_run),
        static_cast<unsigned long long>(failed));
    return failed == 0 ? 0 : 1;
  }

  CaseLimits limits;
  limits.max_nnz = cli.max_nnz;
  DiffOptions diff;
  diff.tolerance = cli.tolerance;
  diff.num_threads = cli.threads;
  diff.check_dense = cli.dense;

  std::uint64_t failed_cases = 0;
  std::uint64_t total_variants = 0;
  for (std::uint64_t s = cli.start; s < cli.start + cli.seeds; ++s) {
    FuzzCase c;
    try {
      c = draw_case(s, limits);
    } catch (const std::exception& e) {
      ++failed_cases;
      std::printf("FAIL seed=%llu: case generation threw: %s\n",
                  static_cast<unsigned long long>(s), e.what());
      continue;
    }
    if (!cli.quiet && (cli.single || cli.seeds <= 20)) {
      std::printf("[%llu] %s\n", static_cast<unsigned long long>(s),
                  c.label().c_str());
    }
    if (cli.dump) {
      std::fputs(dump_case(c).c_str(), stdout);
    }
    DiffReport rep;
    if (cli.inject_faults) {
      FaultOptions fo;
      fo.tolerance = cli.tolerance;
      fo.num_threads = cli.threads;
      fo.schedules = cli.schedules;
      rep = run_fault_injection(c, fo);
    } else if (cli.isa_diff) {
      rep = run_isa_differential(c);
    } else if (cli.chaos) {
      ChaosOptions co;
      co.tolerance = cli.tolerance;
      co.num_threads = cli.threads;
      rep = run_chaos(c, co);
    } else {
      rep = run_differential(c, diff);
    }
    total_variants += static_cast<std::uint64_t>(rep.variants_run);
    if (rep.ok()) continue;

    ++failed_cases;
    std::printf("FAIL %s\n", c.label().c_str());
    for (const Finding& f : rep.findings) {
      std::printf("  [%s] %s\n", f.variant.c_str(), f.what.c_str());
    }
    std::printf("  replay: fuzz_sptc --seed %llu%s%s%s%s\n",
                static_cast<unsigned long long>(s),
                cli.dense ? "" : " --no-dense",
                cli.inject_faults ? " --inject-alloc-failures" : "",
                cli.isa_diff ? " --isa-diff" : "",
                cli.chaos ? " --chaos" : "");

    // Divergence repro artifact: everything needed to replay this seed
    // offline (CI uploads the directory on failure).
    if (!cli.repro_dir.empty()) {
      std::error_code ec;
      std::filesystem::create_directories(cli.repro_dir, ec);
      const std::string path = cli.repro_dir + "/seed-" + std::to_string(s) +
                               ".txt";
      std::ofstream out(path);
      if (out) {
        out << "seed: " << s << "\n" << c.label() << "\n";
        for (const Finding& f : rep.findings) {
          out << "[" << f.variant << "] " << f.what << "\n";
        }
        out << "replay: fuzz_sptc --seed " << s
            << (cli.inject_faults ? " --inject-alloc-failures" : "")
            << (cli.isa_diff ? " --isa-diff" : "")
            << (cli.chaos ? " --chaos" : "") << "\n\n"
            << dump_case(c);
        std::printf("  repro written: %s\n", path.c_str());
      } else {
        std::fprintf(stderr, "cannot write repro file '%s'\n", path.c_str());
      }
    }

    // Minimization flips differential-sweep findings only; a fault-mode
    // or chaos schedule depends on the exact hit sequence, which
    // shrinking the operands would change. ISA mode minimizes against
    // its own predicate so the shrunken case still diverges across
    // tiers.
    if (cli.minimize && !cli.inject_faults && !cli.chaos) {
      MinimizeStats ms;
      const FuzzCase tiny = minimize(
          c, [&](const FuzzCase& cand) {
            return cli.isa_diff ? !run_isa_differential(cand).ok()
                                : !run_differential(cand, diff).ok();
          },
          &ms);
      std::printf(
          "  minimized (%d predicate calls, %d rounds): x nnz %zu -> %zu, "
          "y nnz %zu -> %zu\n",
          ms.predicate_calls, ms.rounds, c.x.nnz(), tiny.x.nnz(), c.y.nnz(),
          tiny.y.nnz());
      std::fputs(dump_case(tiny).c_str(), stdout);
      const DiffReport tiny_rep = cli.isa_diff ? run_isa_differential(tiny)
                                               : run_differential(tiny, diff);
      for (const Finding& f : tiny_rep.findings) {
        std::printf("  [%s] %s\n", f.variant.c_str(), f.what.c_str());
      }
    }
  }

  std::printf(
      "fuzz_sptc: %llu seed(s) starting at %llu, %llu variant runs, "
      "%llu failing case(s)\n",
      static_cast<unsigned long long>(cli.seeds),
      static_cast<unsigned long long>(cli.start),
      static_cast<unsigned long long>(total_variants),
      static_cast<unsigned long long>(failed_cases));
  return failed_cases == 0 ? 0 : 1;
}
