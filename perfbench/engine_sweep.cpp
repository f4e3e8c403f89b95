// engine_sweep: one caller, sparta::contract() with default options
// (HtY+HtA on the chained tables) and kThreads OpenMP threads, cycling
// round-robin through the 2-mode and 3-mode Table-3 analog cases. Every
// operation pays stage ① (X permute+sort, HtY build) and ② search; no
// serve or plan code is on the path.
#include <cstdio>
#include <string>
#include <vector>

#include "bench.hpp"
#include "contraction/contract.hpp"
#include "tensor/datasets.hpp"

namespace perfbench {
namespace {

// The 1-mode cases are left out: their outputs have millions of
// non-zeros and a single call takes seconds.
constexpr const char* kDatasets[] = {"chicago", "nips", "uber", "vast",
                                     "uracil"};
constexpr int kModes[] = {2, 3};

class EngineSweep final : public Workload {
 public:
  explicit EngineSweep(const Options& o) : o_(o) {}

  void setup() override {
    cases_.clear();
    const double scale = o_.tiny ? 0.05 : 1.0;
    std::uint64_t stream = 0;
    for (const char* ds : kDatasets) {
      for (const int m : kModes) {
        cases_.push_back(sparta::make_sptc_case(
            ds, m, scale, derive_seed(o_.seed, stream++)));
      }
    }
    // Warm-up: one call per case (first-touch pages, OpenMP pool).
    for (const sparta::SpTCCase& c : cases_) {
      (void)sparta::contract(c.x, c.y, c.cx, c.cy, options());
    }
  }

  Phase run(double seconds, bool whole_cycles, SpanLog& spans,
            Tally& tally) override {
    Phase ph;
    ph.cycle = cases_.size();
    const std::size_t min_ops = o_.tiny ? 10 : 200;
    double busy_s = 0.0;
    for (std::size_t k = 0;; ++k) {
      const bool cycle_start = k % cases_.size() == 0;
      if (busy_s >= seconds && ph.op_ms.size() >= min_ops &&
          (!whole_cycles || cycle_start)) {
        break;
      }
      const std::size_t ci = k % cases_.size();
      const sparta::SpTCCase& c = cases_[ci];
      ++ph.attempted;
      const auto t0 = Clock::now();
      sparta::ContractResult r;
      std::string error;
      try {
        r = sparta::contract(c.x, c.y, c.cx, c.cy, options());
      } catch (const std::exception& e) {
        error = e.what();
      }
      const auto t1 = Clock::now();
      const double s = seconds_between(t0, t1);
      busy_s += s;
      if (!error.empty()) {
        ++ph.failed;
        std::fprintf(stderr, "%s failed: %s\n", c.label.c_str(),
                     error.c_str());
        continue;
      }
      ph.complete(s, busy_s);
      ++tally.ops;
      tally.op_s += s;
      tally.add_engine(r.stage_times, r.stats, s);
      const std::int64_t root =
          spans.add("contraction.contract", t0, t1, -1, k + 1);
      spans.add_stages(r.stage_times, t0, root, k + 1);
      if (!verifier_.check(ci, c.x, c.y, c.cx, c.cy, r.z)) {
        ++ph.failed;
        ++ph.wrong_outputs;
      }
    }
    return ph;
  }

  double memsim_model_s() override {
    double s = 0.0;
    for (const sparta::SpTCCase& c : cases_) {
      s += memsim_case_s(c.x, c.y, c.cx, c.cy);
    }
    return s;
  }

  std::string shape() const override {
    return "1 caller x " + std::to_string(kThreads) +
           " threads, chained tables";
  }

 private:
  static sparta::ContractOptions options() {
    sparta::ContractOptions opts;
    opts.num_threads = kThreads;
    return opts;
  }

  Options o_;
  std::vector<sparta::SpTCCase> cases_;
  Verifier verifier_;
};

}  // namespace

std::unique_ptr<Workload> make_engine_sweep(const Options& o) {
  return std::make_unique<EngineSweep>(o);
}

}  // namespace perfbench
