// network_chain: one client submits tensor-network IR text. Each
// operation parses it (plan::parse_network) and runs it with
// PlanExecutor::run on a service with one worker x kThreads threads, so
// steps run one after another. Each cycle runs a 4-operand funnel,
// where the order search matters, then four times a 3-operand chain
// whose intermediate is large in every order (the funnel is the slower
// network, so p50 falls among chains and p95 among funnels, not in the
// gap between the two). One operand is re-loaded every kReloadEvery
// operations, which invalidates both the network-plan cache and the HtY
// plan cache.
#include <cstdio>
#include <string>
#include <vector>

#include "bench.hpp"
#include "contraction/contract.hpp"
#include "plan/executor.hpp"
#include "plan/ir.hpp"
#include "simd/dispatch.hpp"

namespace perfbench {
namespace {

using sparta::plan::PlanExecution;
using sparta::serve::ContractionService;

constexpr std::uint64_t kCycle = 5;  ///< a funnel, then four chains
constexpr std::uint64_t kReloadEvery = 4 * kCycle;

struct Operand {
  const char* name;
  sparta::index_t rows;
  sparta::index_t cols;
  std::size_t nnz;
};

// bench_plan's funnel: A*B first would build a wide 256x256
// intermediate; the planned order folds D and C into 4-wide tails.
constexpr const char* kFunnel = "Z[i,m] = A[i,j] * B[j,k] * C[k,l] * D[l,m]";
// Every order of this chain materializes a 256x256 intermediate about
// a third dense, so the engine works on data the caller never supplied.
constexpr const char* kChain = "W[i,l] = P[i,j] * Q[j,k] * R[k,l]";
constexpr Operand kOperands[] = {
    {"A", 256, 256, 20'000}, {"B", 256, 256, 20'000},
    {"C", 256, 256, 2'000},  {"D", 256, 4, 512},
    {"P", 256, 256, 2'600},  {"Q", 256, 256, 2'600},
    {"R", 256, 256, 2'600},
};
constexpr std::size_t kNumOperands = std::size(kOperands);
/// Re-loaded every kReloadEvery operations: the funnel's D, the Y
/// operand of its first step.
constexpr std::size_t kReloaded = 3;

class NetworkChain final : public Workload {
 public:
  explicit NetworkChain(const Options& o) : o_(o) {}

  void setup() override {
    exec_.reset();
    svc_.reset();
    tensors_.clear();
    const std::size_t div = o_.tiny ? 10 : 1;
    for (std::size_t i = 0; i < kNumOperands; ++i) {
      const Operand& op = kOperands[i];
      tensors_.push_back(random_tensor({op.rows, op.cols}, op.nnz / div,
                                       derive_seed(o_.seed, 300 + i)));
    }
    sparta::serve::ServeConfig cfg;
    cfg.num_workers = 1;
    cfg.threads_per_request = kThreads;
    svc_ = std::make_unique<ContractionService>(cfg);
    for (std::size_t i = 0; i < kNumOperands; ++i) {
      svc_->load(kOperands[i].name, tensors_[i]);
    }
    exec_ = std::make_unique<sparta::plan::PlanExecutor>(*svc_);

    // References: fixed-order pairwise contract() calls, the funnel
    // right to left and the chain left to right. Their operand pairs
    // are also the memsim cases.
    const auto& t = tensors_;
    sparta::SparseTensor cd = contract_step(t[2], t[3]);
    sparta::SparseTensor bcd = contract_step(t[1], cd);
    sparta::SparseTensor pq = contract_step(t[4], t[5]);
    refs_ = {contract_step(t[0], bcd), contract_step(pq, t[6])};
    memsim_inputs_.clear();
    memsim_inputs_.emplace_back(t[2], t[3]);
    memsim_inputs_.emplace_back(t[1], std::move(cd));
    memsim_inputs_.emplace_back(t[0], std::move(bcd));
    memsim_inputs_.emplace_back(t[4], t[5]);
    memsim_inputs_.emplace_back(std::move(pq), t[6]);

    // Warm-up: both networks once (search, HtY builds, selector).
    for (const char* text : {kFunnel, kChain}) {
      const PlanExecution ex =
          exec_->run(sparta::plan::parse_network(text));
      if (!ex.ok()) throw sparta::Error("warm-up: " + ex.error);
    }
    next_ = 0;
  }

  Phase run(double seconds, bool whole_cycles, SpanLog& spans,
            Tally& tally) override {
    const sparta::serve::PlanCache::Stats cache0 = svc_->cache_stats();
    const ContractionService::AdmissionStats adm0 = svc_->admission_stats();
    const std::size_t min_ops = o_.tiny ? 10 : 200;
    Phase ph;
    ph.cycle = kCycle;
    double busy_s = 0.0;
    for (std::uint64_t n = 0;; ++n) {
      const std::uint64_t k = next_ + n;
      if (busy_s >= seconds && ph.op_ms.size() >= min_ops &&
          (!whole_cycles || k % kReloadEvery == 0)) {
        next_ = k;
        break;
      }
      if (k > 0 && k % kReloadEvery == 0) {
        timed_load(*svc_, kOperands[kReloaded].name, tensors_[kReloaded],
                   tally);
      }
      const std::size_t which = k % kCycle == 0 ? 0 : 1;
      ++ph.attempted;
      // parse_network throws only on malformed text; both texts are
      // constants. run() reports every failure in the PlanExecution.
      const auto t0 = Clock::now();
      const sparta::plan::ContractionNetwork net =
          sparta::plan::parse_network(which == 0 ? kFunnel : kChain);
      const auto t1 = Clock::now();
      const PlanExecution ex = exec_->run(net);
      const auto t2 = Clock::now();
      const double s = seconds_between(t0, t2);
      busy_s += s;
      if (!ex.ok() || ex.z == nullptr) {
        ++ph.failed;
        std::fprintf(stderr, "network %llu failed: %s\n",
                     static_cast<unsigned long long>(k), ex.error.c_str());
        continue;
      }
      ph.complete(s, busy_s);
      account(tally, ex, seconds_between(t0, t1), s);
      trace(spans, ex, t0, t1, t2);
      if (!sparta::SparseTensor::approx_equal(*ex.z, refs_[which])) {
        ++ph.failed;
        ++ph.wrong_outputs;
      }
    }
    const sparta::serve::PlanCache::Stats cache1 = svc_->cache_stats();
    const ContractionService::AdmissionStats adm1 = svc_->admission_stats();
    tally.cache_hits += cache1.hits - cache0.hits;
    tally.cache_misses += cache1.misses - cache0.misses;
    tally.cache_evictions += cache1.evictions - cache0.evictions;
    tally.degraded += adm1.degraded - adm0.degraded;
    tally.rejected += adm1.rejected - adm0.rejected;
    return ph;
  }

  double memsim_model_s() override {
    double s = 0.0;
    for (const auto& [x, y] : memsim_inputs_) {
      s += memsim_case_s(x, y, {1}, {0});
    }
    return s;
  }

  std::string shape() const override {
    return "1 worker x " + std::to_string(kThreads) + " threads, " +
           (sparta::simd::vector_isa_active() ? "swiss" : "chained") +
           " tables";
  }

 private:
  static sparta::SparseTensor contract_step(const sparta::SparseTensor& x,
                                            const sparta::SparseTensor& y) {
    sparta::ContractOptions o;
    o.num_threads = kThreads;
    return sparta::contract(x, y, {1}, {0}, o).z;
  }

  static void account(Tally& tally, const PlanExecution& ex, double parse_s,
                      double op_s) {
    ++tally.ops;
    tally.op_s += op_s;
    tally.parse_s += parse_s;
    ++tally.plan_runs;
    if (ex.plan_cache_hit) {
      ++tally.plan_cache_hits;
    } else {
      tally.search_s += ex.plan_seconds;
    }
    double steps_s = 0.0;
    for (const sparta::serve::ServeReport& rep : ex.steps) {
      steps_s += rep.queue_seconds + rep.exec_seconds;
      tally.add_request(rep, -1.0);
    }
    tally.steps_s += steps_s;
    tally.rollup_s += ex.exec_seconds - steps_s;
    tally.peak_temp_bytes += static_cast<double>(ex.peak_temp_bytes);
    if (ex.plan != nullptr && ex.plan->est_peak_bytes > 0) {
      tally.peak_est_ratio += static_cast<double>(ex.peak_temp_bytes) /
                              static_cast<double>(ex.plan->est_peak_bytes);
    }
  }

  static void trace(SpanLog& spans, const PlanExecution& ex,
                    Clock::time_point t0, Clock::time_point t1,
                    Clock::time_point t2) {
    if (!spans.enabled()) return;
    const auto dur = [](double s) {
      return std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double>(s));
    };
    const std::uint64_t pid = ex.plan_id;
    const std::int64_t root = spans.add("plan.network", t0, t2, -1, 0, pid);
    spans.add("plan.parse", t0, t1, root, 0, pid);
    const auto planned = t1 + dur(ex.plan_seconds);
    spans.add(ex.plan_cache_hit ? "plan.lookup" : "plan.search", t1,
              planned, root, 0, pid);
    const std::int64_t exec = spans.add(
        "plan.exec", planned, planned + dur(ex.exec_seconds), root, 0, pid);
    Clock::time_point at = planned;
    for (const sparta::serve::ServeReport& rep : ex.steps) {
      const std::uint64_t rid = rep.request_id;
      const auto picked = at + dur(rep.queue_seconds);
      const auto end = picked + dur(rep.exec_seconds);
      const std::int64_t step = spans.add("plan.step", at, end, exec, rid, pid);
      spans.add("serve.queue", at, picked, step, rid, pid);
      const std::int64_t e =
          spans.add("serve.exec", picked, end, step, rid, pid);
      spans.add_stages(rep.stage_times, picked, e, rid, pid);
      at = end;
    }
  }

  Options o_;
  std::vector<sparta::SparseTensor> tensors_;
  std::vector<sparta::SparseTensor> refs_;  ///< funnel, chain
  std::vector<std::pair<sparta::SparseTensor, sparta::SparseTensor>>
      memsim_inputs_;
  std::unique_ptr<ContractionService> svc_;
  std::unique_ptr<sparta::plan::PlanExecutor> exec_;
  std::uint64_t next_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_network_chain(const Options& o) {
  return std::make_unique<NetworkChain>(o);
}

}  // namespace perfbench
