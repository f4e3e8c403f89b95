// serve_repeated_y: closed-loop traffic against a ContractionService
// (kWorkers workers x kThreadsPerRequest OpenMP threads, adaptive
// selector on, periodic exploration off). Eight small Xs contract
// against three registered Ys with 60/30/10 popularity; the least
// popular Y is re-load()ed every
// kReloadEvery requests, which invalidates its cached HtY plan while
// reads continue. A plan-cache hit leaves little engine work, so
// queueing, selection, the plan cache and registry writes set the
// numbers.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <future>
#include <limits>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "simd/dispatch.hpp"

namespace perfbench {
namespace {

using sparta::serve::ContractionService;
using sparta::serve::ServeReport;
using sparta::serve::ServeRequest;

constexpr int kWorkers = 2;
constexpr int kThreadsPerRequest = 2;
constexpr int kClients = 4;  ///< one outstanding request each
constexpr std::uint64_t kReloadEvery = 500;

constexpr std::size_t kNumX = 8;
constexpr std::size_t kNumY = 3;
constexpr std::size_t kYNnz[kNumY] = {60'000, 100'000, 150'000};
constexpr std::uint64_t kYPercent[kNumY] = {60, 30, 10};
constexpr std::size_t kReloadedY = kNumY - 1;  ///< the least popular

std::string x_name(std::size_t i) { return "X" + std::to_string(i); }
std::string y_name(std::size_t i) { return "Y" + std::to_string(i); }

/// One request as its client saw it; the report itself is accounted
/// and dropped at completion, so memory does not grow with the run.
struct Done {
  Clock::time_point submitted;
  Clock::time_point ready;
  bool ok = false;
  bool wrong = false;  ///< the output failed its check
};

class ServeRepeatedY final : public Workload {
 public:
  explicit ServeRepeatedY(const Options& o) : o_(o) {}

  void setup() override {
    svc_.reset();
    const std::size_t div = o_.tiny ? 20 : 1;
    xs_.clear();
    ys_.clear();
    for (std::size_t i = 0; i < kNumY; ++i) {
      ys_.push_back(random_tensor({256, 256, 64}, kYNnz[i] / div,
                                  derive_seed(o_.seed, 100 + i)));
    }
    for (std::size_t i = 0; i < kNumX; ++i) {
      xs_.push_back(random_tensor({256, 256, 16}, 1000 * (i + 1) / div,
                                  derive_seed(o_.seed, 200 + i)));
    }
    sparta::serve::ServeConfig cfg;
    cfg.num_workers = kWorkers;
    cfg.threads_per_request = kThreadsPerRequest;
    // Periodic exploration off: it sends a random ~1 in 8 of the
    // reloaded Y's plan-cache misses to a COOY variant costing
    // 100-900 ms, and that count, not the service, would set ops_per_s.
    cfg.selector.explore_period = 0;
    svc_ = std::make_unique<ContractionService>(cfg);
    for (std::size_t i = 0; i < kNumY; ++i) svc_->load(y_name(i), ys_[i]);
    for (std::size_t i = 0; i < kNumX; ++i) svc_->load(x_name(i), xs_[i]);
    // Warm-up. A cached plan forces HtY+HtA, so only the reloaded Y's
    // keys are ever decided by the selector; each of them runs both
    // COOY variants once here, which is the selector's explore-first
    // seeding, so it does not land in the measured phase. Then every
    // Y's plan is built.
    std::vector<std::future<ServeReport>> warm;
    for (std::size_t x = 0; x < kNumX; ++x) {
      for (const sparta::Algorithm a :
           {sparta::Algorithm::kSpa, sparta::Algorithm::kCooHta}) {
        ServeRequest req = request(x, kReloadedY);
        req.force_variant = true;
        req.variant = a;
        warm.push_back(svc_->submit(std::move(req)));
      }
    }
    for (std::size_t y = 0; y < kNumY; ++y) {
      ServeRequest req = request(0, y);
      req.force_variant = true;
      req.variant = sparta::Algorithm::kSparta;
      warm.push_back(svc_->submit(std::move(req)));
    }
    for (std::future<ServeReport>& f : warm) {
      const ServeReport rep = f.get();
      if (!rep.ok()) throw sparta::Error("warm-up: " + rep.error);
    }
    next_ = 0;
  }

  Phase run(double seconds, bool whole_cycles, SpanLog& spans,
            Tally& tally) override {
    const sparta::serve::PlanCache::Stats cache0 = svc_->cache_stats();
    const ContractionService::AdmissionStats adm0 = svc_->admission_stats();
    const std::uint64_t first = next_;
    const std::uint64_t min_ops = o_.tiny ? 20 : 200;
    std::atomic<std::uint64_t> cursor{first};
    std::atomic<std::uint64_t> stop_at{
        std::numeric_limits<std::uint64_t>::max()};
    std::vector<std::vector<Done>> done(kClients);
    std::vector<Tally> loads(kClients);
    const auto start = Clock::now();

    const auto client = [&](std::size_t c) {
      for (;;) {
        const std::uint64_t i = cursor.fetch_add(1);
        if (i >= stop_at.load()) return;
        if (seconds_between(start, Clock::now()) >= seconds &&
            i - first >= min_ops) {
          // The first client past the deadline fixes the last request;
          // traced runs end on a reload-period boundary.
          std::uint64_t end = i;
          if (whole_cycles) end = (i + kReloadEvery - 1) / kReloadEvery *
                                  kReloadEvery;
          std::uint64_t cur = stop_at.load();
          while (end < cur && !stop_at.compare_exchange_weak(cur, end)) {
          }
          if (i >= stop_at.load()) return;
        }
        if (i > 0 && i % kReloadEvery == 0) {
          timed_load(*svc_, y_name(kReloadedY), ys_[kReloadedY], loads[c]);
        }
        std::size_t x = 0;
        std::size_t y = 0;
        draw(i, x, y);
        Done d;
        d.submitted = Clock::now();
        std::future<ServeReport> f = svc_->submit(request(x, y));
        const ServeReport rep = f.get();
        d.ready = Clock::now();
        d.ok = rep.ok() && rep.z != nullptr;
        if (!d.ok) {
          std::fprintf(stderr, "request %llu failed: %s\n",
                       static_cast<unsigned long long>(rep.request_id),
                       rep.error.c_str());
        } else {
          // Outside the timed interval.
          const sparta::Modes modes = {0, 1};
          const double s = seconds_between(d.submitted, d.ready);
          trace(spans, rep, d);
          std::lock_guard<std::mutex> lk(mu_);
          d.wrong = !verifier_.check(x * kNumY + y, xs_[x], ys_[y], modes,
                                     modes, *rep.z);
          ++tally.ops;
          tally.op_s += s;
          tally.add_request(rep, s);
        }
        done[c].push_back(d);
      }
    };
    std::vector<std::thread> clients;
    for (std::size_t c = 0; c < kClients; ++c) clients.emplace_back(client, c);
    for (std::thread& t : clients) t.join();
    next_ = stop_at.load();

    std::vector<const Done*> all;
    for (std::size_t c = 0; c < kClients; ++c) {
      tally.loads += loads[c].loads;
      tally.load_s += loads[c].load_s;
      for (const Done& d : done[c]) all.push_back(&d);
    }
    std::sort(all.begin(), all.end(), [](const Done* a, const Done* b) {
      return a->ready < b->ready;
    });
    Phase ph;
    for (const Done* d : all) {
      ++ph.attempted;
      if (!d->ok || d->wrong) ++ph.failed;
      if (d->wrong) ++ph.wrong_outputs;
      if (d->ok) {
        ph.complete(seconds_between(d->submitted, d->ready),
                    seconds_between(start, d->ready));
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
    const sparta::Modes modes = {0, 1};
    for (const sparta::SparseTensor& y : ys_) {
      for (const sparta::SparseTensor& x : xs_) {
        s += memsim_case_s(x, y, modes, modes);
      }
    }
    return s;
  }

  std::string shape() const override {
    // The selector prefers swiss tables whenever a vector ISA is active.
    return std::to_string(kWorkers) + " workers x " +
           std::to_string(kThreadsPerRequest) + " threads, " +
           (sparta::simd::vector_isa_active() ? "swiss" : "chained") +
           " tables";
  }

 private:
  static ServeRequest request(std::size_t x, std::size_t y) {
    ServeRequest req;
    req.x = x_name(x);
    req.y = y_name(y);
    req.cx = {0, 1};
    req.cy = {0, 1};
    return req;
  }

  /// Request i's operands: a pure function of (seed, i).
  void draw(std::uint64_t i, std::size_t& x, std::size_t& y) const {
    const std::uint64_t r = derive_seed(o_.seed, 1'000'000 + i);
    x = static_cast<std::size_t>(r % kNumX);
    std::uint64_t pick = (r >> 32) % 100;
    y = 0;
    while (pick >= kYPercent[y]) pick -= kYPercent[y++];
  }

  static void trace(SpanLog& spans, const ServeReport& rep, const Done& d) {
    if (!spans.enabled()) return;
    const auto dur = [](double s) {
      return std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double>(s));
    };
    const std::uint64_t rid = rep.request_id;
    const std::int64_t root =
        spans.add("serve.request", d.submitted, d.ready, -1, rid);
    const auto picked = d.submitted + dur(rep.queue_seconds);
    spans.add("serve.queue", d.submitted, picked, root, rid);
    const std::int64_t exec = spans.add(
        "serve.exec", picked, picked + dur(rep.exec_seconds), root, rid);
    spans.add_stages(rep.stage_times, picked, exec, rid);
  }

  Options o_;
  std::vector<sparta::SparseTensor> xs_;
  std::vector<sparta::SparseTensor> ys_;
  std::unique_ptr<ContractionService> svc_;
  std::uint64_t next_ = 0;  ///< index of the next request to draw
  std::mutex mu_;  ///< guards verifier_ and the phase's Tally
  Verifier verifier_;
};

}  // namespace

std::unique_ptr<Workload> make_serve_repeated_y(const Options& o) {
  return std::make_unique<ServeRepeatedY>(o);
}

}  // namespace perfbench
