#include "bench.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>

#include "contraction/contract.hpp"
#include "contraction/verify.hpp"
#include "memsim/cost_model.hpp"
#include "obs/json.hpp"
#include "tensor/generators.hpp"

namespace perfbench {

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

std::int64_t SpanLog::add(std::string name, Clock::time_point start,
                          Clock::time_point end, std::int64_t parent,
                          std::uint64_t request_id, std::uint64_t plan_id) {
  if (!enabled_) return -1;
  Span s;
  s.name = std::move(name);
  s.start_us = seconds_between(origin_, start) * 1e6;
  s.end_us = seconds_between(origin_, end) * 1e6;
  s.parent = parent;
  s.request_id = request_id;
  s.plan_id = plan_id;
  std::lock_guard<std::mutex> lk(mu_);
  spans_.push_back(std::move(s));
  return static_cast<std::int64_t>(spans_.size()) - 1;
}

void SpanLog::add_stages(const sparta::StageTimes& st,
                         Clock::time_point start, std::int64_t parent,
                         std::uint64_t request_id, std::uint64_t plan_id) {
  if (!enabled_) return;
  Clock::time_point t = start;
  for (int i = 0; i < sparta::kNumStages; ++i) {
    const auto s = static_cast<sparta::Stage>(i);
    const auto end =
        t + std::chrono::duration_cast<Clock::duration>(
                std::chrono::duration<double>(st[s]));
    add("stage." + std::string(sparta::stage_name(s)), t, end, parent,
        request_id, plan_id);
    t = end;
  }
}

std::size_t SpanLog::size() const {
  std::lock_guard<std::mutex> lk(mu_);
  return spans_.size();
}

bool SpanLog::write(const std::string& path) const {
  sparta::obs::JsonWriter w;
  w.begin_object();
  w.key("traceEvents").begin_array();
  {
    std::lock_guard<std::mutex> lk(mu_);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      w.begin_object();
      w.key("name").value(std::string_view(s.name));
      w.key("ph").value("X");
      w.key("ts").value(s.start_us);
      w.key("dur").value(s.end_us - s.start_us);
      w.key("pid").value(1);
      w.key("tid").value(1);
      w.key("args").begin_object();
      w.key("id").value(static_cast<std::uint64_t>(i));
      if (s.parent >= 0) {
        w.key("parent").value(static_cast<std::uint64_t>(s.parent));
      }
      if (s.request_id != 0) w.key("request_id").value(s.request_id);
      if (s.plan_id != 0) w.key("plan_id").value(s.plan_id);
      w.end_object();
      w.end_object();
    }
  }
  w.end_array();
  w.end_object();
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << w.str() << '\n';
  return static_cast<bool>(out);
}

void Tally::add_engine(const sparta::StageTimes& st,
                       const sparta::ContractStats& stats, double wall_s) {
  for (int i = 0; i < sparta::kNumStages; ++i) {
    stage_s[static_cast<std::size_t>(i)] += st.seconds[i];
  }
  if (wall_s >= 0.0) unattributed_s += wall_s - st.total();
  searches += static_cast<double>(stats.searches);
  hits += static_cast<double>(stats.hits);
  multiplies += static_cast<double>(stats.multiplies);
  nnz_z += static_cast<double>(stats.nnz_z);
  hty_bytes += static_cast<double>(stats.hty_bytes);
  hta_bytes += static_cast<double>(stats.hta_bytes);
  zlocal_bytes += static_cast<double>(stats.zlocal_bytes);
}

void Tally::add_request(const sparta::serve::ServeReport& rep,
                        double submit_to_ready_s) {
  ++requests;
  queue_s += rep.queue_seconds;
  exec_s += rep.exec_seconds;
  if (submit_to_ready_s >= 0.0) {
    overhead_s += submit_to_ready_s - rep.queue_seconds - rep.exec_seconds;
  }
  exec_outside_stages_s += rep.exec_seconds - rep.stage_times.total();
  const bool hty = rep.variant == sparta::Algorithm::kSparta;
  if (hty) {
    ++sparta_requests;
  } else {
    non_hty_exec_s += rep.exec_seconds;
  }
  // A served HtY+HtA miss built its HtY inside exec but outside the
  // stages; only the other requests time the engine alone.
  const bool built = hty && !rep.cache_hit && !rep.degraded;
  add_engine(rep.stage_times, rep.stats, built ? -1.0 : rep.exec_seconds);
}

std::uint64_t content_hash(const sparta::SparseTensor& t) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= b[i];
      h *= 0x100000001b3ULL;
    }
  };
  for (const sparta::index_t d : t.dims()) mix(&d, sizeof(d));
  for (int m = 0; m < t.order(); ++m) {
    const auto col = t.mode_indices(m);
    mix(col.data(), col.size_bytes());
  }
  const auto vals = t.values();
  mix(vals.data(), vals.size_bytes());
  return h;
}

bool Verifier::check(std::uint64_t case_id, const sparta::SparseTensor& x,
                     const sparta::SparseTensor& y, const sparta::Modes& cx,
                     const sparta::Modes& cy, const sparta::SparseTensor& z) {
  const std::uint64_t key = derive_seed(content_hash(z), case_id);
  if (verified_.count(key) != 0) return true;
  if (!sparta::verify_contraction(x, y, cx, cy, z)) return false;
  verified_.insert(key);
  return true;
}

double memsim_case_s(const sparta::SparseTensor& x,
                     const sparta::SparseTensor& y, const sparta::Modes& cx,
                     const sparta::Modes& cy) {
  sparta::ContractOptions o;
  o.num_threads = kThreads;
  o.collect_access_profile = true;
  const sparta::ContractResult r = sparta::contract(x, y, cx, cy, o);
  const sparta::AccessProfile& p = r.profile;
  // DRAM holds about a third of the footprint, as in bench_fig7_hm.
  sparta::MemoryParams params;
  params.dram_capacity_bytes =
      std::max<std::uint64_t>(p.total_footprint() / 3, 1);
  return sparta::simulate_static(
             p, params, sparta::sparta_placement(p.footprint_bytes, params))
      .total_seconds();
}

void timed_load(sparta::serve::ContractionService& svc,
                const std::string& name, sparta::SparseTensor t,
                Tally& tally) {
  const auto t0 = Clock::now();
  svc.load(name, std::move(t));
  tally.load_s += seconds_between(t0, Clock::now());
  ++tally.loads;
}

sparta::SparseTensor random_tensor(std::vector<sparta::index_t> dims,
                                   std::size_t nnz, std::uint64_t seed) {
  sparta::GeneratorSpec spec;
  spec.dims = std::move(dims);
  spec.nnz = nnz;
  spec.seed = seed;
  return sparta::generate_random(spec);
}

}  // namespace perfbench
