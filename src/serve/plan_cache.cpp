#include "serve/plan_cache.hpp"

#include <chrono>
#include <utility>

#include "common/cancel.hpp"
#include "common/error.hpp"
#include "contraction/estimators.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"

namespace sparta::serve {

PlanLease PlanCache::acquire(std::uint64_t y_id, const SparseTensor& y,
                             const Modes& cy, const CancelToken& cancel) {
  const Key key{y_id, cy};
  std::unique_lock<std::mutex> lk(mu_);
  for (;;) {
    const auto it = map_.find(key);
    if (it == map_.end()) break;  // miss: this thread builds
    if (it->second.cached != nullptr) {
      lru_.splice(lru_.begin(), lru_, it->second.lru);
      ++stats_.hits;
      SPARTA_COUNTER_ADD("serve.cache.hit", 1);
      return {std::shared_ptr<const YPlan>(it->second.cached,
                                           &it->second.cached->plan),
              /*hit=*/true, /*cached=*/true};
    }
    // Another thread is building this plan (single-flight): wait for it
    // rather than duplicating an O(nnz_Y) build. Hold our own reference
    // to the Build so its outcome outlives the map entry.
    const std::shared_ptr<Build> build = it->second.build;
    while (!build->done) {
      if (cancel.valid()) {
        // Bounded waits so our own deadline is noticed even if the
        // builder wedges; check() throws Cancelled with the lock
        // released by unwinding.
        build_done_.wait_for(lk, std::chrono::milliseconds(5));
        cancel.check("plan.wait");
      } else {
        build_done_.wait(lk);
      }
    }
    if (build->error != nullptr && !build->cancelled) {
      // A real build failure (Error, bad_alloc) would repeat for us:
      // every waiter inherits it.
      std::rethrow_exception(build->error);
    }
    // The builder was cancelled (its deadline is not ours — retry, and
    // become the new builder), or it succeeded: re-check the map. A
    // retained plan is now a hit; an uncacheable or invalidated one was
    // erased and we build our own.
  }
  ++stats_.misses;
  SPARTA_COUNTER_ADD("serve.cache.miss", 1);

  // Eq. 5 pre-admission: a plan that can never fit the cache budget is
  // built and served uncached — no point evicting everything for it.
  const std::size_t est = estimate_hty_bytes(
      y.nnz(), y.order(), simd::detail::swiss_slots_for(y.nnz()));
  if (cfg_.budget_bytes != 0 && est > cfg_.budget_bytes) {
    ++stats_.uncacheable;
    SPARTA_COUNTER_ADD("serve.cache.uncacheable", 1);
    lk.unlock();
    auto plan = std::make_shared<YPlan>(y, cy, /*num_threads=*/0, cancel);
    return {std::move(plan), /*hit=*/false, /*cached=*/false};
  }

  // Claim the key (null `cached` marks a build in flight), then build
  // outside the lock — waiters block on build_done_, hits elsewhere in
  // the map proceed.
  auto build = std::make_shared<Build>();
  map_[key] = Entry{/*cached=*/nullptr, build, {}, 0};
  lk.unlock();

  std::shared_ptr<Cached> built;
  try {
    built = std::make_shared<Cached>(y, cy, /*num_threads=*/0, cancel);
  } catch (const Cancelled&) {
    fail_build(build, key, /*cancelled=*/true);
    throw;
  } catch (...) {
    fail_build(build, key, /*cancelled=*/false);
    throw;
  }
  const std::size_t actual = built->plan.hty_footprint_bytes();

  lk.lock();
  build->done = true;
  bool retain = true;
  if (cfg_.budget_bytes != 0) {
    if (actual > cfg_.budget_bytes) {
      retain = false;
    } else {
      evict_for(actual);
      if (bytes_ + actual > cfg_.budget_bytes) retain = false;
    }
  }
  const auto it = map_.find(key);
  // invalidate_tensor() may have erased the building entry; the plan is
  // then stale by definition and must not be retained.
  const bool invalidated = it == map_.end();
  if (retain && !invalidated && cfg_.registry != nullptr) {
    built->charge =
        ScopedCharge(cfg_.registry, Tier::kDram, DataObject::kHtY);
    try {
      built->charge.update(actual);
    } catch (const BudgetExceeded&) {
      // The service-wide registry is full: serve the plan uncached and
      // let the request's own accounting decide.
      built->charge = ScopedCharge();
      retain = false;
    }
  }
  const bool cached = retain && !invalidated;
  if (cached) {
    lru_.push_front(key);
    it->second.cached = built;
    it->second.build = nullptr;
    it->second.lru = lru_.begin();
    it->second.bytes = actual;
    bytes_ += actual;
  } else {
    if (!invalidated) map_.erase(it);
    if (!retain) {
      ++stats_.uncacheable;
      SPARTA_COUNTER_ADD("serve.cache.uncacheable", 1);
    }
  }
  build_done_.notify_all();
  lk.unlock();
  return {std::shared_ptr<const YPlan>(built, &built->plan),
          /*hit=*/false, cached};
}

void PlanCache::fail_build(const std::shared_ptr<Build>& build,
                           const Key& key, bool cancelled) {
  std::lock_guard<std::mutex> lk(mu_);
  build->error = std::current_exception();
  build->cancelled = cancelled;
  build->done = true;
  // Erase the in-flight entry so the key is immediately buildable again
  // — a failed build must never leave a poisoned or wedged slot behind.
  map_.erase(key);
  build_done_.notify_all();
}

bool PlanCache::peek(std::uint64_t y_id, const Modes& cy) const {
  std::lock_guard<std::mutex> lk(mu_);
  const auto it = map_.find(Key{y_id, cy});
  return it != map_.end() && it->second.cached != nullptr;
}

void PlanCache::invalidate_tensor(std::uint64_t y_id) {
  std::lock_guard<std::mutex> lk(mu_);
  for (auto it = map_.begin(); it != map_.end();) {
    if (it->first.id != y_id) {
      ++it;
      continue;
    }
    if (it->second.cached != nullptr) {
      bytes_ -= it->second.bytes;
      lru_.erase(it->second.lru);
    }
    // Building entries are erased too; the builder notices and serves
    // its plan uncached.
    it = map_.erase(it);
  }
  build_done_.notify_all();
}

void PlanCache::clear() {
  std::lock_guard<std::mutex> lk(mu_);
  for (auto it = map_.begin(); it != map_.end();) {
    if (it->second.cached == nullptr) {
      ++it;  // leave building entries for their builders
      continue;
    }
    bytes_ -= it->second.bytes;
    lru_.erase(it->second.lru);
    it = map_.erase(it);
  }
  build_done_.notify_all();
}

PlanCache::Stats PlanCache::stats() const {
  std::lock_guard<std::mutex> lk(mu_);
  Stats s = stats_;
  s.entries = lru_.size();
  s.retained_bytes = bytes_;
  return s;
}

std::string PlanCache::stats_json() const {
  const Stats s = stats();
  obs::JsonWriter w;
  w.begin_object();
  w.key("hits").value(s.hits);
  w.key("misses").value(s.misses);
  w.key("evictions").value(s.evictions);
  w.key("uncacheable").value(s.uncacheable);
  w.key("entries").value(static_cast<std::uint64_t>(s.entries));
  w.key("retained_bytes")
      .value(static_cast<std::uint64_t>(s.retained_bytes));
  w.end_object();
  return w.str();
}

void PlanCache::evict_for(std::size_t need) {
  if (cfg_.budget_bytes == 0) return;
  while (bytes_ + need > cfg_.budget_bytes && !lru_.empty()) {
    const Key victim = lru_.back();
    lru_.pop_back();
    const auto it = map_.find(victim);
    bytes_ -= it->second.bytes;
    map_.erase(it);
    ++stats_.evictions;
    SPARTA_COUNTER_ADD("serve.cache.evict", 1);
  }
}

}  // namespace sparta::serve
