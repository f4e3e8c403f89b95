// Budget-aware LRU cache of prebuilt YPlans (HtY + metadata).
//
// Building HtY is the dominant cost of a small-X contraction — O(nnz_Y)
// hashing versus O(nnz_X) probing — so a service contracting many
// requests against the same Y amortizes stage ① by caching the plan.
// The cache is keyed on (tensor registration id, contract-mode list):
// ids are monotonic (TensorRegistry), so re-registering a tensor under
// the same name can never serve a stale plan.
//
// Budget semantics: each cached plan's measured HtY footprint is
// (a) charged to the service's AllocationRegistry (Tier::kDram,
//     DataObject::kHtY) for as long as any lease keeps it alive, and
// (b) counted against the cache's own `budget_bytes`, which drives LRU
//     eviction — Eq. 5 pre-admission predicts the footprint before the
//     build, so entries that can never fit skip eviction churn and are
//     served uncached instead (the engine then charges the HtY to the
//     request, exactly as an un-served contraction would).
// Requests contracting against a *cached* plan set
// ContractOptions::hty_charged_externally so the engine neither
// pre-flights nor re-charges bytes the cache already holds.
#pragma once

#include <cstdint>
#include <condition_variable>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>

#include "contraction/plan.hpp"
#include "memsim/allocator.hpp"
#include "tensor/sparse_tensor.hpp"
#include "tensor/types.hpp"

namespace sparta::serve {

struct PlanCacheConfig {
  /// Ceiling on the summed HtY footprint of retained entries; 0 means
  /// unlimited (never evict).
  std::size_t budget_bytes = 0;

  /// Receives the kDram/kHtY charge of every retained plan. May be
  /// null (no external accounting).
  AllocationRegistry* registry = nullptr;
};

/// What acquire() hands back. `plan` is always usable; `cached` tells
/// the caller who owns the budget charge (see hty_charged_externally).
struct PlanLease {
  std::shared_ptr<const YPlan> plan;
  bool hit = false;     ///< served from cache without building
  bool cached = false;  ///< retained by the cache (charge is the cache's)
};

class PlanCache {
 public:
  explicit PlanCache(PlanCacheConfig cfg = {}) : cfg_(cfg) {}

  /// Returns a plan for contracting against tensor `y` (registered as
  /// `y_id`) along modes `cy`. Hits touch the LRU; misses build the
  /// plan (single-flight: concurrent requests for the same key wait for
  /// one build) and retain it when it fits the budget. Throws
  /// sparta::Error when `cy` is invalid for `y`.
  ///
  /// `cancel` governs both the caller's wait and its own build:
  ///  * a waiter whose token trips stops waiting and throws Cancelled —
  ///    the shared build keeps running for the other waiters;
  ///  * a builder whose token trips unwinds with Cancelled; waiters are
  ///    woken and RETRY the build themselves (one becomes the new
  ///    builder) rather than inheriting another request's deadline;
  ///  * a builder that fails with a real error (Error, bad_alloc)
  ///    wakes all waiters and rethrows that error to each of them —
  ///    the same build would fail the same way for everyone.
  /// Either way the failed entry is erased, never poisoned: the next
  /// acquire() for the key starts a fresh build.
  [[nodiscard]] PlanLease acquire(std::uint64_t y_id, const SparseTensor& y,
                                  const Modes& cy,
                                  const CancelToken& cancel = {});

  /// True when a plan for (y_id, cy) is retained right now. Does not
  /// touch the LRU.
  [[nodiscard]] bool peek(std::uint64_t y_id, const Modes& cy) const;

  /// Drops every entry built from registration `y_id` (tensor dropped
  /// or replaced). In-flight leases stay valid.
  void invalidate_tensor(std::uint64_t y_id);

  /// Drops everything (in-flight leases stay valid).
  void clear();

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    /// Misses whose plan could never fit `budget_bytes` and was served
    /// uncached (no eviction churn, charge went to the request).
    std::uint64_t uncacheable = 0;
    std::size_t entries = 0;        ///< retained plans
    std::size_t retained_bytes = 0; ///< summed HtY footprint of entries
  };
  [[nodiscard]] Stats stats() const;

  /// {"hits":..,"misses":..,"evictions":..,"uncacheable":..,
  ///  "entries":..,"retained_bytes":..}
  [[nodiscard]] std::string stats_json() const;

 private:
  // Charge travels with the plan: released when the cache entry AND
  // every outstanding lease are gone.
  struct Cached {
    YPlan plan;
    ScopedCharge charge;

    // Forwards to YPlan's constructor: a plan is built in place.
    template <typename... Args>
    explicit Cached(Args&&... args) : plan(std::forward<Args>(args)...) {}
  };

  struct Key {
    std::uint64_t id = 0;
    Modes cy;

    bool operator<(const Key& o) const {
      if (id != o.id) return id < o.id;
      return cy < o.cy;
    }
  };

  // Outcome of one single-flight build, shared between the builder and
  // its waiters. Waiters hold their own shared_ptr, so the outcome
  // survives the map entry being erased (failure, invalidation, or an
  // uncacheable success). All fields are guarded by mu_.
  struct Build {
    bool done = false;
    bool cancelled = false;      // failure was the builder's own cancel
    std::exception_ptr error;    // null on success
  };

  struct Entry {
    std::shared_ptr<Cached> cached;  // null while a build is in flight
    std::shared_ptr<Build> build;    // non-null while a build is in flight
    std::list<Key>::iterator lru;    // valid only when cached != null
    std::size_t bytes = 0;
  };

  // Builder failure epilogue: publishes the outcome on `build`, erases
  // the in-flight entry (never poisoning the key), and wakes waiters.
  // Must be called from inside a catch block (std::current_exception).
  void fail_build(const std::shared_ptr<Build>& build, const Key& key,
                  bool cancelled);

  // Evicts LRU entries until `need` more bytes fit the budget; skips
  // nothing (building entries are not in lru_). Caller holds mu_.
  void evict_for(std::size_t need);

  PlanCacheConfig cfg_;
  mutable std::mutex mu_;
  std::condition_variable build_done_;
  std::map<Key, Entry> map_;
  std::list<Key> lru_;  // front = most recently used
  std::size_t bytes_ = 0;
  Stats stats_;
};

}  // namespace sparta::serve
