#include "plan/cache.hpp"

#include <utility>

#include "obs/metrics.hpp"

namespace sparta::plan {

std::string NetworkPlanCache::key(const ContractionNetwork& net,
                                  const std::vector<BoundInput>& inputs,
                                  const PlanOptions& opts) {
  std::string k = net.canonical();
  for (const BoundInput& b : inputs) {
    k += '|';
    k += std::to_string(b.registry_id);
  }
  k += "|budget=";
  k += std::to_string(opts.budget_bytes);
  k += "|model=";
  if (opts.model != nullptr) k += opts.model->id();
  return k;
}

std::shared_ptr<const NetworkPlan> NetworkPlanCache::get(
    const std::string& key) {
  std::lock_guard<std::mutex> lk(mu_);
  const auto it = map_.find(key);
  if (it == map_.end()) {
    ++misses_;
    SPARTA_COUNTER_ADD("plan.cache.misses", 1);
    return nullptr;
  }
  lru_.splice(lru_.begin(), lru_, it->second);
  ++hits_;
  SPARTA_COUNTER_ADD("plan.cache.hits", 1);
  return it->second->plan;
}

void NetworkPlanCache::put(const std::string& key,
                           std::shared_ptr<const NetworkPlan> plan) {
  std::lock_guard<std::mutex> lk(mu_);
  const auto it = map_.find(key);
  if (it != map_.end()) {
    it->second->plan = std::move(plan);
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  lru_.push_front(Entry{key, std::move(plan)});
  map_[key] = lru_.begin();
  while (map_.size() > capacity_) {
    map_.erase(lru_.back().key);
    lru_.pop_back();
  }
}

NetworkPlanCache::Stats NetworkPlanCache::stats() const {
  std::lock_guard<std::mutex> lk(mu_);
  return {hits_, misses_, map_.size()};
}

void NetworkPlanCache::clear() {
  std::lock_guard<std::mutex> lk(mu_);
  lru_.clear();
  map_.clear();
}

}  // namespace sparta::plan
