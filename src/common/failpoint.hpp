// Deterministic fault injection (failpoints).
//
// A failpoint is a named site in the library where tests and the fuzz
// harness can force an exception — std::bad_alloc, sparta::Error or
// sparta::BudgetExceeded — without patching the code under test. Sites
// are compiled in unconditionally but cost a single relaxed atomic load
// when nothing is armed, so production paths pay nothing measurable.
//
// Arming a site, programmatically:
//
//   failpoint::arm("contract.accumulate",
//                  {failpoint::Action::kBadAlloc, /*fire_on=*/1,
//                   /*times=*/1});
//   ... run the code under test ...
//   failpoint::disarm_all();
//
// or from the environment (picked up once at program start):
//
//   SPARTA_FAILPOINTS="contract.search=bad_alloc@2;plan.build=error"
//
// Spec grammar, per site, separated by ';':
//   site=action[@N][xM]
//     action  bad_alloc | error | budget
//     @N      fire on the Nth hit of the site (default 1)
//     xM      fire at most M times, then stay silent (default 1;
//             x* = every qualifying hit)
#pragma once

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <mutex>
#include <new>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/error.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace sparta::failpoint {

enum class Action : int {
  kBadAlloc = 0,  ///< throw std::bad_alloc (allocation failure)
  kError = 1,     ///< throw sparta::Error
  kBudget = 2,    ///< throw sparta::BudgetExceeded
};

struct Spec {
  Action action = Action::kBadAlloc;
  std::uint64_t fire_on = 1;  ///< 1-based hit index that first fires
  std::uint64_t times = 1;    ///< max firings; 0 = unlimited
};

/// The failpoint sites compiled into the contraction engine. Tests and
/// the fault-injection fuzzer iterate this list; keep it in sync with
/// the SPARTA_FAILPOINT call sites.
inline constexpr const char* kContractSites[] = {
    "contract.input",       // stage ① input processing, and per
                            // 4 096-row block of its key passes
    "contract.search",      // stage ② inside the parallel region,
                            // once per chunk of X sub-tensors
    "contract.accumulate",  // stage ③, once per chunk
    "contract.writeback",   // stage ④'s per-chunk step
    "contract.sort",        // stage ⑤, once per chunk
    "plan.build",           // HtY construction (YPlan), and per
                            // 4 096-row block of its key pass
    "budget.charge",        // AllocationRegistry::on_allocate
};

namespace detail {

struct Site {
  Spec spec;
  std::uint64_t hits = 0;
  std::uint64_t fired = 0;
};

struct Registry {
  std::mutex mu;
  std::unordered_map<std::string, Site> sites;
};

inline Registry& registry() {
  static Registry r;
  return r;
}

inline std::atomic<bool>& enabled_flag() {
  static std::atomic<bool> e{false};
  return e;
}

// Slow path: only reached when at least one site is armed anywhere.
inline void hit(const char* name) {
  Registry& r = registry();
  Action action{};
  std::string site_name;
  {
    std::lock_guard<std::mutex> lk(r.mu);
    auto it = r.sites.find(name);
    if (it == r.sites.end()) return;
    Site& s = it->second;
    ++s.hits;
    if (s.hits < s.spec.fire_on) return;
    if (s.spec.times != 0 && s.fired >= s.spec.times) return;
    ++s.fired;
    action = s.spec.action;
    site_name = it->first;
  }
  SPARTA_COUNTER_ADD("failpoint.fired", 1);
  if (obs::trace_enabled() || obs::flight_enabled()) {
    obs::trace_instant("failpoint:" + site_name);
  }
  switch (action) {
    case Action::kBadAlloc:
      throw std::bad_alloc{};
    case Action::kError:
      throw Error("failpoint '" + site_name + "' injected sparta::Error");
    case Action::kBudget:
      throw BudgetExceeded(
          "failpoint '" + site_name + "' injected BudgetExceeded",
          /*requested_bytes=*/1, /*limit_bytes=*/0, /*live_bytes=*/0);
  }
}

}  // namespace detail

/// The site check. Zero work when no failpoint is armed process-wide.
inline void evaluate(const char* name) {
  if (detail::enabled_flag().load(std::memory_order_relaxed)) {
    detail::hit(name);
  }
}

/// Arms (or re-arms) `name`, resetting its hit/fired counters.
inline void arm(const std::string& name, Spec spec) {
  detail::Registry& r = detail::registry();
  std::lock_guard<std::mutex> lk(r.mu);
  r.sites[name] = detail::Site{spec, 0, 0};
  detail::enabled_flag().store(true, std::memory_order_relaxed);
}

inline void disarm(const std::string& name) {
  detail::Registry& r = detail::registry();
  std::lock_guard<std::mutex> lk(r.mu);
  r.sites.erase(name);
  if (r.sites.empty()) {
    detail::enabled_flag().store(false, std::memory_order_relaxed);
  }
}

inline void disarm_all() {
  detail::Registry& r = detail::registry();
  std::lock_guard<std::mutex> lk(r.mu);
  r.sites.clear();
  detail::enabled_flag().store(false, std::memory_order_relaxed);
}

/// Times `name` was evaluated while armed (armed sites only).
[[nodiscard]] inline std::uint64_t hit_count(const std::string& name) {
  detail::Registry& r = detail::registry();
  std::lock_guard<std::mutex> lk(r.mu);
  const auto it = r.sites.find(name);
  return it == r.sites.end() ? 0 : it->second.hits;
}

/// Times `name` actually fired (threw) so far.
[[nodiscard]] inline std::uint64_t fire_count(const std::string& name) {
  detail::Registry& r = detail::registry();
  std::lock_guard<std::mutex> lk(r.mu);
  const auto it = r.sites.find(name);
  return it == r.sites.end() ? 0 : it->second.fired;
}

/// Parses and arms a `site=action[@N][xM];...` spec (the SPARTA_FAILPOINTS
/// grammar). Returns false (arming nothing further) on a malformed spec,
/// with a diagnostic in `*err` when provided.
inline bool arm_from_spec(const std::string& spec, std::string* err = nullptr) {
  auto fail = [&](const std::string& why) {
    if (err) *err = why;
    return false;
  };
  std::size_t pos = 0;
  while (pos < spec.size()) {
    std::size_t end = spec.find(';', pos);
    if (end == std::string::npos) end = spec.size();
    const std::string entry = spec.substr(pos, end - pos);
    pos = end + 1;
    if (entry.empty()) continue;

    const std::size_t eq = entry.find('=');
    if (eq == std::string::npos || eq == 0) {
      return fail("failpoint entry '" + entry + "' lacks 'site=action'");
    }
    const std::string site = entry.substr(0, eq);
    std::string rest = entry.substr(eq + 1);

    Spec s;
    // Optional xM / x* suffix.
    const std::size_t xpos = rest.find('x');
    if (xpos != std::string::npos) {
      const std::string m = rest.substr(xpos + 1);
      if (m == "*") {
        s.times = 0;
      } else {
        char* endp = nullptr;
        s.times = std::strtoull(m.c_str(), &endp, 10);
        if (!endp || *endp != '\0' || s.times == 0) {
          return fail("bad repeat count in '" + entry + "'");
        }
      }
      rest = rest.substr(0, xpos);
    }
    // Optional @N suffix.
    const std::size_t at = rest.find('@');
    if (at != std::string::npos) {
      const std::string n = rest.substr(at + 1);
      char* endp = nullptr;
      s.fire_on = std::strtoull(n.c_str(), &endp, 10);
      if (!endp || *endp != '\0' || s.fire_on == 0) {
        return fail("bad hit index in '" + entry + "'");
      }
      rest = rest.substr(0, at);
    }
    if (rest == "bad_alloc") {
      s.action = Action::kBadAlloc;
    } else if (rest == "error") {
      s.action = Action::kError;
    } else if (rest == "budget") {
      s.action = Action::kBudget;
    } else {
      return fail("unknown failpoint action '" + rest + "' in '" + entry +
                  "'");
    }
    arm(site, s);
  }
  return true;
}

namespace detail {

// Arms SPARTA_FAILPOINTS once per process, before main() runs. Malformed
// specs are ignored (a test binary must not abort on a typo in the
// operator's environment); programmatic arm_from_spec reports errors.
inline const bool g_env_armed = [] {
  if (const char* env = std::getenv("SPARTA_FAILPOINTS")) {
    arm_from_spec(env);
  }
  return true;
}();

}  // namespace detail

}  // namespace sparta::failpoint

/// Marks an injection site. `name` must be a string literal; see
/// failpoint::kContractSites for the engine's sites.
#define SPARTA_FAILPOINT(name) ::sparta::failpoint::evaluate(name)
