// Heterogeneous-memory scenario: plan the DRAM/PMM placement for an
// SpTC the way Sparta does (§4.2) — estimate object sizes *before*
// allocation with Eq. 5/6, fill DRAM by priority, then compare the plan
// against application-agnostic policies on the cost model.
#include <cstdio>
#include <string>

#include "common/format.hpp"
#include "contraction/contract.hpp"
#include "contraction/estimators.hpp"
#include "memsim/cost_model.hpp"
#include "simd/swiss_table.hpp"
#include "tensor/datasets.hpp"

int main() {
  using namespace sparta;

  const SpTCCase c = make_sptc_case("vast", 2, 1.0);
  std::printf("workload: %s\n  X %s\n  Y %s\n\n", c.label.c_str(),
              c.x.summary().c_str(), c.y.summary().c_str());

  // --- placement-time estimates (before any allocation) ---------------
  const std::size_t slots = simd::detail::swiss_slots_for(c.y.nnz());
  const std::size_t hty_est =
      estimate_hty_bytes(c.y.nnz(), c.y.order(), slots);
  std::printf("Eq. 5 estimate of HtY: %s (nnzY=%zu, slots=%zu)\n",
              format_bytes(hty_est).c_str(), c.y.nnz(), slots);

  // --- instrumented run ------------------------------------------------
  ContractOptions o;
  o.algorithm = Algorithm::kSparta;
  o.collect_access_profile = true;
  const ContractResult res = contract(c.x, c.y, c.cx, c.cy, o);
  const AccessProfile& p = res.profile;

  const std::size_t hta_bound = estimate_hta_bytes(
      res.stats.max_x_subtensor, res.stats.max_y_group,
      /*num_free_y=*/c.y.order() - static_cast<int>(c.cy.size()), 1024);
  std::printf("Eq. 6 bound on per-thread HtA: %s (measured %s)\n",
              format_bytes(hta_bound).c_str(),
              format_bytes(res.stats.hta_bytes).c_str());
  std::printf("measured HtY: %s (estimate was %s)\n\n",
              format_bytes(res.stats.hty_bytes).c_str(),
              format_bytes(hty_est).c_str());

  // --- the Sparta placement under DRAM pressure -----------------------
  MemoryParams params;
  params.dram_capacity_bytes = p.total_footprint() / 3;
  std::printf("DRAM budget: %s of %s total footprint\n",
              format_bytes(params.dram_capacity_bytes).c_str(),
              format_bytes(p.total_footprint()).c_str());

  const Placement plan = sparta_placement(p.footprint_bytes, params);
  std::printf("\nplacement plan (priority HtY > HtA > Z_local > Z; X,Y on "
              "PMM):\n");
  for (DataObject obj : kAllDataObjects) {
    const double f = plan.dram(obj);
    std::printf("  %-8s %-9s %5.1f%% in DRAM\n",
                std::string(data_object_name(obj)).c_str(),
                format_bytes(p.footprint(obj)).c_str(), 100 * f);
  }

  // --- compare against the application-agnostic policies --------------
  struct Row {
    std::string name;
    double secs;
  };
  const Row rows[] = {
      {"DRAM-only",
       simulate_static(p, params, Placement::all(Tier::kDram))
           .total_seconds()},
      {"Sparta plan", simulate_static(p, params, plan).total_seconds()},
      {"Memory mode", simulate_memory_mode(p, params).total_seconds()},
      {"IAL", simulate_ial(p, params).total_seconds()},
      {"PMM-only",
       simulate_static(p, params, Placement::all(Tier::kPmm))
           .total_seconds()},
  };
  std::printf("\nestimated run time under each policy:\n");
  for (const Row& r : rows) {
    std::printf("  %-12s %s\n", r.name.c_str(),
                format_seconds(r.secs).c_str());
  }
  return 0;
}
