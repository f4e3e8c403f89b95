// Tests for ContractStats::check() — the cross-counter invariants every
// contraction must satisfy — and for the engine's absorption of those
// counters into the global metrics registry.
#include <gtest/gtest.h>

#include <string>

#include "common/error.hpp"
#include "contraction/contract.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "tensor/generators.hpp"

namespace sparta {
namespace {

constexpr Algorithm kAll[] = {Algorithm::kSpa, Algorithm::kCooHta,
                              Algorithm::kSparta, Algorithm::kCooBinary};

SparseTensor random_tensor(std::vector<index_t> dims, std::size_t nnz,
                           std::uint64_t seed) {
  GeneratorSpec spec;
  spec.dims = std::move(dims);
  spec.nnz = nnz;
  spec.seed = seed;
  return generate_random(spec);
}

TEST(StatsCheck, HoldsAfterEveryAlgorithm) {
  const SparseTensor x = random_tensor({20, 16, 12}, 300, 1);
  const SparseTensor y = random_tensor({16, 12, 24}, 280, 2);
  for (Algorithm alg : kAll) {
    ContractOptions o;
    o.algorithm = alg;
    const ContractResult r = contract(x, y, {1, 2}, {0, 1}, o);
    SCOPED_TRACE(algorithm_name(alg));
    EXPECT_NO_THROW(r.stats.check(&r.stage_times));
    EXPECT_GT(r.stats.searches, 0u);
    EXPECT_TRUE(obs::json_valid(r.stats.to_json())) << r.stats.to_json();
    EXPECT_TRUE(obs::json_valid(r.stage_times.to_json()))
        << r.stage_times.to_json();
  }
}

TEST(StatsCheck, HoldsOnEmptyResult) {
  // Disjoint contraction indices: zero hits, zero output.
  SparseTensor x({4, 4});
  x.append(std::vector<index_t>{0, 0}, 1.0);
  SparseTensor y({4, 4});
  y.append(std::vector<index_t>{3, 3}, 1.0);
  for (Algorithm alg : kAll) {
    ContractOptions o;
    o.algorithm = alg;
    const ContractResult r = contract(x, y, {1}, {0}, o);
    SCOPED_TRACE(algorithm_name(alg));
    EXPECT_EQ(r.z.nnz(), 0u);
    EXPECT_NO_THROW(r.stats.check(&r.stage_times));
  }
}

TEST(StatsCheck, RejectsImpossibleCounters) {
  ContractStats s;
  s.searches = 5;
  s.hits = 6;  // more hits than probes
  EXPECT_THROW(s.check(), Error);

  s = ContractStats();
  s.multiplies = 3;
  s.nnz_z = 4;  // output non-zeros without a producing multiply
  EXPECT_THROW(s.check(), Error);

  s = ContractStats();
  s.nnz_x = 10;
  s.num_x_subtensors = 11;
  EXPECT_THROW(s.check(), Error);

  s = ContractStats();
  s.nnz_y = 10;
  s.max_y_group = 11;
  EXPECT_THROW(s.check(), Error);
}

TEST(StatsCheck, RejectsBrokenStageFractions) {
  ContractStats s;
  StageTimes t;
  t[Stage::kAccumulation] = 1.0;
  EXPECT_NO_THROW(s.check(&t));  // fractions of a real StageTimes sum to 1
  // A default StageTimes (total 0) must not divide by zero.
  StageTimes zero;
  EXPECT_NO_THROW(s.check(&zero));
}

TEST(StatsCheck, EngineAbsorbsCountersIntoRegistry) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
  reg.reset();
  reg.enable();
  const SparseTensor x = random_tensor({16, 16}, 120, 3);
  const SparseTensor y = random_tensor({16, 16}, 120, 4);
  ContractOptions o;
  o.algorithm = Algorithm::kSparta;
  const ContractResult r = contract(x, y, {1}, {0}, o);
  reg.disable();

  EXPECT_EQ(reg.counter_value("contract.calls"), 1u);
  EXPECT_EQ(reg.counter_value("contract.searches"), r.stats.searches);
  EXPECT_EQ(reg.counter_value("contract.hits"), r.stats.hits);
  EXPECT_EQ(reg.counter_value("contract.multiplies"), r.stats.multiplies);
  EXPECT_EQ(reg.counter_value("contract.nnz_z"), r.stats.nnz_z);
  // HtY build + HtA probes are live when metrics are on, under the
  // paper-object names; the tables emit no second set.
  EXPECT_GT(reg.counter_value("hty.inserts"), 0u);
  EXPECT_GT(reg.counter_value("hty.probes"), 0u);
  EXPECT_GT(reg.counter_value("hta.accumulates"), 0u);
  EXPECT_EQ(reg.counter_value("simd.swiss_hty.probes"), 0u);
  EXPECT_EQ(reg.counter_value("simd.swiss_hta.accumulates"), 0u);
  // The whole export (counters + attached stage/stat sections) parses.
  EXPECT_TRUE(obs::json_valid(reg.to_json())) << reg.to_json();
  reg.reset();
}

TEST(StatsCheck, TracedContractionEmitsAllFiveStageSpans) {
  obs::TraceRecorder& rec = obs::TraceRecorder::global();
  rec.clear();
  const SparseTensor x = random_tensor({16, 16}, 120, 5);
  const SparseTensor y = random_tensor({16, 16}, 120, 6);
  ContractOptions o;
  o.algorithm = Algorithm::kSparta;
  o.trace = true;  // enables the global recorder for this run
  const ContractResult r = contract(x, y, {1}, {0}, o);
  rec.disable();
  (void)r;

  bool saw[kNumStages] = {};
  bool saw_subphase = false, saw_counter = false;
  for (const obs::TraceEvent& e : rec.snapshot()) {
    for (int i = 0; i < kNumStages; ++i) {
      if (e.phase == 'X' && e.name == stage_name(static_cast<Stage>(i))) {
        saw[i] = true;
      }
    }
    if (e.phase == 'X' &&
        (e.name == "build_hty" || e.name == "permute_sort_x" ||
         e.name == "gather")) {
      saw_subphase = true;
    }
    if (e.phase == 'C') saw_counter = true;
  }
  for (int i = 0; i < kNumStages; ++i) {
    EXPECT_TRUE(saw[i]) << "missing span: "
                        << stage_name(static_cast<Stage>(i));
  }
  EXPECT_TRUE(saw_subphase);
  EXPECT_TRUE(saw_counter);
  EXPECT_TRUE(obs::json_valid(rec.to_json()));
  rec.clear();
}

}  // namespace
}  // namespace sparta
