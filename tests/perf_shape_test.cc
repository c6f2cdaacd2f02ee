// Regression tests for the qualitative performance claims the reproduction
// stands on. These assert *orderings and factors*, not absolute numbers, at
// a scale (2^18) where the memory-system effects are active. If a cost-model
// change silently breaks a paper-level conclusion, these fail.

#include <gtest/gtest.h>

#include "groupby/groupby.h"
#include "join/join.h"
#include "test_util.h"
#include "workload/generator.h"

namespace gpujoin {
namespace {

using join::JoinAlgo;

constexpr uint64_t kN = uint64_t{1} << 18;

vgpu::Device MakeShapeDevice() {
  return vgpu::Device(
      vgpu::DeviceConfig::ScaledToWorkload(vgpu::DeviceConfig::A100(), kN));
}

double TotalSeconds(vgpu::Device& device, JoinAlgo algo,
                    const workload::JoinWorkload& w) {
  auto r = Table::FromHost(device, w.r).ValueOrDie();
  auto s = Table::FromHost(device, w.s).ValueOrDie();
  device.FlushL2();
  return RunJoin(device, algo, r, s).ValueOrDie().phases.total_s();
}

join::PhaseBreakdown Phases(vgpu::Device& device, JoinAlgo algo,
                            const workload::JoinWorkload& w) {
  auto r = Table::FromHost(device, w.r).ValueOrDie();
  auto s = Table::FromHost(device, w.s).ValueOrDie();
  device.FlushL2();
  return RunJoin(device, algo, r, s).ValueOrDie().phases;
}

workload::JoinWorkload Wide(double match = 1.0, double zipf = 0.0) {
  workload::JoinWorkloadSpec spec;
  spec.r_rows = kN;
  spec.s_rows = 2 * kN;
  spec.r_payload_cols = 2;
  spec.s_payload_cols = 2;
  spec.match_ratio = match;
  spec.zipf_theta = zipf;
  return workload::GenerateJoinInput(spec).ValueOrDie();
}

TEST(PerfShapeTest, Figure1MaterializationDominatesGfur) {
  vgpu::Device device = MakeShapeDevice();
  const auto w = Wide();
  const auto um = Phases(device, JoinAlgo::kPhjUm, w);
  // Materialization is the single largest phase for GFUR on wide joins.
  EXPECT_GT(um.materialize_s, um.transform_s);
  EXPECT_GT(um.materialize_s, um.match_s);
  EXPECT_GT(um.materialize_s / um.total_s(), 0.4);
}

TEST(PerfShapeTest, Figure10GftrBeatsGfurOnWideJoins) {
  vgpu::Device device = MakeShapeDevice();
  const auto w = Wide();
  const double smj_um = TotalSeconds(device, JoinAlgo::kSmjUm, w);
  const double smj_om = TotalSeconds(device, JoinAlgo::kSmjOm, w);
  const double phj_um = TotalSeconds(device, JoinAlgo::kPhjUm, w);
  const double phj_om = TotalSeconds(device, JoinAlgo::kPhjOm, w);
  const double nphj = TotalSeconds(device, JoinAlgo::kNphj, w);
  EXPECT_LT(smj_om, smj_um);            // Paper: ~1.6x.
  EXPECT_LT(phj_om, phj_um);            // Paper: ~2.3x.
  EXPECT_LT(phj_om, smj_om);            // Paper: ~1.4x.
  EXPECT_GT(phj_um / phj_om, 1.3);      // A real factor, not noise.
  EXPECT_LT(phj_om, nphj);              // PHJ-OM beats the cuDF baseline.
}

TEST(PerfShapeTest, Figure13LowMatchRatioFavorsGfur) {
  vgpu::Device device = MakeShapeDevice();
  const auto w = Wide(/*match=*/0.03);
  const double phj_um = TotalSeconds(device, JoinAlgo::kPhjUm, w);
  const double phj_om = TotalSeconds(device, JoinAlgo::kPhjOm, w);
  const double smj_um = TotalSeconds(device, JoinAlgo::kSmjUm, w);
  const double smj_om = TotalSeconds(device, JoinAlgo::kSmjOm, w);
  EXPECT_LE(phj_um, phj_om * 1.05);  // GFUR at least on par...
  EXPECT_LT(smj_um, smj_om);         // ...and clearly ahead for SMJ.
}

TEST(PerfShapeTest, Figure14SkewCollapsesBucketChaining) {
  vgpu::Device device = MakeShapeDevice();
  const auto uniform = Wide(1.0, 0.0);
  const auto skewed = Wide(1.0, 1.5);
  const double um_uniform = Phases(device, JoinAlgo::kPhjUm, uniform).transform_s;
  const double um_skewed = Phases(device, JoinAlgo::kPhjUm, skewed).transform_s;
  const double om_uniform = Phases(device, JoinAlgo::kPhjOm, uniform).transform_s;
  const double om_skewed = Phases(device, JoinAlgo::kPhjOm, skewed).transform_s;
  EXPECT_GT(um_skewed / um_uniform, 3.0);   // Bucket chains collapse.
  EXPECT_LT(om_skewed / om_uniform, 1.5);   // RADIX-PARTITION barely moves.
  // And PHJ-OM is the best overall under skew.
  EXPECT_LT(TotalSeconds(device, JoinAlgo::kPhjOm, skewed),
            TotalSeconds(device, JoinAlgo::kPhjUm, skewed));
}

TEST(PerfShapeTest, Figure9NarrowJoinsNeedNoMaterialization) {
  vgpu::Device device = MakeShapeDevice();
  workload::JoinWorkloadSpec spec;
  spec.r_rows = kN;
  spec.s_rows = 2 * kN;
  const auto w = workload::GenerateJoinInput(spec).ValueOrDie();
  for (JoinAlgo algo : {JoinAlgo::kSmjUm, JoinAlgo::kSmjOm, JoinAlgo::kPhjUm,
                        JoinAlgo::kPhjOm}) {
    const auto p = Phases(device, algo, w);
    EXPECT_DOUBLE_EQ(p.materialize_s, 0.0) << join::JoinAlgoName(algo);
  }
}

TEST(PerfShapeTest, TransformCostPartitioningBeatsSorting) {
  // §4.3: partitioning needs 2 RADIX-PARTITION invocations per column,
  // sorting needs 4 — so the PHJ transforms should be roughly half the SMJ
  // transforms.
  vgpu::Device device = MakeShapeDevice();
  const auto w = Wide();
  const double smj_t = Phases(device, JoinAlgo::kSmjOm, w).transform_s;
  const double phj_t = Phases(device, JoinAlgo::kPhjOm, w).transform_s;
  EXPECT_LT(phj_t, smj_t);
  EXPECT_NEAR(smj_t / phj_t, 2.0, 0.8);
}

TEST(PerfShapeTest, GroupByCardinalityCrossover) {
  vgpu::Device device = MakeShapeDevice();
  groupby::GroupBySpec gs;
  gs.aggregates = {{1, groupby::AggOp::kSum}};
  // `stride` spreads the dense generator keys over stride x the range; an
  // odd stride keeps their low bits (the partition digits) uniform.
  auto run = [&](uint64_t groups, groupby::GroupByAlgo algo, int64_t stride) {
    workload::GroupByWorkloadSpec spec;
    spec.rows = kN;
    spec.num_groups = groups;
    auto host = workload::GenerateGroupByInput(spec).ValueOrDie();
    for (int64_t& k : host.columns[0].values) k *= stride;
    auto t = Table::FromHost(device, host).ValueOrDie();
    device.FlushL2();
    return RunGroupBy(device, algo, t, gs).ValueOrDie().phases.total_s();
  };
  // Low cardinality: the global table is cache-resident and competitive.
  // High cardinality: the partitioned variant wins decisively over the
  // hashed global table (sparse keys: the range exceeds the table's slots).
  constexpr int64_t kSparse = 1023;
  const double hash_hi = run(kN / 2, groupby::GroupByAlgo::kHashGlobal, kSparse);
  const double part_hi =
      run(kN / 2, groupby::GroupByAlgo::kHashPartitioned, kSparse);
  EXPECT_LT(part_hi * 2, hash_hi);
  const double hash_lo = run(64, groupby::GroupByAlgo::kHashGlobal, 1);
  const double part_lo = run(64, groupby::GroupByAlgo::kHashPartitioned, 1);
  EXPECT_LT(hash_lo, part_lo * 2);  // No collapse at low cardinality.
  // Dense keys direct-map the global table: no key array, no probes. It
  // beats the hashed table at the same cardinality, and partitioning
  // still wins at high cardinality.
  const double direct_hi = run(kN / 2, groupby::GroupByAlgo::kHashGlobal, 1);
  const double part_dense_hi =
      run(kN / 2, groupby::GroupByAlgo::kHashPartitioned, 1);
  EXPECT_LT(direct_hi * 1.5, hash_hi);
  EXPECT_LT(part_dense_hi, direct_hi);
}

}  // namespace
}  // namespace gpujoin
