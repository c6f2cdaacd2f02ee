// Cardinality / selectivity estimators, the group-by planner that consumes
// them, and the per-kernel profiler.

#include <gtest/gtest.h>

#include <random>

#include "groupby/planner.h"
#include "prim/gather.h"
#include "stats/estimator.h"
#include "test_util.h"
#include "workload/generator.h"

namespace gpujoin {
namespace {

using testing::MakeTestDevice;

class DistinctEstimateTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DistinctEstimateTest, WithinHllErrorBounds) {
  const uint64_t distinct = GetParam();
  vgpu::Device device = MakeTestDevice();
  workload::GroupByWorkloadSpec spec;
  spec.rows = 1 << 16;
  spec.num_groups = distinct;
  auto host = workload::GenerateGroupByInput(spec).ValueOrDie();
  auto t = Table::FromHost(device, host).ValueOrDie();

  // True distinct (some groups may be missed by the draw at high counts).
  std::set<int64_t> truth(host.columns[0].values.begin(),
                          host.columns[0].values.end());
  auto est = stats::EstimateKeyStats(device, t.column(0));
  ASSERT_OK(est);
  const double error = std::abs(static_cast<double>(est->distinct) -
                                static_cast<double>(truth.size())) /
                       static_cast<double>(truth.size());
  EXPECT_LT(error, 0.10) << "estimate " << est->distinct << " vs truth "
                         << truth.size();
  // The same scan reports the exact key range.
  EXPECT_EQ(est->min, *truth.begin());
  EXPECT_EQ(est->max, *truth.rbegin());
}

INSTANTIATE_TEST_SUITE_P(Cardinalities, DistinctEstimateTest,
                         ::testing::Values(16, 1024, 65536 / 2));

TEST(DistinctEstimateTest, RejectsBadPrecision) {
  vgpu::Device device = MakeTestDevice();
  auto col =
      DeviceColumn::FromHost(device, DataType::kInt32, {{1, 2, 3}}).ValueOrDie();
  EXPECT_FALSE(stats::EstimateKeyStats(device, col, 2).ok());
  EXPECT_FALSE(stats::EstimateKeyStats(device, col, 30).ok());
}

TEST(MatchRatioEstimateTest, TracksTrueRatio) {
  vgpu::Device device = MakeTestDevice();
  for (double ratio : {1.0, 0.5, 0.1}) {
    workload::JoinWorkloadSpec spec;
    spec.r_rows = 1 << 13;
    spec.s_rows = 1 << 15;
    spec.match_ratio = ratio;
    auto w = workload::GenerateJoinInput(spec).ValueOrDie();
    auto r = Table::FromHost(device, w.r).ValueOrDie();
    auto s = Table::FromHost(device, w.s).ValueOrDie();
    auto est =
        stats::EstimateMatchRatio(device, r.column(0), s.column(0), 2048);
    ASSERT_OK(est);
    EXPECT_NEAR(*est, ratio, 0.05) << "at ratio " << ratio;
  }
}

TEST(GroupByPlannerTest, SmallCardinalityPicksGlobalHash) {
  vgpu::Device device(vgpu::DeviceConfig::A100());
  groupby::GroupByFeatures f;
  f.rows = 1 << 24;
  f.estimated_groups = 1024;
  EXPECT_EQ(ChooseGroupByAlgo(device, f), groupby::GroupByAlgo::kHashGlobal);
}

TEST(GroupByPlannerTest, LargeCardinalityPicksPartitioned) {
  vgpu::Device device(vgpu::DeviceConfig::A100());
  groupby::GroupByFeatures f;
  f.rows = 1 << 24;
  f.estimated_groups = 1 << 22;  // Table far beyond 40 MB L2.
  EXPECT_EQ(ChooseGroupByAlgo(device, f),
            groupby::GroupByAlgo::kHashPartitioned);
}

TEST(GroupByPlannerTest, SkewPicksPartitioned) {
  vgpu::Device device(vgpu::DeviceConfig::A100());
  groupby::GroupByFeatures f;
  f.rows = 1 << 20;
  f.estimated_groups = 64;  // Would be global-hash...
  f.zipf_theta = 1.5;       // ...but hot-group atomics serialize.
  EXPECT_EQ(ChooseGroupByAlgo(device, f),
            groupby::GroupByAlgo::kHashPartitioned);
  EXPECT_NE(ExplainGroupByChoice(device, f).find("GB-HASH-PART"),
            std::string::npos);
}

TEST(GroupByPlannerTest, PricesTheGlobalTableThatWillRun) {
  vgpu::Device device(vgpu::DeviceConfig::A100());
  groupby::GroupByFeatures f;
  f.rows = 1 << 24;
  f.estimated_groups = 1 << 19;  // Hashed table: 2^19 x 48 B x 2 > L2 / 2.
  EXPECT_EQ(ChooseGroupByAlgo(device, f),
            groupby::GroupByAlgo::kHashPartitioned);
  EXPECT_NE(ExplainGroupByChoice(device, f).find("global=hashed("),
            std::string::npos);

  // A dense range of 2^19 keys direct-maps: 2^19 x 16 B of accumulators,
  // no key array, no load-factor headroom. It fits the L2.
  f.key_min = -(1 << 18);
  f.key_max = (1 << 18) - 1;
  EXPECT_EQ(ChooseGroupByAlgo(device, f), groupby::GroupByAlgo::kHashGlobal);
  const std::string direct = ExplainGroupByChoice(device, f);
  EXPECT_NE(direct.find("global=direct(" + std::to_string((1 << 19) * 16) +
                        "B)"),
            std::string::npos)
      << direct;

  // A range wider than the hashed table's slots prices the hashed table.
  f.key_max = int64_t{1} << 40;
  EXPECT_EQ(ChooseGroupByAlgo(device, f),
            groupby::GroupByAlgo::kHashPartitioned);
  EXPECT_NE(ExplainGroupByChoice(device, f).find("global=hashed("),
            std::string::npos);
}

TEST(ProfilerTest, AggregatesPerKernelName) {
  vgpu::Device device = MakeTestDevice();
  auto buf = vgpu::DeviceBuffer<int32_t>::Allocate(device, 4096).ValueOrDie();
  for (int i = 0; i < 3; ++i) {
    vgpu::KernelScope ks(device, "my_scan");
    device.LoadSeq(buf.addr(), 4096, 4);
  }
  {
    vgpu::KernelScope ks(device, "my_other");
    device.LoadSeq(buf.addr(), 64, 4);
  }
  const auto scan = device.profiler().ProfileFor("my_scan");
  EXPECT_EQ(scan.invocations, 3u);
  EXPECT_EQ(scan.stats.bytes_read, 3u * 4096 * 4);
  EXPECT_EQ(device.profiler().ProfileFor("nonexistent").invocations, 0u);

  // Report lists kernels, sorted by cycles: my_scan dominates.
  const std::string report = device.profiler().Report();
  EXPECT_NE(report.find("my_scan"), std::string::npos);
  EXPECT_NE(report.find("my_other"), std::string::npos);
  EXPECT_LT(report.find("my_scan"), report.find("my_other"));

  device.profiler().Clear();
  EXPECT_TRUE(device.profiler().empty());
}

TEST(ProfilerTest, ReportWithMemoryAppendsMemoryLine) {
  vgpu::Device device = MakeTestDevice();
  auto buf = vgpu::DeviceBuffer<int32_t>::Allocate(device, 4096).ValueOrDie();
  {
    vgpu::KernelScope ks(device, "my_scan");
    device.LoadSeq(buf.addr(), 4096, 4);
  }
  const std::string report = device.profiler().Report(device.memory_stats());
  EXPECT_NE(report.find("my_scan"), std::string::npos);
  EXPECT_NE(report.find("memory: "), std::string::npos);
  // The memory line carries the MemoryStats counters verbatim.
  EXPECT_NE(report.find(device.memory_stats().ToString()), std::string::npos);
}

TEST(ProfilerTest, JoinProducesExpectedKernels) {
  vgpu::Device device = MakeTestDevice();
  workload::JoinWorkloadSpec spec;
  spec.r_rows = 2048;
  spec.s_rows = 4096;
  spec.r_payload_cols = 2;
  spec.s_payload_cols = 2;
  auto w = workload::GenerateJoinInput(spec).ValueOrDie();
  auto r = Table::FromHost(device, w.r).ValueOrDie();
  auto s = Table::FromHost(device, w.s).ValueOrDie();
  device.profiler().Clear();
  GPUJOIN_CHECK_OK(RunJoin(device, join::JoinAlgo::kPhjOm, r, s).status());
  EXPECT_GT(device.profiler().ProfileFor("radix_scatter").invocations, 0u);
  EXPECT_GT(device.profiler().ProfileFor("phj_probe_count").invocations, 0u);
  EXPECT_GT(device.profiler().ProfileFor("gather").invocations, 0u);
}

}  // namespace
}  // namespace gpujoin
