// Semi and anti joins across all match-finding machineries, against a host
// oracle, plus the partition identity semi ∪ anti == S.

#include <gtest/gtest.h>

#include <set>

#include "join/reference.h"
#include "join/semi.h"
#include "test_util.h"
#include "workload/generator.h"

namespace gpujoin {
namespace {

using join::JoinAlgo;
using join::SemiJoinType;
using testing::MakeTestDevice;

std::vector<std::vector<int64_t>> ReferenceSemiRows(const HostTable& r,
                                                    const HostTable& s,
                                                    bool anti) {
  std::set<int64_t> r_keys(r.columns[0].values.begin(),
                           r.columns[0].values.end());
  std::vector<std::vector<int64_t>> rows;
  for (uint64_t i = 0; i < s.num_rows(); ++i) {
    const bool has = r_keys.count(s.columns[0].values[i]) > 0;
    if (has != anti) {
      std::vector<int64_t> row;
      for (const HostColumn& c : s.columns) row.push_back(c.values[i]);
      rows.push_back(std::move(row));
    }
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

class SemiJoinTest : public ::testing::TestWithParam<JoinAlgo> {};

TEST_P(SemiJoinTest, SemiMatchesOracle) {
  workload::JoinWorkloadSpec spec;
  spec.r_rows = 2048;
  spec.s_rows = 6000;
  spec.s_payload_cols = 2;
  spec.match_ratio = 0.5;
  auto w = workload::GenerateJoinInput(spec).ValueOrDie();
  vgpu::Device device = MakeTestDevice();
  auto r = Table::FromHost(device, w.r).ValueOrDie();
  auto s = Table::FromHost(device, w.s).ValueOrDie();

  auto res = RunSemiJoin(device, GetParam(), r, s, SemiJoinType::kSemi);
  ASSERT_OK(res);
  EXPECT_EQ(join::CanonicalRows(res->output.ToHost()),
            ReferenceSemiRows(w.r, w.s, /*anti=*/false));
  EXPECT_GT(res->output_rows, 0u);
  EXPECT_LT(res->output_rows, spec.s_rows);
}

TEST_P(SemiJoinTest, AntiMatchesOracle) {
  workload::JoinWorkloadSpec spec;
  spec.r_rows = 2048;
  spec.s_rows = 6000;
  spec.s_payload_cols = 1;
  spec.match_ratio = 0.7;
  auto w = workload::GenerateJoinInput(spec).ValueOrDie();
  vgpu::Device device = MakeTestDevice();
  auto r = Table::FromHost(device, w.r).ValueOrDie();
  auto s = Table::FromHost(device, w.s).ValueOrDie();

  auto res = RunSemiJoin(device, GetParam(), r, s, SemiJoinType::kAnti);
  ASSERT_OK(res);
  EXPECT_EQ(join::CanonicalRows(res->output.ToHost()),
            ReferenceSemiRows(w.r, w.s, /*anti=*/true));
}

TEST_P(SemiJoinTest, SemiAndAntiPartitionS) {
  workload::JoinWorkloadSpec spec;
  spec.r_rows = 1024;
  spec.s_rows = 4096;
  spec.match_ratio = 0.33;
  auto w = workload::GenerateJoinInput(spec).ValueOrDie();
  vgpu::Device device = MakeTestDevice();
  auto r = Table::FromHost(device, w.r).ValueOrDie();
  auto s = Table::FromHost(device, w.s).ValueOrDie();

  auto semi = RunSemiJoin(device, GetParam(), r, s, SemiJoinType::kSemi);
  auto anti = RunSemiJoin(device, GetParam(), r, s, SemiJoinType::kAnti);
  ASSERT_OK(semi);
  ASSERT_OK(anti);
  EXPECT_EQ(semi->output_rows + anti->output_rows, spec.s_rows);
}

TEST_P(SemiJoinTest, DuplicateMatchesDoNotDuplicateOutput) {
  // M:N inner joins multiply rows; semi joins must not.
  vgpu::Device device = MakeTestDevice();
  HostTable r{"r", {{"k", DataType::kInt32, {1, 1, 1, 2}}}};
  HostTable s{"s", {{"k", DataType::kInt32, {1, 2, 3}},
                    {"p", DataType::kInt32, {10, 20, 30}}}};
  auto rd = Table::FromHost(device, r).ValueOrDie();
  auto sd = Table::FromHost(device, s).ValueOrDie();
  join::JoinOptions opts;
  opts.pk_fk = false;
  auto res = RunSemiJoin(device, GetParam(), rd, sd, SemiJoinType::kSemi, opts);
  ASSERT_OK(res);
  EXPECT_EQ(res->output_rows, 2u);  // Keys 1 and 2, each once.
}

TEST_P(SemiJoinTest, FlagScatterChargesTheIdLookup) {
  // The flag scatter reads each match's S position; every machinery but
  // NPHJ (which emits original positions) then reads the original row id
  // at that position, and that read is charged too.
  workload::JoinWorkloadSpec spec;
  spec.r_rows = 1024;
  spec.s_rows = 4096;
  spec.match_ratio = 0.5;
  auto w = workload::GenerateJoinInput(spec).ValueOrDie();
  std::multiset<int64_t> r_keys(w.r.columns[0].values.begin(),
                                w.r.columns[0].values.end());
  uint64_t matches = 0;
  for (int64_t k : w.s.columns[0].values) matches += r_keys.count(k);
  ASSERT_GT(matches, 0u);

  vgpu::Device device = MakeTestDevice();
  auto r = Table::FromHost(device, w.r).ValueOrDie();
  auto s = Table::FromHost(device, w.s).ValueOrDie();
  ASSERT_OK(RunSemiJoin(device, GetParam(), r, s, SemiJoinType::kSemi));
  const vgpu::KernelProfile p = device.profiler().ProfileFor("semi_flag_scatter");
  ASSERT_EQ(p.invocations, 1u);
  const uint64_t reads_per_match =
      GetParam() == JoinAlgo::kNphj ? 1 : 2;  // Position (+ row id).
  EXPECT_EQ(p.stats.bytes_read, reads_per_match * matches * sizeof(RowId));
}

INSTANTIATE_TEST_SUITE_P(AllAlgos, SemiJoinTest,
                         ::testing::ValuesIn(join::kAllJoinAlgos),
                         [](const ::testing::TestParamInfo<JoinAlgo>& i) {
                           std::string n = join::JoinAlgoName(i.param);
                           for (char& ch : n) {
                             if (ch == '-') ch = '_';
                           }
                           return n;
                         });

TEST(SemiJoinValidationTest, RejectsBadInputs) {
  vgpu::Device device = MakeTestDevice();
  HostTable r{"r", {{"k", DataType::kInt32, {1}}}};
  HostTable s64{"s", {{"k", DataType::kInt64, {1}}}};
  auto rd = Table::FromHost(device, r).ValueOrDie();
  auto sd = Table::FromHost(device, s64).ValueOrDie();
  EXPECT_FALSE(
      RunSemiJoin(device, JoinAlgo::kPhjOm, rd, sd, SemiJoinType::kSemi).ok());
}

}  // namespace
}  // namespace gpujoin
