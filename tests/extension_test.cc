// Extensions: fused join + aggregation, composite-key packing, and the
// out-of-core join.

#include <gtest/gtest.h>

#include <map>
#include <random>

#include "join/join_aggregate.h"
#include "join/out_of_core.h"
#include "join/reference.h"
#include "storage/key_pack.h"
#include "test_util.h"
#include "workload/generator.h"

namespace gpujoin {
namespace {

using join::JoinAggregateSpec;
using join::JoinAlgo;
using join::JoinColumnRef;
using testing::MakeTestDevice;

// ---------------------------------------------------------------------------
// Fused join + aggregation.
// ---------------------------------------------------------------------------

TEST(JoinAggregateTest, MatchesJoinThenGroupBy) {
  // SELECT r.grp, SUM(s.measure), COUNT(*) FROM r JOIN s GROUP BY r.grp.
  vgpu::Device device = MakeTestDevice();
  std::mt19937_64 rng(9);
  HostTable r{"r", {{"k", DataType::kInt32, {}},
                    {"grp", DataType::kInt32, {}},
                    {"unused1", DataType::kInt64, {}},
                    {"unused2", DataType::kInt64, {}}}};
  HostTable s{"s", {{"k", DataType::kInt32, {}},
                    {"measure", DataType::kInt32, {}},
                    {"unused3", DataType::kInt64, {}}}};
  const uint64_t kR = 2048, kS = 8192;
  for (uint64_t i = 0; i < kR; ++i) {
    r.columns[0].values.push_back(static_cast<int64_t>(i));
    r.columns[1].values.push_back(static_cast<int64_t>(i % 16));
    r.columns[2].values.push_back(1);
    r.columns[3].values.push_back(2);
  }
  for (uint64_t i = 0; i < kS; ++i) {
    s.columns[0].values.push_back(static_cast<int64_t>(rng() % kR));
    s.columns[1].values.push_back(static_cast<int64_t>(rng() % 1000));
    s.columns[2].values.push_back(3);
  }
  auto rd = Table::FromHost(device, r).ValueOrDie();
  auto sd = Table::FromHost(device, s).ValueOrDie();

  JoinAggregateSpec spec;
  spec.group_by = {JoinColumnRef::Side::kR, 1};
  spec.aggregates = {{{JoinColumnRef::Side::kS, 1}, groupby::AggOp::kSum},
                     {{JoinColumnRef::Side::kS, 1}, groupby::AggOp::kCount}};
  auto fused = RunJoinAggregate(device, JoinAlgo::kPhjOm,
                                groupby::GroupByAlgo::kHashPartitioned, rd, sd,
                                spec);
  ASSERT_OK(fused);
  EXPECT_EQ(fused->join_rows, kS);
  EXPECT_EQ(fused->num_groups, 16u);

  // Host reference.
  std::map<int64_t, std::pair<int64_t, int64_t>> expected;  // grp -> (sum, count).
  for (uint64_t i = 0; i < kS; ++i) {
    const int64_t grp = s.columns[0].values[i] % 16;
    expected[grp].first += s.columns[1].values[i];
    ++expected[grp].second;
  }
  const auto rows = join::CanonicalRows(fused->output.ToHost());
  ASSERT_EQ(rows.size(), expected.size());
  for (const auto& row : rows) {
    EXPECT_EQ(row[1], expected[row[0]].first) << "group " << row[0];
    EXPECT_EQ(row[2], expected[row[0]].second) << "group " << row[0];
  }
}

TEST(JoinAggregateTest, EarlyProjectionSkipsUnreferencedColumns) {
  // The fused run must be cheaper than join-everything + group-by when the
  // inputs carry many unreferenced payload columns.
  const uint64_t n = uint64_t{1} << 16;
  vgpu::Device device(
      vgpu::DeviceConfig::ScaledToWorkload(vgpu::DeviceConfig::A100(), n));
  workload::JoinWorkloadSpec wspec;
  wspec.r_rows = n / 2;
  wspec.s_rows = n;
  wspec.r_payload_cols = 6;
  wspec.s_payload_cols = 6;
  auto w = workload::GenerateJoinInput(wspec).ValueOrDie();
  for (auto& v : w.r.columns[1].values) v &= 0xff;  // Group attribute.
  auto rd = Table::FromHost(device, w.r).ValueOrDie();
  auto sd = Table::FromHost(device, w.s).ValueOrDie();

  JoinAggregateSpec spec;
  spec.group_by = {JoinColumnRef::Side::kR, 1};
  spec.aggregates = {{{JoinColumnRef::Side::kS, 1}, groupby::AggOp::kSum}};

  device.FlushL2();
  const double f0 = device.ElapsedSeconds();
  auto fused = RunJoinAggregate(device, JoinAlgo::kPhjOm,
                                groupby::GroupByAlgo::kHashPartitioned, rd, sd,
                                spec);
  ASSERT_OK(fused);
  const double fused_s = device.ElapsedSeconds() - f0;

  device.FlushL2();
  const double u0 = device.ElapsedSeconds();
  auto joined = RunJoin(device, JoinAlgo::kPhjOm, rd, sd).ValueOrDie();
  groupby::GroupBySpec gs;
  gs.aggregates = {{7, groupby::AggOp::kSum}};  // s_pay1 in the full output.
  Table gb_in = Table::FromColumns(
      "full", {"grp", "m"},
      [&] {
        std::vector<DeviceColumn> cols;
        cols.push_back(joined.output.TakeColumn(1));
        cols.push_back(joined.output.TakeColumn(7));
        return cols;
      }());
  gs.aggregates = {{1, groupby::AggOp::kSum}};
  auto unfused =
      RunGroupBy(device, groupby::GroupByAlgo::kHashPartitioned, gb_in, gs)
          .ValueOrDie();
  const double unfused_s = device.ElapsedSeconds() - u0;

  EXPECT_LT(fused_s, unfused_s * 0.7)
      << "fused " << fused_s << " vs unfused " << unfused_s;
  EXPECT_EQ(fused->num_groups, unfused.num_groups);
}

TEST(JoinAggregateTest, ValidatesSpec) {
  vgpu::Device device = MakeTestDevice();
  HostTable r{"r", {{"k", DataType::kInt32, {1}}, {"g", DataType::kInt32, {1}}}};
  HostTable s{"s", {{"k", DataType::kInt32, {1}}, {"m", DataType::kInt32, {1}}}};
  auto rd = Table::FromHost(device, r).ValueOrDie();
  auto sd = Table::FromHost(device, s).ValueOrDie();
  JoinAggregateSpec bad;
  bad.group_by = {JoinColumnRef::Side::kR, 7};
  bad.aggregates = {{{JoinColumnRef::Side::kS, 1}, groupby::AggOp::kSum}};
  EXPECT_FALSE(RunJoinAggregate(device, JoinAlgo::kPhjOm,
                                groupby::GroupByAlgo::kHashGlobal, rd, sd, bad)
                   .ok());
  JoinAggregateSpec empty;
  empty.group_by = {JoinColumnRef::Side::kR, 1};
  EXPECT_FALSE(RunJoinAggregate(device, JoinAlgo::kPhjOm,
                                groupby::GroupByAlgo::kHashGlobal, rd, sd, empty)
                   .ok());
}

// ---------------------------------------------------------------------------
// Key packing.
// ---------------------------------------------------------------------------

TEST(KeyPackTest, RoundTrip) {
  vgpu::Device device = MakeTestDevice();
  auto hi = DeviceColumn::FromHost(device, DataType::kInt32, {{1, 0, 70000}})
                .ValueOrDie();
  auto lo = DeviceColumn::FromHost(device, DataType::kInt32, {{5, 9, 70001}})
                .ValueOrDie();
  auto packed = PackKeyColumns(device, hi, lo);
  ASSERT_OK(packed);
  EXPECT_EQ(packed->Get(0), (int64_t{1} << 32) | 5);
  auto unpacked = UnpackKeyColumn(device, *packed);
  ASSERT_OK(unpacked);
  EXPECT_EQ(unpacked->first.ToHost(), hi.ToHost());
  EXPECT_EQ(unpacked->second.ToHost(), lo.ToHost());
}

TEST(KeyPackTest, PackedJoinEqualsCompositeJoin) {
  // Join on (a, b) == join on pack(a, b).
  vgpu::Device device = MakeTestDevice();
  std::mt19937_64 rng(12);
  const uint64_t nr = 1024, ns = 4096;
  HostTable r{"r", {{"a", DataType::kInt32, {}},
                    {"b", DataType::kInt32, {}},
                    {"p", DataType::kInt32, {}}}};
  HostTable s{"s", {{"a", DataType::kInt32, {}},
                    {"b", DataType::kInt32, {}},
                    {"q", DataType::kInt32, {}}}};
  for (uint64_t i = 0; i < nr; ++i) {
    r.columns[0].values.push_back(static_cast<int64_t>(i % 64));
    r.columns[1].values.push_back(static_cast<int64_t>(i / 64));
    r.columns[2].values.push_back(static_cast<int64_t>(i));
  }
  for (uint64_t i = 0; i < ns; ++i) {
    s.columns[0].values.push_back(static_cast<int64_t>(rng() % 64));
    s.columns[1].values.push_back(static_cast<int64_t>(rng() % 20));
    s.columns[2].values.push_back(static_cast<int64_t>(i));
  }
  auto rd = Table::FromHost(device, r).ValueOrDie();
  auto sd = Table::FromHost(device, s).ValueOrDie();

  auto r_key = PackKeyColumns(device, rd.column(0), rd.column(1)).ValueOrDie();
  auto s_key = PackKeyColumns(device, sd.column(0), sd.column(1)).ValueOrDie();
  Table r_packed = Table::FromColumns(
      "r", {"ab", "p"},
      [&] {
        std::vector<DeviceColumn> cols;
        cols.push_back(std::move(r_key));
        cols.push_back(rd.TakeColumn(2));
        return cols;
      }());
  Table s_packed = Table::FromColumns(
      "s", {"ab", "q"},
      [&] {
        std::vector<DeviceColumn> cols;
        cols.push_back(std::move(s_key));
        cols.push_back(sd.TakeColumn(2));
        return cols;
      }());
  auto res =
      RunJoin(device, JoinAlgo::kPhjOm, r_packed, s_packed).ValueOrDie();

  // Host reference over composite keys.
  std::map<std::pair<int64_t, int64_t>, std::vector<int64_t>> build;
  for (uint64_t i = 0; i < nr; ++i) {
    build[{r.columns[0].values[i], r.columns[1].values[i]}].push_back(
        r.columns[2].values[i]);
  }
  uint64_t expected = 0;
  for (uint64_t i = 0; i < ns; ++i) {
    auto it = build.find({s.columns[0].values[i], s.columns[1].values[i]});
    if (it != build.end()) expected += it->second.size();
  }
  EXPECT_EQ(res.output_rows, expected);
}

TEST(KeyPackTest, RejectsBadInputs) {
  vgpu::Device device = MakeTestDevice();
  auto i64 = DeviceColumn::FromHost(device, DataType::kInt64, {{1}}).ValueOrDie();
  auto i32 = DeviceColumn::FromHost(device, DataType::kInt32, {{1}}).ValueOrDie();
  EXPECT_FALSE(PackKeyColumns(device, i64, i32).ok());
  auto neg = DeviceColumn::FromHost(device, DataType::kInt32, {{-1}}).ValueOrDie();
  EXPECT_FALSE(PackKeyColumns(device, neg, i32).ok());
  EXPECT_FALSE(UnpackKeyColumn(device, i32).ok());
}

// ---------------------------------------------------------------------------
// Out-of-core join.
// ---------------------------------------------------------------------------

TEST(OutOfCoreJoinTest, MatchesReferenceOnTinyDevice) {
  // Device capacity far below the inputs: forces multi-fragment execution.
  workload::JoinWorkloadSpec spec;
  spec.r_rows = 1 << 14;
  spec.s_rows = 1 << 15;
  spec.r_payload_cols = 2;
  spec.s_payload_cols = 2;
  auto w = workload::GenerateJoinInput(spec).ValueOrDie();

  vgpu::DeviceConfig cfg =
      vgpu::DeviceConfig::ScaledToWorkload(vgpu::DeviceConfig::A100(), 1 << 14);
  cfg.global_mem_bytes = 2 * 1024 * 1024;  // 2 MB device vs ~1.3 MB inputs.
  vgpu::Device device(cfg);

  auto res = join::RunOutOfCoreJoin(device, JoinAlgo::kPhjOm, w.r, w.s);
  ASSERT_OK(res);
  EXPECT_GT(res->fragments, 1);
  EXPECT_GT(res->bytes_transferred, 0u);
  EXPECT_GT(res->device_seconds, 0.0);
  EXPECT_EQ(join::CanonicalRows(res->output),
            join::ReferenceJoinRows(w.r, w.s));
}

TEST(OutOfCoreJoinTest, SingleFragmentDegeneratesToInMemory) {
  workload::JoinWorkloadSpec spec;
  spec.r_rows = 2048;
  spec.s_rows = 2048;
  auto w = workload::GenerateJoinInput(spec).ValueOrDie();
  vgpu::Device device = MakeTestDevice();
  join::OutOfCoreOptions opts;
  opts.fragment_bits = 1;
  auto res = join::RunOutOfCoreJoin(device, JoinAlgo::kSmjOm, w.r, w.s, opts);
  ASSERT_OK(res);
  EXPECT_EQ(res->fragments, 2);
  EXPECT_EQ(join::CanonicalRows(res->output),
            join::ReferenceJoinRows(w.r, w.s));
}

TEST(OutOfCoreJoinTest, AllAlgorithmsAgree) {
  workload::JoinWorkloadSpec spec;
  spec.r_rows = 4096;
  spec.s_rows = 8192;
  spec.match_ratio = 0.8;
  auto w = workload::GenerateJoinInput(spec).ValueOrDie();
  const auto expected = join::ReferenceJoinRows(w.r, w.s);
  for (JoinAlgo algo : join::kAllJoinAlgos) {
    vgpu::Device device = MakeTestDevice();
    join::OutOfCoreOptions opts;
    opts.fragment_bits = 3;
    auto res = join::RunOutOfCoreJoin(device, algo, w.r, w.s, opts);
    ASSERT_OK(res);
    EXPECT_EQ(join::CanonicalRows(res->output), expected)
        << join::JoinAlgoName(algo);
  }
}

TEST(OutOfCoreJoinTest, TransferChargesAdvanceTheClock) {
  vgpu::Device device = MakeTestDevice();
  const double t0 = device.ElapsedSeconds();
  device.ChargeHostTransfer(vgpu::TransferDirection::kHostToDevice,
                            25'000'000);  // 25 MB at 25 GB/s ~ 1 ms.
  const double dt = device.ElapsedSeconds() - t0;
  EXPECT_NEAR(dt, 1e-3, 2e-4);
}

}  // namespace
}  // namespace gpujoin
