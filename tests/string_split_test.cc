// Host-side splits of tables that carry string columns: the out-of-core
// stream and the service's fragment plans must give the same rows as an
// unsplit run, a string key must be refused cleanly, and every transfer
// charge for such a table must equal what Table::FromHost allocates.

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "groupby/groupby.h"
#include "join/join.h"
#include "join/out_of_core.h"
#include "join/reference.h"
#include "ops/operator.h"
#include "service/query_service.h"
#include "stats/estimator.h"
#include "storage/table.h"
#include "test_util.h"
#include "vgpu/device.h"
#include "vgpu/observer.h"

namespace gpujoin {
namespace {

using ::gpujoin::testing::MakeTestDevice;

/// R(k int32, name string-as-int32): 64 rows, keys 0..63, 11 distinct names
/// in an order that differs per radix fragment.
HostTable StringPayloadR() {
  HostTable r;
  r.name = "r";
  HostColumn key{"k", DataType::kInt32, {}, {}};
  HostColumn name{"name", DataType::kInt32, {}, {}};
  for (int64_t i = 0; i < 64; ++i) {
    key.values.push_back(i);
    name.strings.push_back("name_" + std::to_string((i * 37) % 11));
  }
  r.columns = {std::move(key), std::move(name)};
  return r;
}

/// S(k int32, v int64): 128 rows over R's keys.
HostTable IntProbeS() {
  HostTable s;
  s.name = "s";
  HostColumn key{"k", DataType::kInt32, {}, {}};
  HostColumn v{"v", DataType::kInt64, {}, {}};
  for (int64_t i = 0; i < 128; ++i) {
    key.values.push_back((i * 29) % 64);
    v.values.push_back(1000 + i);
  }
  s.columns = {std::move(key), std::move(v)};
  return s;
}

std::vector<std::vector<int64_t>> DirectJoinRows(join::JoinAlgo algo,
                                                 const HostTable& r,
                                                 const HostTable& s) {
  vgpu::Device device = MakeTestDevice();
  Table rd = Table::FromHost(device, r).ValueOrDie();
  Table sd = Table::FromHost(device, s).ValueOrDie();
  join::JoinRunResult jr = join::RunJoin(device, algo, rd, sd).ValueOrDie();
  return join::CanonicalRows(jr.output.ToHost());
}

service::QueryOutcome RunServiceQuery(service::QueryRequest req) {
  vgpu::Device device = MakeTestDevice();
  service::QueryService service(device);
  const int id = service.Submit(std::move(req)).ValueOrDie();
  EXPECT_OK(service.Drain());
  EXPECT_OK(device.CheckNoLeaks());
  return service.outcome(id);
}

TEST(StringSplitTest, JoinWithStringPayloadMatchesAcrossEntryPoints) {
  const HostTable r = StringPayloadR();
  const HostTable s = IntProbeS();
  for (join::JoinAlgo algo : join::kAllJoinAlgos) {
    SCOPED_TRACE(join::JoinAlgoName(algo));
    const std::vector<std::vector<int64_t>> direct = DirectJoinRows(algo, r, s);
    ASSERT_EQ(direct.size(), s.num_rows());

    vgpu::Device device = MakeTestDevice();
    join::OutOfCoreOptions oopts;
    oopts.fragment_bits = 2;
    ASSERT_OK_AND_ASSIGN(join::OutOfCoreRunResult oc,
                         join::RunOutOfCoreJoin(device, algo, r, s, oopts));
    EXPECT_EQ(join::CanonicalRows(oc.output), direct);
    ASSERT_OK(device.CheckNoLeaks());

    service::QueryRequest req;
    req.kind = service::QueryKind::kJoin;
    req.join_algo = algo;
    req.r = &r;
    req.s = &s;
    req.fragment_bits_override = 1;
    const service::QueryOutcome out = RunServiceQuery(std::move(req));
    ASSERT_OK(out.status);
    EXPECT_EQ(out.fragments_total, 2);
    EXPECT_EQ(join::CanonicalRows(out.output), direct);
  }
}

TEST(StringSplitTest, FragmentedGroupByCarriesStringColumn) {
  // G(k int32, name string-as-int32, v int64); the aggregates read both
  // the integer column and the string column's codes.
  HostTable g;
  g.name = "g";
  HostColumn key{"k", DataType::kInt32, {}, {}};
  HostColumn name{"name", DataType::kInt32, {}, {}};
  HostColumn v{"v", DataType::kInt64, {}, {}};
  for (int64_t i = 0; i < 256; ++i) {
    key.values.push_back((i * 13) % 32);
    name.strings.push_back("name_" + std::to_string((i * 7) % 19));
    v.values.push_back(i);
  }
  g.columns = {std::move(key), std::move(name), std::move(v)};

  const auto run = [&](int fragment_bits) {
    service::QueryRequest req;
    req.kind = service::QueryKind::kGroupBy;
    req.groupby_algo = groupby::GroupByAlgo::kHashPartitioned;
    req.groupby_spec.aggregates.push_back({2, groupby::AggOp::kSum});
    req.groupby_spec.aggregates.push_back({1, groupby::AggOp::kMax});
    req.r = &g;
    req.fragment_bits_override = fragment_bits;
    return RunServiceQuery(std::move(req));
  };
  const service::QueryOutcome whole = run(0);
  const service::QueryOutcome split = run(2);
  ASSERT_OK(whole.status);
  ASSERT_OK(split.status);
  EXPECT_EQ(split.fragments_total, 4);
  EXPECT_EQ(whole.output_rows, 32u);
  EXPECT_EQ(join::CanonicalRows(split.output), join::CanonicalRows(whole.output));
}

TEST(StringSplitTest, StringKeyIsRefusedWhereverASplitIsRequested) {
  HostTable r = StringPayloadR();
  std::swap(r.columns[0], r.columns[1]);  // The string column is the key.
  const HostTable s = IntProbeS();

  Result<std::vector<HostTable>> frags = join::PartitionHostByKeyRadix(r, 1);
  EXPECT_EQ(frags.status().code(), StatusCode::kInvalidArgument);

  vgpu::Device device = MakeTestDevice();
  join::OutOfCoreOptions oopts;
  oopts.fragment_bits = 2;
  Result<join::OutOfCoreRunResult> oc =
      join::RunOutOfCoreJoin(device, join::JoinAlgo::kPhjOm, r, s, oopts);
  EXPECT_EQ(oc.status().code(), StatusCode::kInvalidArgument);
  ASSERT_OK(device.CheckNoLeaks());

  EXPECT_EQ(join::FragmentPlan::ForGroupBy(r, 1).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_OK(join::FragmentPlan::ForGroupBy(r, 0).status());

  service::QueryService service(device);
  service::QueryRequest req;
  req.kind = service::QueryKind::kJoin;
  req.r = &r;
  req.s = &s;
  req.fragment_bits_override = 1;
  EXPECT_EQ(service.Submit(std::move(req)).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(StringSplitTest, StringKeyRunsWholeWhereThePolicyWouldSplit) {
  HostTable r = StringPayloadR();
  std::swap(r.columns[0], r.columns[1]);  // The string column is the key.
  HostTable s = IntProbeS();
  // S probes with R's names, as the codes a whole-table upload assigns.
  HostColumn names{"name", DataType::kInt32, {}, {}};
  for (uint64_t i = 0; i < s.num_rows(); ++i) {
    names.strings.push_back("name_" + std::to_string((i * 5) % 11));
  }
  s.columns[0] = std::move(names);

  // A budget this tight makes the automatic policy ask for a split.
  service::ServiceOptions options;
  options.budget_bytes = 2 * stats::EstimateJoinMemory(r, s).total_bytes();
  ASSERT_GT(join::DeriveFragmentBits(
                options.budget_bytes / 2,
                static_cast<double>(options.budget_bytes) *
                    service::kFragmentTargetFraction,
                0, service::kMaxFragmentBits),
            0);
  for (join::JoinAlgo algo : join::kAllJoinAlgos) {
    SCOPED_TRACE(join::JoinAlgoName(algo));
    vgpu::Device device = MakeTestDevice();
    service::QueryService service(device, options);
    service::QueryRequest req;
    req.kind = service::QueryKind::kJoin;
    req.join_algo = algo;
    req.r = &r;
    req.s = &s;
    ASSERT_OK_AND_ASSIGN(int id, service.Submit(std::move(req)));
    ASSERT_OK(service.Drain());
    const service::QueryOutcome& out = service.outcome(id);
    ASSERT_OK(out.status);
    EXPECT_EQ(out.fragments_total, 1);
    const std::vector<std::vector<int64_t>> direct = DirectJoinRows(algo, r, s);
    EXPECT_GT(direct.size(), s.num_rows());
    EXPECT_EQ(join::CanonicalRows(out.output), direct);
    ASSERT_OK(device.CheckNoLeaks());
  }
}

/// Sums the host-to-device bytes the device charges.
class UploadRecorder : public vgpu::KernelObserver {
 public:
  void OnKernelBegin(const vgpu::Device&, const char*) override {}
  void OnKernelEnd(const vgpu::Device&, const char*, const vgpu::KernelStats&,
                   double) override {}
  void OnTransferBegin(const vgpu::Device&, vgpu::TransferDirection dir,
                       uint64_t bytes) override {
    if (dir == vgpu::TransferDirection::kHostToDevice) h2d_bytes += bytes;
  }
  void OnTransferEnd(const vgpu::Device&, vgpu::TransferDirection,
                     uint64_t) override {}
  uint64_t h2d_bytes = 0;
};

TEST(TransferBytesTest, StringColumnIsChargedWhatTheUploadAllocates) {
  const HostTable r = StringPayloadR();
  const HostTable s = IntProbeS();
  uint64_t uploaded = 0;
  {
    vgpu::Device device = MakeTestDevice();
    Table rd = Table::FromHost(device, r).ValueOrDie();
    Table sd = Table::FromHost(device, s).ValueOrDie();
    uploaded = device.memory_stats().live_bytes;
  }
  EXPECT_EQ(uploaded, 64u * (4 + 4) + 128u * (4 + 8));
  EXPECT_EQ(r.device_bytes() + s.device_bytes(), uploaded);

  {  // The out-of-core stream: its fragment uploads sum to the whole.
    vgpu::Device device = MakeTestDevice();
    UploadRecorder rec;
    device.set_kernel_observer(&rec);
    join::OutOfCoreOptions oopts;
    oopts.fragment_bits = 2;
    ASSERT_OK(join::RunOutOfCoreJoin(device, join::JoinAlgo::kPhjOm, r, s, oopts)
                  .status());
    device.set_kernel_observer(nullptr);
    EXPECT_EQ(rec.h2d_bytes, uploaded);
  }
  {  // A fragmented service query.
    vgpu::Device device = MakeTestDevice();
    UploadRecorder rec;
    device.set_kernel_observer(&rec);
    service::QueryService service(device);
    service::QueryRequest req;
    req.kind = service::QueryKind::kJoin;
    req.r = &r;
    req.s = &s;
    req.fragment_bits_override = 1;
    ASSERT_OK_AND_ASSIGN(int id, service.Submit(std::move(req)));
    ASSERT_OK(service.Drain());
    ASSERT_OK(service.outcome(id).status);
    device.set_kernel_observer(nullptr);
    EXPECT_EQ(rec.h2d_bytes, uploaded);
  }
  {  // The vgpu operator provider.
    vgpu::Device device = MakeTestDevice();
    UploadRecorder rec;
    device.set_kernel_observer(&rec);
    ops::VgpuProvider provider(device);
    ops::JoinOp op;
    op.algo = join::JoinAlgo::kPhjOm;
    op.r = &r;
    op.s = &s;
    ASSERT_OK(provider.RunJoin(op).status());
    device.set_kernel_observer(nullptr);
    EXPECT_EQ(rec.h2d_bytes, uploaded);
  }
}

}  // namespace
}  // namespace gpujoin
