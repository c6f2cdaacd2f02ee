// Fault injection, allocation-site tagging, leak auditing, and the
// exhaustive failure sweeps: for EVERY allocation point k of every join
// algorithm and group-by strategy, inject a failure at k and require
//   (a) a clean non-OK Status (never a crash or abort),
//   (b) zero leaked bytes once the query's inputs are dropped, and
//   (c) that the same device, after Reset(), completes a fresh run of the
//       query bit-identically (rows, simulated stats, simulated clock) to
//       an untouched device.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "groupby/groupby.h"
#include "join/join.h"
#include "join/reference.h"
#include "storage/table.h"
#include "test_util.h"
#include "vgpu/buffer.h"
#include "vgpu/device.h"
#include "vgpu/fault.h"
#include "workload/generator.h"

namespace gpujoin::vgpu {
namespace {

using ::gpujoin::testing::MakeTestDevice;
using Rows = std::vector<std::vector<int64_t>>;

// ---------------------------------------------------------------------------
// FaultInjector unit behavior
// ---------------------------------------------------------------------------

TEST(FaultInjectorTest, DisarmedNeverFailsAndCountsNothing) {
  FaultInjector fi;
  EXPECT_FALSE(fi.armed());
  for (int i = 0; i < 100; ++i) EXPECT_FALSE(fi.ShouldFail(1024));
  EXPECT_EQ(fi.attempts_seen(), 0u);
  EXPECT_EQ(fi.injected_failures(), 0u);
}

TEST(FaultInjectorTest, FailNthFiresExactlyOnceAtN) {
  FaultInjector fi = FaultInjector::FailNth(3);
  EXPECT_TRUE(fi.armed());
  EXPECT_FALSE(fi.ShouldFail(8));
  EXPECT_FALSE(fi.ShouldFail(8));
  EXPECT_TRUE(fi.ShouldFail(8));  // Attempt 3.
  for (int i = 0; i < 10; ++i) EXPECT_FALSE(fi.ShouldFail(8));  // One-shot.
  EXPECT_EQ(fi.attempts_seen(), 13u);
  EXPECT_EQ(fi.injected_failures(), 1u);
}

TEST(FaultInjectorTest, FailAfterBytesTripsPersistently) {
  FaultInjector fi = FaultInjector::FailAfterBytes(1000);
  EXPECT_FALSE(fi.ShouldFail(600));   // Cumulative 600.
  EXPECT_FALSE(fi.ShouldFail(400));   // Cumulative 1000 (== budget: ok).
  EXPECT_TRUE(fi.ShouldFail(1));      // 1001 > budget.
  EXPECT_TRUE(fi.ShouldFail(1));      // Stays tripped.
  EXPECT_EQ(fi.injected_failures(), 2u);
}

TEST(FaultInjectorTest, ProbabilityIsDeterministicPerSeed) {
  FaultInjector a = FaultInjector::FailWithProbability(0.3, 7);
  FaultInjector b = FaultInjector::FailWithProbability(0.3, 7);
  int fails = 0;
  for (int i = 0; i < 1000; ++i) {
    const bool fa = a.ShouldFail(64);
    ASSERT_EQ(fa, b.ShouldFail(64)) << "diverged at draw " << i;
    fails += fa;
  }
  // Rough rate check only: deterministic stream, 0.3 +/- a wide margin.
  EXPECT_GT(fails, 200);
  EXPECT_LT(fails, 400);
}

TEST(FaultInjectorTest, ProbabilityZeroNeverFires) {
  FaultInjector fi = FaultInjector::FailWithProbability(0.0, 1);
  for (int i = 0; i < 1000; ++i) EXPECT_FALSE(fi.ShouldFail(64));
}

// ---------------------------------------------------------------------------
// FaultInjector kernel-execution fault class
// ---------------------------------------------------------------------------

TEST(FaultInjectorTest, KernelNthFiresExactlyOnceAtN) {
  FaultInjector fi = FaultInjector::FailNthKernel(2);
  EXPECT_TRUE(fi.armed());
  EXPECT_TRUE(fi.kernel_mode());
  EXPECT_FALSE(fi.ShouldFailKernel());
  EXPECT_TRUE(fi.ShouldFailKernel());  // Kernel 2.
  for (int i = 0; i < 10; ++i) EXPECT_FALSE(fi.ShouldFailKernel());
  EXPECT_EQ(fi.kernel_attempts_seen(), 12u);
  EXPECT_EQ(fi.injected_kernel_faults(), 1u);
}

TEST(FaultInjectorTest, KernelAndAllocationClassesAreDisjoint) {
  // A kernel-mode injector must never fire on (or count) allocations, and
  // vice versa — arming one class cannot shift the other's deterministic
  // numbering.
  FaultInjector kernel = FaultInjector::FailNthKernel(1);
  for (int i = 0; i < 10; ++i) EXPECT_FALSE(kernel.ShouldFail(64));
  EXPECT_EQ(kernel.attempts_seen(), 0u);
  EXPECT_EQ(kernel.injected_failures(), 0u);

  FaultInjector alloc = FaultInjector::FailNth(1);
  for (int i = 0; i < 10; ++i) EXPECT_FALSE(alloc.ShouldFailKernel());
  EXPECT_EQ(alloc.kernel_attempts_seen(), 0u);
  EXPECT_EQ(alloc.injected_kernel_faults(), 0u);
}

TEST(FaultInjectorTest, KernelBurstCoversContiguousRange) {
  FaultInjector fi = FaultInjector::FailKernelBurst(3, 2);
  EXPECT_FALSE(fi.ShouldFailKernel());  // 1
  EXPECT_FALSE(fi.ShouldFailKernel());  // 2
  EXPECT_TRUE(fi.ShouldFailKernel());   // 3
  EXPECT_TRUE(fi.ShouldFailKernel());   // 4
  EXPECT_FALSE(fi.ShouldFailKernel());  // 5
  EXPECT_EQ(fi.injected_kernel_faults(), 2u);
}

TEST(FaultInjectorTest, KernelProbabilityIsDeterministicPerSeed) {
  FaultInjector a = FaultInjector::FailKernelWithProbability(0.3, 7);
  FaultInjector b = FaultInjector::FailKernelWithProbability(0.3, 7);
  int fails = 0;
  for (int i = 0; i < 1000; ++i) {
    const bool fa = a.ShouldFailKernel();
    ASSERT_EQ(fa, b.ShouldFailKernel()) << "diverged at draw " << i;
    fails += fa;
  }
  EXPECT_GT(fails, 200);
  EXPECT_LT(fails, 400);
}

// ---------------------------------------------------------------------------
// Device integration: injection, tags, auditing, Reset
// ---------------------------------------------------------------------------

TEST(DeviceFaultTest, InjectedFailureIsResourceExhaustedAndCounted) {
  Device device(DeviceConfig::A100(), FaultInjector::FailNth(2));
  auto a = device.AllocateRaw(128, "first");
  ASSERT_TRUE(a.ok());
  auto b = device.AllocateRaw(128, "second");
  ASSERT_FALSE(b.ok());
  EXPECT_EQ(b.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(b.status().message().find("injected"), std::string::npos);
  EXPECT_EQ(device.memory_stats().alloc_attempts, 2u);
  EXPECT_EQ(device.memory_stats().failed_allocations, 1u);
  EXPECT_EQ(device.memory_stats().injected_failures, 1u);
  // The failed attempt reserved nothing.
  EXPECT_EQ(device.memory_stats().live_bytes, 128u);
  ASSERT_OK(device.FreeRaw(*a));
}

TEST(DeviceFaultTest, ArmAndClearAtRuntime) {
  Device device(DeviceConfig::A100());
  device.set_fault_injector(FaultInjector::FailNth(1));
  EXPECT_FALSE(device.AllocateRaw(64).ok());
  device.clear_fault_injector();
  auto a = device.AllocateRaw(64);
  ASSERT_TRUE(a.ok());
  ASSERT_OK(device.FreeRaw(*a));
}

TEST(DeviceKernelFaultTest, InjectedKernelFaultIsStickyUnavailable) {
  Device device(DeviceConfig::A100(), FaultInjector::FailNthKernel(1));
  auto a = device.AllocateRaw(256, "buf");
  ASSERT_TRUE(a.ok());
  device.BeginKernel("victim");
  device.LoadSeq(*a, 64, 4);
  device.EndKernel();
  const Status st = device.LifecycleStatus();
  ASSERT_TRUE(st.IsUnavailable()) << st.ToString();
  EXPECT_NE(st.message().find("kernel_fault"), std::string::npos);
  EXPECT_NE(st.message().find("'victim'"), std::string::npos);
  EXPECT_EQ(device.fault_injector().injected_kernel_faults(), 1u);

  // A pending fault blocks allocations UNCOUNTED, so clearing it cannot
  // shift the allocation-fault numbering of a replay.
  const uint64_t attempts = device.memory_stats().alloc_attempts;
  const Result<uint64_t> blocked = device.AllocateRaw(64);
  ASSERT_FALSE(blocked.ok());
  EXPECT_TRUE(blocked.status().IsUnavailable());
  EXPECT_EQ(device.memory_stats().alloc_attempts, attempts);

  // Unlike cancel/deadline trips, a transient fault is clearable: the
  // retry path resumes on the same device.
  device.ClearTransientFault();
  EXPECT_TRUE(device.LifecycleStatus().ok());
  auto b = device.AllocateRaw(64);
  ASSERT_TRUE(b.ok());
  ASSERT_OK(device.FreeRaw(*b));
  ASSERT_OK(device.FreeRaw(*a));
  ASSERT_OK(device.CheckNoLeaks());
}

TEST(DeviceKernelFaultTest, FirstFaultSticksButCounterKeepsAdvancing) {
  // Two kernels inside the burst: the first fault sticks (its message
  // names kernel #1) while the injector's deterministic counter still
  // advances through kernel #2.
  Device device(DeviceConfig::A100(), FaultInjector::FailKernelBurst(1, 2));
  auto a = device.AllocateRaw(256, "buf");
  ASSERT_TRUE(a.ok());
  for (int i = 0; i < 2; ++i) {
    device.BeginKernel("k");
    device.LoadSeq(*a, 64, 4);
    device.EndKernel();
  }
  EXPECT_EQ(device.fault_injector().kernel_attempts_seen(), 2u);
  EXPECT_EQ(device.fault_injector().injected_kernel_faults(), 2u);
  const Status st = device.LifecycleStatus();
  ASSERT_TRUE(st.IsUnavailable());
  EXPECT_NE(st.message().find("kernel #1"), std::string::npos);
  device.ClearTransientFault();
  ASSERT_OK(device.FreeRaw(*a));
}

TEST(DeviceKernelFaultTest, WatchdogConvertsRunawayKernelToTimeout) {
  // A 1-cycle watchdog budget: any real kernel exceeds it.
  Device device(DeviceConfig::A100(), FaultInjector(), nullptr, 1,
                /*kernel_watchdog_cycles=*/1.0);
  EXPECT_EQ(device.kernel_watchdog_cycles(), 1.0);
  auto a = device.AllocateRaw(1 << 16, "buf");
  ASSERT_TRUE(a.ok());
  device.BeginKernel("runaway");
  device.LoadSeq(*a, 1 << 14, 4);
  device.EndKernel();
  EXPECT_EQ(device.watchdog_trips(), 1u);
  const Status st = device.LifecycleStatus();
  ASSERT_TRUE(st.IsUnavailable()) << st.ToString();
  EXPECT_NE(st.message().find("watchdog_timeout"), std::string::npos);
  EXPECT_NE(st.message().find("'runaway'"), std::string::npos);
  device.ClearTransientFault();
  ASSERT_OK(device.FreeRaw(*a));
}

TEST(DeviceKernelFaultTest, LifecycleTripOutranksTransientFault) {
  // When both a cancel and a transient fault are pending, the lifecycle
  // trip wins: cancellation is terminal, the fault merely retryable.
  LifecycleControl control;
  CancelToken token;
  control.set_token(token);
  Device device(DeviceConfig::A100(), FaultInjector::FailNthKernel(1),
                &control);
  auto a = device.AllocateRaw(256, "buf");
  ASSERT_TRUE(a.ok());
  device.BeginKernel("k");
  device.LoadSeq(*a, 64, 4);
  device.EndKernel();
  ASSERT_TRUE(device.LifecycleStatus().IsUnavailable());
  token.RequestCancel();
  device.AdvanceClock(1);
  EXPECT_TRUE(device.LifecycleStatus().IsCancelled());
  device.set_lifecycle(nullptr);
  device.ClearTransientFault();
  ASSERT_OK(device.FreeRaw(*a));
}

TEST(DeviceKernelFaultTest, ResetClearsTransientFaultState) {
  Device device(DeviceConfig::A100(), FaultInjector::FailNthKernel(1), nullptr,
                1, /*kernel_watchdog_cycles=*/1e12);
  auto a = device.AllocateRaw(256, "buf");
  ASSERT_TRUE(a.ok());
  device.BeginKernel("k");
  device.LoadSeq(*a, 64, 4);
  device.EndKernel();
  ASSERT_TRUE(device.LifecycleStatus().IsUnavailable());
  ASSERT_OK(device.FreeRaw(*a));
  ASSERT_OK(device.Reset());
  EXPECT_TRUE(device.LifecycleStatus().ok());
  EXPECT_EQ(device.kernel_watchdog_cycles(), 0.0);
  EXPECT_EQ(device.watchdog_trips(), 0u);
  EXPECT_FALSE(device.fault_injector().armed());
}

TEST(DeviceAuditTest, OutstandingAllocationsCarryTagsAndOrder) {
  Device device(DeviceConfig::A100());
  auto a = device.AllocateRaw(100, "build_table");
  auto b = device.AllocateRaw(200);  // Untagged.
  uint64_t c;
  {
    AllocTagScope phase(device, "probe");
    AllocTagScope op(device, "gather");
    auto r = device.AllocateRaw(300, "out_col");
    ASSERT_TRUE(r.ok());
    c = *r;
  }
  const auto live = device.OutstandingAllocations();
  ASSERT_EQ(live.size(), 3u);
  EXPECT_EQ(live[0].tag, "build_table");
  EXPECT_EQ(live[0].bytes, 100u);
  EXPECT_EQ(live[0].seq, 1u);
  EXPECT_EQ(live[1].tag, "untagged");
  EXPECT_EQ(live[2].tag, "probe/gather/out_col");
  EXPECT_EQ(live[2].seq, 3u);

  const Status leaks = device.CheckNoLeaks();
  EXPECT_FALSE(leaks.ok());
  EXPECT_NE(leaks.message().find("probe/gather/out_col"), std::string::npos);
  EXPECT_NE(device.LeakReport().find("build_table"), std::string::npos);

  ASSERT_OK(device.FreeRaw(*a));
  ASSERT_OK(device.FreeRaw(*b));
  ASSERT_OK(device.FreeRaw(c));
  ASSERT_OK(device.CheckNoLeaks());
  EXPECT_EQ(device.LeakReport(), "");
}

TEST(DeviceAuditTest, ResetRequiresNoLiveAllocations) {
  Device device(DeviceConfig::A100());
  auto a = device.AllocateRaw(64, "held");
  ASSERT_TRUE(a.ok());
  const Status st = device.Reset();
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInternal);
  ASSERT_OK(device.FreeRaw(*a));
  ASSERT_OK(device.Reset());
}

TEST(DeviceAuditTest, ResetRestoresAsConstructedState) {
  Device fresh(DeviceConfig::A100());
  Device used(DeviceConfig::A100(), FaultInjector::FailNth(2));
  // Drive `used` through an allocation, an injected failure, and a kernel.
  auto a = used.AllocateRaw(256, "scratch");
  ASSERT_TRUE(a.ok());
  EXPECT_FALSE(used.AllocateRaw(256).ok());
  {
    KernelScope ks(used, "touch");
    used.LoadSeq(*a, 32, 8);
  }
  ASSERT_OK(used.FreeRaw(*a));
  ASSERT_OK(used.Reset());

  // Bit-identical replay: same addresses, same stats, same clock.
  auto fa = fresh.AllocateRaw(512, "x");
  auto ua = used.AllocateRaw(512, "x");
  ASSERT_TRUE(fa.ok() && ua.ok());
  EXPECT_EQ(*fa, *ua);
  {
    KernelScope ks(fresh, "k");
    fresh.LoadSeq(*fa, 64, 8);
  }
  {
    KernelScope ks(used, "k");
    used.LoadSeq(*ua, 64, 8);
  }
  EXPECT_EQ(fresh.total_stats(), used.total_stats());
  EXPECT_EQ(fresh.elapsed_cycles(), used.elapsed_cycles());
  EXPECT_EQ(used.memory_stats().alloc_attempts, 1u);
  EXPECT_EQ(used.memory_stats().injected_failures, 0u);
  EXPECT_FALSE(used.fault_injector().armed());
  ASSERT_OK(fresh.FreeRaw(*fa));
  ASSERT_OK(used.FreeRaw(*ua));
}

// Satellite regression: n * sizeof(T) used to wrap before the capacity
// check; huge element counts must fail cleanly, not crash.
TEST(DeviceBufferTest, ElementCountOverflowIsOutOfMemory) {
  Device device(DeviceConfig::A100());
  const uint64_t huge = (uint64_t{1} << 62) + 7;  // huge * 8 wraps.
  auto r = DeviceBuffer<int64_t>::Allocate(device, huge);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kOutOfMemory);
  EXPECT_NE(r.status().message().find("overflow"), std::string::npos);
  ASSERT_OK(device.CheckNoLeaks());
}

// ---------------------------------------------------------------------------
// Exhaustive failure sweeps
// ---------------------------------------------------------------------------

workload::JoinWorkload SweepJoinWorkload() {
  workload::JoinWorkloadSpec spec;
  spec.r_rows = 1 << 9;
  spec.s_rows = 1 << 10;
  spec.r_payload_cols = 1;  // Narrow side.
  spec.s_payload_cols = 2;  // Wide side: exercises GFUR id plumbing.
  spec.seed = 7;
  return workload::GenerateJoinInput(spec).ValueOrDie();
}

HostTable SweepGroupByWorkload() {
  workload::GroupByWorkloadSpec spec;
  spec.rows = 1 << 10;
  spec.num_groups = 1 << 6;
  spec.payload_cols = 1;
  spec.seed = 11;
  return workload::GenerateGroupByInput(spec).ValueOrDie();
}

groupby::GroupBySpec SweepGroupBySpec() {
  groupby::GroupBySpec spec;
  spec.aggregates.push_back({1, groupby::AggOp::kSum});
  spec.aggregates.push_back({1, groupby::AggOp::kCount});
  spec.aggregates.push_back({1, groupby::AggOp::kMax});
  return spec;
}

/// A fresh-device reference run: canonical rows + simulated stats + clock.
struct BaselineRun {
  Rows rows;
  KernelStats stats;
  double cycles = 0;
  uint64_t query_allocations = 0;  // Allocation attempts the query makes.
};

template <typename RunQuery>
BaselineRun RunBaseline(const RunQuery& run_query) {
  Device device = MakeTestDevice();
  BaselineRun base;
  {
    const uint64_t attempts_before = device.memory_stats().alloc_attempts;
    Result<Rows> rows = run_query(device);
    GPUJOIN_CHECK_OK(rows.status());
    base.rows = std::move(rows).value();
    base.query_allocations =
        device.memory_stats().alloc_attempts - attempts_before;
  }
  base.stats = device.total_stats();
  base.cycles = device.elapsed_cycles();
  return base;
}

/// The sweep protocol, generic over "the query" (join or group-by). The
/// `run_query` callable uploads its own inputs, runs, and returns canonical
/// rows; all of its device state must be dead when it returns. The
/// `arm_after` count skips the upload allocations so each k injects into
/// the query proper.
template <typename RunQuery>
void ExhaustiveFailureSweep(const char* label, const RunQuery& run_query) {
  const BaselineRun base = RunBaseline(run_query);
  ASSERT_GT(base.query_allocations, 0u) << label;

  for (uint64_t k = 1; k <= base.query_allocations; ++k) {
    SCOPED_TRACE(std::string(label) + " failure at allocation point " +
                 std::to_string(k));
    Device device = MakeTestDevice();

    // Inject: the k-th allocation of the query fails.
    device.set_fault_injector(FaultInjector::FailNth(k));
    Result<Rows> rows = run_query(device);
    ASSERT_FALSE(rows.ok());
    EXPECT_EQ(rows.status().code(), StatusCode::kResourceExhausted)
        << rows.status().ToString();
    device.clear_fault_injector();

    // Zero leaked bytes: every error path released everything.
    ASSERT_OK(device.CheckNoLeaks());

    // The survivor completes a fresh run bit-identically to an untouched
    // device: same rows, same simulated stats, same simulated clock.
    ASSERT_OK(device.Reset());
    Result<Rows> replay = run_query(device);
    ASSERT_TRUE(replay.ok()) << replay.status().ToString();
    EXPECT_EQ(*replay, base.rows);
    EXPECT_EQ(device.total_stats(), base.stats);
    EXPECT_EQ(device.elapsed_cycles(), base.cycles);
    ASSERT_OK(device.CheckNoLeaks());
  }
}

class JoinFailureSweepTest : public ::testing::TestWithParam<join::JoinAlgo> {};

TEST_P(JoinFailureSweepTest, EveryAllocationPointFailsCleanly) {
  const join::JoinAlgo algo = GetParam();
  const workload::JoinWorkload w = SweepJoinWorkload();
  auto run_query = [&](Device& device) -> Result<Rows> {
    GPUJOIN_ASSIGN_OR_RETURN(Table r, Table::FromHost(device, w.r));
    GPUJOIN_ASSIGN_OR_RETURN(Table s, Table::FromHost(device, w.s));
    GPUJOIN_ASSIGN_OR_RETURN(join::JoinRunResult jr,
                             join::RunJoin(device, algo, r, s, {}));
    return join::CanonicalRows(jr.output.ToHost());
  };
  ExhaustiveFailureSweep(join::JoinAlgoName(algo), run_query);
}

INSTANTIATE_TEST_SUITE_P(
    AllJoinAlgos, JoinFailureSweepTest,
    ::testing::ValuesIn(join::kAllJoinAlgos),
    [](const ::testing::TestParamInfo<join::JoinAlgo>& info) {
      std::string name = join::JoinAlgoName(info.param);
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

// Narrow joins on the four algorithms that write payloads in the match
// sweep: the fused output columns replace the position buffers and the
// gathers, so the allocation sequence differs from the wide sweep above.
// Both a 4 B / 8 B payload pair and a keys-only R side are swept.
class NarrowJoinFailureSweepTest
    : public ::testing::TestWithParam<join::JoinAlgo> {};

TEST_P(NarrowJoinFailureSweepTest, EveryAllocationPointFailsCleanly) {
  const join::JoinAlgo algo = GetParam();
  for (const int r_payloads : {1, 0}) {
    workload::JoinWorkloadSpec spec;
    spec.r_rows = 1 << 9;
    spec.s_rows = 1 << 10;
    spec.r_payload_cols = r_payloads;
    spec.s_payload_type = DataType::kInt64;
    spec.seed = 7;
    const workload::JoinWorkload w =
        workload::GenerateJoinInput(spec).ValueOrDie();
    auto run_query = [&](Device& device) -> Result<Rows> {
      GPUJOIN_ASSIGN_OR_RETURN(Table r, Table::FromHost(device, w.r));
      GPUJOIN_ASSIGN_OR_RETURN(Table s, Table::FromHost(device, w.s));
      GPUJOIN_ASSIGN_OR_RETURN(join::JoinRunResult jr,
                               join::RunJoin(device, algo, r, s, {}));
      return join::CanonicalRows(jr.output.ToHost());
    };
    const std::string label = std::string(join::JoinAlgoName(algo)) +
                              " narrow, R payloads " +
                              std::to_string(r_payloads);
    ExhaustiveFailureSweep(label.c_str(), run_query);
  }
}

INSTANTIATE_TEST_SUITE_P(
    FusedAlgos, NarrowJoinFailureSweepTest,
    ::testing::Values(join::JoinAlgo::kSmjUm, join::JoinAlgo::kSmjOm,
                      join::JoinAlgo::kPhjUm, join::JoinAlgo::kPhjOm),
    [](const ::testing::TestParamInfo<join::JoinAlgo>& info) {
      std::string name = join::JoinAlgoName(info.param);
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

class GroupByFailureSweepTest
    : public ::testing::TestWithParam<groupby::GroupByAlgo> {};

TEST_P(GroupByFailureSweepTest, EveryAllocationPointFailsCleanly) {
  const groupby::GroupByAlgo algo = GetParam();
  const HostTable input = SweepGroupByWorkload();
  const groupby::GroupBySpec spec = SweepGroupBySpec();
  auto run_query = [&](Device& device) -> Result<Rows> {
    GPUJOIN_ASSIGN_OR_RETURN(Table t, Table::FromHost(device, input));
    GPUJOIN_ASSIGN_OR_RETURN(groupby::GroupByRunResult gr,
                             groupby::RunGroupBy(device, algo, t, spec, {}));
    return join::CanonicalRows(gr.output.ToHost());
  };
  ExhaustiveFailureSweep(groupby::GroupByAlgoName(algo), run_query);
}

INSTANTIATE_TEST_SUITE_P(
    AllGroupByAlgos, GroupByFailureSweepTest,
    ::testing::ValuesIn(groupby::kAllGroupByAlgos),
    [](const ::testing::TestParamInfo<groupby::GroupByAlgo>& info) {
      std::string name = groupby::GroupByAlgoName(info.param);
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

// GB-HASH-GLOBAL allocates a different table per key domain: the dense
// sweep input above direct-maps (accumulators only), the same rows with
// spread keys hash (key array + accumulators). Both tables' allocation
// points fail cleanly with zero leaks.
TEST(GroupByTableFailureSweepTest, DirectAndHashedGlobalTablesFailCleanly) {
  const groupby::GroupBySpec spec = SweepGroupBySpec();
  const HostTable dense = SweepGroupByWorkload();
  HostTable sparse = dense;
  for (int64_t& k : sparse.columns[0].values) k = k * 1023 - 5000;
  uint64_t allocations[2] = {0, 0};
  for (int i = 0; i < 2; ++i) {
    const HostTable& input = i == 0 ? dense : sparse;
    auto run_query = [&](Device& device) -> Result<Rows> {
      GPUJOIN_ASSIGN_OR_RETURN(Table t, Table::FromHost(device, input));
      GPUJOIN_ASSIGN_OR_RETURN(
          groupby::GroupByRunResult gr,
          groupby::RunGroupBy(device, groupby::GroupByAlgo::kHashGlobal, t,
                              spec, {}));
      return join::CanonicalRows(gr.output.ToHost());
    };
    allocations[i] = RunBaseline(run_query).query_allocations;
    ExhaustiveFailureSweep(i == 0 ? "direct-mapped" : "hashed", run_query);
  }
  // The hashed table's extra allocation is its key array.
  EXPECT_EQ(allocations[0] + 1, allocations[1]);
}

// OneSweep histogram objects: a wide GFTR join keeps each side's from its
// transform to Algorithm 1's lazy re-transforms, and a multi-column GB-SORT
// shares column 1's among its aggregate columns. Every allocation point,
// the histogram objects' included, fails cleanly.
TEST(HistogramReuseFailureSweepTest, WideGftrJoinsAndMultiColumnGbSort) {
  std::vector<std::string> failures;
  auto record = [&](Result<Rows> rows) {
    if (!rows.ok()) failures.push_back(rows.status().message());
    return rows;
  };
  const auto histogram_failures = [&] {
    return std::count_if(failures.begin(), failures.end(),
                         [](const std::string& m) {
                           return m.find("radix_histograms") != std::string::npos;
                         });
  };
  workload::JoinWorkloadSpec jspec;
  jspec.r_rows = 1 << 9;
  jspec.s_rows = 1 << 10;
  jspec.r_payload_cols = 3;
  jspec.s_payload_cols = 3;
  jspec.seed = 7;
  const workload::JoinWorkload w = workload::GenerateJoinInput(jspec).ValueOrDie();
  for (join::JoinAlgo algo : {join::JoinAlgo::kSmjOm, join::JoinAlgo::kPhjOm}) {
    failures.clear();
    auto run_query = [&](Device& device) -> Result<Rows> {
      GPUJOIN_ASSIGN_OR_RETURN(Table r, Table::FromHost(device, w.r));
      GPUJOIN_ASSIGN_OR_RETURN(Table s, Table::FromHost(device, w.s));
      Result<join::JoinRunResult> jr = join::RunJoin(device, algo, r, s, {});
      if (!jr.ok()) return record(jr.status());
      return join::CanonicalRows(jr->output.ToHost());
    };
    ExhaustiveFailureSweep(join::JoinAlgoName(algo), run_query);
    EXPECT_EQ(histogram_failures(), 2) << "one object per side";
  }

  workload::GroupByWorkloadSpec gspec;
  gspec.rows = 1 << 10;
  gspec.num_groups = 1 << 6;
  gspec.payload_cols = 3;
  gspec.seed = 11;
  const HostTable input = workload::GenerateGroupByInput(gspec).ValueOrDie();
  groupby::GroupBySpec spec;
  spec.aggregates.push_back({1, groupby::AggOp::kSum});
  spec.aggregates.push_back({2, groupby::AggOp::kMax});
  spec.aggregates.push_back({3, groupby::AggOp::kMin});
  failures.clear();
  auto run_groupby = [&](Device& device) -> Result<Rows> {
    GPUJOIN_ASSIGN_OR_RETURN(Table t, Table::FromHost(device, input));
    Result<groupby::GroupByRunResult> gr = groupby::RunGroupBy(
        device, groupby::GroupByAlgo::kSortBased, t, spec, {});
    if (!gr.ok()) return record(gr.status());
    return join::CanonicalRows(gr->output.ToHost());
  };
  ExhaustiveFailureSweep("GB-SORT, 3 aggregate columns", run_groupby);
  EXPECT_EQ(histogram_failures(), 1) << "one object for the key column";
}

// Chaos variant: probabilistic injection across many seeds; whatever
// happens, the device must come back leak-free and replayable.
TEST(FaultChaosTest, ProbabilisticFaultsNeverLeak) {
  const workload::JoinWorkload w = SweepJoinWorkload();
  for (uint64_t seed = 0; seed < 8; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Device device = MakeTestDevice();
    device.set_fault_injector(FaultInjector::FailWithProbability(0.05, seed));
    {
      auto attempt = [&]() -> Status {
        GPUJOIN_ASSIGN_OR_RETURN(Table r, Table::FromHost(device, w.r));
        GPUJOIN_ASSIGN_OR_RETURN(Table s, Table::FromHost(device, w.s));
        GPUJOIN_ASSIGN_OR_RETURN(
            join::JoinRunResult jr,
            join::RunJoin(device, join::JoinAlgo::kPhjOm, r, s, {}));
        (void)jr;
        return Status::OK();
      };
      const Status st = attempt();
      if (!st.ok()) {
        EXPECT_EQ(st.code(), StatusCode::kResourceExhausted) << st.ToString();
      }
    }
    device.clear_fault_injector();
    ASSERT_OK(device.CheckNoLeaks());
    ASSERT_OK(device.Reset());
  }
}

}  // namespace
}  // namespace gpujoin::vgpu
