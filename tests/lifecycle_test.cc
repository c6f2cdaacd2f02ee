// Query lifecycle: cooperative cancellation, simulated-cycle deadlines,
// backoff policy, and the exhaustive cancellation sweeps — for EVERY kernel
// boundary k of every join algorithm and group-by strategy (and the
// out-of-core fragment stream), trip the cancel token at k and require
//   (a) a clean structured kCancelled (never a crash, never a completed
//       result),
//   (b) zero leaked bytes once the query's inputs are dropped, and
//   (c) that the same device, after Reset(), completes a fresh run
//       bit-identically (rows, simulated stats, simulated clock) to an
//       untouched device.
// Deadlines get the determinism treatment: the same budget trips at the
// same kernel with the same clock on every run, and an installed control
// with no token/deadline armed leaves simulated results bit-identical to
// no control at all.
// The preemption hook gets the same sweep: for every kernel boundary k, a
// second query runs nested at k and the interrupted one still completes
// with its baseline rows and zero leaks; a preemption point inside a host
// transfer splits it exactly there without changing its total.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "common/resilience.h"
#include "groupby/groupby.h"
#include "join/join.h"
#include "join/out_of_core.h"
#include "join/reference.h"
#include "obs/trace.h"
#include "storage/table.h"
#include "test_util.h"
#include "vgpu/device.h"
#include "vgpu/lifecycle.h"
#include "workload/generator.h"

namespace gpujoin::vgpu {
namespace {

using ::gpujoin::testing::MakeTestDevice;
using Rows = std::vector<std::vector<int64_t>>;

// ---------------------------------------------------------------------------
// CancelToken / Deadline / LifecycleControl unit behavior
// ---------------------------------------------------------------------------

TEST(CancelTokenTest, SharedStateAndFirstReasonWins) {
  CancelToken a;
  CancelToken b = a;  // Same underlying state.
  EXPECT_TRUE(a.SameTokenAs(b));
  EXPECT_FALSE(a.cancel_requested());
  b.RequestCancel("first");
  EXPECT_TRUE(a.cancel_requested());
  EXPECT_EQ(a.reason(), "first");
  a.RequestCancel("second");  // Idempotent: the first reason sticks.
  EXPECT_EQ(b.reason(), "first");

  CancelToken c;
  EXPECT_FALSE(a.SameTokenAs(c));
  EXPECT_FALSE(c.cancel_requested());
}

TEST(DeadlineTest, NeverIsUnarmedAndAfterCyclesIsAbsolute) {
  EXPECT_FALSE(Deadline::Never().armed());
  const Deadline d = Deadline::AfterCycles(1000, 500);
  EXPECT_TRUE(d.armed());
  EXPECT_EQ(d.cycles, 1500);
}

TEST(LifecycleControlTest, TokenTripsToCancelledAndSticks) {
  LifecycleControl control;
  EXPECT_FALSE(control.tripped());
  control.token().RequestCancel("user hit ^C");
  control.Evaluate(/*elapsed_cycles=*/0);
  ASSERT_TRUE(control.tripped());
  EXPECT_TRUE(control.status().IsCancelled());
  EXPECT_NE(control.status().message().find("user hit ^C"), std::string::npos);
  // Sticky: later evaluations cannot overwrite the first trip.
  control.OnClockAdvance(1e12);
  EXPECT_TRUE(control.status().IsCancelled());
}

TEST(LifecycleControlTest, DeadlineTripsToDeadlineExceeded) {
  LifecycleControl control(CancelToken{}, Deadline{1000});
  control.OnClockAdvance(999);
  EXPECT_FALSE(control.tripped());
  control.OnClockAdvance(1001);
  ASSERT_TRUE(control.tripped());
  EXPECT_TRUE(control.status().IsDeadlineExceeded());
}

TEST(LifecycleControlTest, CancelAtKernelKnobCountsLaunches) {
  LifecycleControl control;
  control.set_cancel_at_kernel(3);
  control.OnKernelLaunch(0);
  control.OnKernelLaunch(0);
  EXPECT_FALSE(control.tripped());
  control.OnKernelLaunch(0);
  ASSERT_TRUE(control.tripped());
  EXPECT_TRUE(control.status().IsCancelled());
  EXPECT_EQ(control.kernels_launched(), 3u);
}

TEST(LifecycleControlTest, RearmClearsTripAndCounterButNotKnobs) {
  LifecycleControl control(CancelToken{}, Deadline{100});
  control.OnClockAdvance(200);
  ASSERT_TRUE(control.tripped());
  control.Rearm();
  EXPECT_FALSE(control.tripped());
  EXPECT_EQ(control.kernels_launched(), 0u);
  // The deadline is caller state: still armed, trips again.
  control.OnClockAdvance(200);
  EXPECT_TRUE(control.tripped());
}

// ---------------------------------------------------------------------------
// BackoffPolicy
// ---------------------------------------------------------------------------

TEST(BackoffPolicyTest, AttemptBudgetIsFirstTryInclusive) {
  BackoffPolicy p;
  p.max_attempts = 3;
  EXPECT_TRUE(p.AttemptAllowed(1));
  EXPECT_TRUE(p.AttemptAllowed(3));
  EXPECT_FALSE(p.AttemptAllowed(4));
}

TEST(BackoffPolicyTest, DelaysAreDeterministicPerPolicy) {
  BackoffPolicy a, b;
  for (int i = 1; i <= 10; ++i) {
    EXPECT_EQ(a.DelayCycles(i), b.DelayCycles(i)) << "retry " << i;
  }
  b.seed = 123;  // A different seed draws different jitter.
  EXPECT_NE(a.DelayCycles(1), b.DelayCycles(1));
}

TEST(BackoffPolicyTest, ExponentialGrowthWithJitterBounds) {
  BackoffPolicy p;  // base 50k, x2, jitter 0.25.
  double prev = 0;
  for (int i = 1; i <= 5; ++i) {
    const double d = p.DelayCycles(i);
    const double nominal = 50'000 * std::pow(2.0, i - 1);
    EXPECT_GE(d, nominal * 0.75) << "retry " << i;
    EXPECT_LT(d, nominal * 1.25) << "retry " << i;
    EXPECT_GT(d, prev) << "retry " << i;
    prev = d;
  }
}

TEST(BackoffPolicyTest, NoJitterIsExactAndCapped) {
  BackoffPolicy p;
  p.jitter = 0;
  p.base_cycles = 100;
  p.multiplier = 3;
  p.max_cycles = 500;
  EXPECT_EQ(p.DelayCycles(1), 100);
  EXPECT_EQ(p.DelayCycles(2), 300);
  EXPECT_EQ(p.DelayCycles(3), 500);  // 900 capped.
  EXPECT_EQ(p.DelayCycles(9), 500);
}

TEST(BackoffPolicyTest, ZeroBaseDisablesDelays) {
  BackoffPolicy p;
  p.base_cycles = 0;
  EXPECT_EQ(p.DelayCycles(1), 0);
  EXPECT_EQ(p.DelayCycles(5), 0);
}

// ---------------------------------------------------------------------------
// Device integration
// ---------------------------------------------------------------------------

TEST(DeviceLifecycleTest, TrippedControlRejectsAllocationsUncounted) {
  Device device(DeviceConfig::A100());
  LifecycleControl control;
  device.set_lifecycle(&control);
  auto a = device.AllocateRaw(128, "pre_cancel");
  ASSERT_TRUE(a.ok());
  control.token().RequestCancel();
  auto b = device.AllocateRaw(128, "post_cancel");
  ASSERT_FALSE(b.ok());
  EXPECT_TRUE(b.status().IsCancelled()) << b.status().ToString();
  // The rejected attempt is NOT counted: FaultInjector FailNth numbering
  // stays aligned with the fault-free run.
  EXPECT_EQ(device.memory_stats().alloc_attempts, 1u);
  ASSERT_OK(device.FreeRaw(*a));
  device.set_lifecycle(nullptr);
}

TEST(DeviceLifecycleTest, AdvanceClockTripsDeadline) {
  Device device(DeviceConfig::A100());
  LifecycleControl control(CancelToken{}, Deadline::AfterCycles(0, 1000));
  device.set_lifecycle(&control);
  ASSERT_OK(device.LifecycleStatus());
  device.AdvanceClock(500);
  ASSERT_OK(device.LifecycleStatus());
  device.AdvanceClock(501);
  const Status st = device.LifecycleStatus();
  EXPECT_TRUE(st.IsDeadlineExceeded()) << st.ToString();
  device.set_lifecycle(nullptr);
}

TEST(DeviceLifecycleTest, ResetDetachesControl) {
  Device device(DeviceConfig::A100());
  LifecycleControl control;
  device.set_lifecycle(&control);
  ASSERT_OK(device.Reset());
  EXPECT_EQ(device.lifecycle(), nullptr);
}

TEST(DeviceLifecycleTest, LifecycleScopeRestoresPrevious) {
  Device device(DeviceConfig::A100());
  LifecycleControl outer, inner;
  device.set_lifecycle(&outer);
  {
    LifecycleScope scope(device, inner);
    EXPECT_EQ(device.lifecycle(), &inner);
  }
  EXPECT_EQ(device.lifecycle(), &outer);
  device.set_lifecycle(nullptr);
}

/// Records each transfer piece the device reports.
class TransferRecorder : public KernelObserver {
 public:
  struct Piece {
    TransferDirection dir;
    uint64_t bytes;
    double begin, end;
  };
  void OnKernelBegin(const Device&, const char*) override {}
  void OnKernelEnd(const Device&, const char*, const KernelStats&,
                   double) override {}
  void OnTransferBegin(const Device& device, TransferDirection dir,
                       uint64_t bytes) override {
    pieces.push_back({dir, bytes, device.elapsed_cycles(), 0});
  }
  void OnTransferEnd(const Device& device, TransferDirection,
                     uint64_t) override {
    pieces.back().end = device.elapsed_cycles();
  }
  std::vector<Piece> pieces;
};

TEST(DeviceLifecycleTest, TransferSplitsExactlyAtThePreemptionPoint) {
  constexpr uint64_t kBytes = 25'000'000;
  Device solo = MakeTestDevice();
  solo.ChargeHostTransfer(TransferDirection::kHostToDevice, kBytes);
  const double total = solo.elapsed_cycles();

  Device device = MakeTestDevice();
  TransferRecorder recorder;
  device.set_kernel_observer(&recorder);
  LifecycleControl control;
  const double at = total / 3;
  double fired_at = -1;
  control.set_preempt_at_cycles(at);
  control.set_preempt_hook([&] {
    fired_at = device.elapsed_cycles();
    device.AdvanceClock(1000);  // Nested work.
  });
  {
    LifecycleScope scope(device, control);
    device.ChargeHostTransfer(TransferDirection::kHostToDevice, kBytes);
  }
  device.set_kernel_observer(nullptr);
  EXPECT_EQ(fired_at, at);
  ASSERT_EQ(recorder.pieces.size(), 2u);
  EXPECT_EQ(recorder.pieces[0].begin, 0);
  EXPECT_EQ(recorder.pieces[0].end, at);
  EXPECT_EQ(recorder.pieces[1].begin, at + 1000);
  // The transfer's charged cycles and bytes are unchanged by the split.
  EXPECT_NEAR(device.elapsed_cycles(), total + 1000, 1e-6);
  EXPECT_EQ(recorder.pieces[0].bytes + recorder.pieces[1].bytes, kBytes);
  EXPECT_GT(recorder.pieces[0].bytes, 0u);
  // The hook disarmed itself: a later transfer is not split.
  device.ChargeHostTransfer(TransferDirection::kDeviceToHost, 1024);
  EXPECT_EQ(recorder.pieces.size(), 2u);  // Observer detached.
}

TEST(DeviceLifecycleTest, ConstructorInstallIsEquivalentToSetter) {
  LifecycleControl control;
  control.set_cancel_at_kernel(1);
  Device device(DeviceConfig::A100(), FaultInjector{}, &control);
  EXPECT_EQ(device.lifecycle(), &control);
  {
    KernelScope ks(device, "probe");
    device.Compute(1);
  }
  EXPECT_TRUE(device.LifecycleStatus().IsCancelled());
  device.set_lifecycle(nullptr);
}

// ---------------------------------------------------------------------------
// Cancellation sweeps over every kernel boundary
// ---------------------------------------------------------------------------

workload::JoinWorkload SweepJoinWorkload() {
  workload::JoinWorkloadSpec spec;
  spec.r_rows = 1 << 9;
  spec.s_rows = 1 << 10;
  spec.r_payload_cols = 1;
  spec.s_payload_cols = 2;
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
  return spec;
}

struct BaselineRun {
  Rows rows;
  KernelStats stats;
  double cycles = 0;
  uint64_t kernels = 0;  // Kernel launches the full query makes.
};

/// Baseline with an installed-but-unarmed control: counts the query's
/// kernel launches AND pins the expected bit-identical results. The
/// no-perturbation contract (unarmed control == no control) is asserted by
/// every sweep's replay, which runs control-free.
template <typename RunQuery>
BaselineRun RunBaseline(const RunQuery& run_query) {
  Device device = MakeTestDevice();
  LifecycleControl control;
  BaselineRun base;
  {
    LifecycleScope scope(device, control);
    Result<Rows> rows = run_query(device);
    GPUJOIN_CHECK_OK(rows.status());
    base.rows = std::move(rows).value();
  }
  base.stats = device.total_stats();
  base.cycles = device.elapsed_cycles();
  base.kernels = control.kernels_launched();
  return base;
}

/// The sweep protocol (mirrors ExhaustiveFailureSweep): for every kernel
/// boundary k, cancel at k and demand a clean kCancelled, zero leaks, and a
/// bit-identical control-free replay after Reset().
template <typename RunQuery>
void ExhaustiveCancellationSweep(const char* label, const RunQuery& run_query) {
  const BaselineRun base = RunBaseline(run_query);
  ASSERT_GT(base.kernels, 0u) << label;

  for (uint64_t k = 1; k <= base.kernels; ++k) {
    SCOPED_TRACE(std::string(label) + " cancelled at kernel boundary " +
                 std::to_string(k));
    Device device = MakeTestDevice();
    LifecycleControl control;
    control.set_cancel_at_kernel(k);
    {
      LifecycleScope scope(device, control);
      Result<Rows> rows = run_query(device);
      ASSERT_FALSE(rows.ok());
      EXPECT_TRUE(rows.status().IsCancelled()) << rows.status().ToString();
    }

    // Zero leaked bytes: cancellation rides the same error paths the fault
    // sweep proves clean.
    ASSERT_OK(device.CheckNoLeaks());

    // The survivor replays bit-identically with no control installed.
    ASSERT_OK(device.Reset());
    Result<Rows> replay = run_query(device);
    ASSERT_TRUE(replay.ok()) << replay.status().ToString();
    EXPECT_EQ(*replay, base.rows);
    EXPECT_EQ(device.total_stats(), base.stats);
    EXPECT_EQ(device.elapsed_cycles(), base.cycles);
    ASSERT_OK(device.CheckNoLeaks());
  }
}

/// The preemption protocol: for every kernel boundary k, the control's
/// hook runs at k (the preempt-at-kernel knob) and runs a whole second copy
/// of the query nested on the same device. The hook must see no control
/// and no allocation-tag frames, leave the device at its entry watermark,
/// and the interrupted query must then finish with its baseline rows, its
/// own kernel count, and zero leaks.
template <typename RunQuery>
void ExhaustivePreemptionSweep(const char* label, const RunQuery& run_query) {
  const BaselineRun base = RunBaseline(run_query);
  ASSERT_GT(base.kernels, 0u) << label;

  for (uint64_t k = 1; k <= base.kernels; ++k) {
    SCOPED_TRACE(std::string(label) + " preempted at kernel boundary " +
                 std::to_string(k));
    Device device = MakeTestDevice();
    LifecycleControl control;
    control.set_preempt_at_kernel(k);
    int fired = 0;
    Rows nested;
    control.set_preempt_hook([&] {
      ++fired;
      EXPECT_EQ(device.lifecycle(), nullptr);
      const uint64_t live = device.memory_stats().live_bytes;
      Result<Rows> rows = run_query(device);
      ASSERT_TRUE(rows.ok()) << rows.status().ToString();
      nested = std::move(rows).value();
      EXPECT_EQ(device.memory_stats().live_bytes, live);
      for (const AllocationRecord& a : device.OutstandingAllocations()) {
        EXPECT_EQ(a.tag.rfind("outer/", 0), 0u) << a.tag;
      }
    });
    {
      AllocTagScope tag(device, "outer");
      LifecycleScope scope(device, control);
      Result<Rows> rows = run_query(device);
      ASSERT_TRUE(rows.ok()) << rows.status().ToString();
      EXPECT_EQ(*rows, base.rows);
    }
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(nested, base.rows);
    EXPECT_EQ(control.kernels_launched(), base.kernels);
    EXPECT_EQ(device.kernels_launched(), 2 * base.kernels);
    ASSERT_OK(device.CheckNoLeaks());
  }
}

class JoinCancellationSweepTest
    : public ::testing::TestWithParam<join::JoinAlgo> {};

TEST_P(JoinCancellationSweepTest, EveryKernelBoundaryCancelsCleanly) {
  const join::JoinAlgo algo = GetParam();
  const workload::JoinWorkload w = SweepJoinWorkload();
  auto run_query = [&](Device& device) -> Result<Rows> {
    GPUJOIN_ASSIGN_OR_RETURN(Table r, Table::FromHost(device, w.r));
    GPUJOIN_ASSIGN_OR_RETURN(Table s, Table::FromHost(device, w.s));
    GPUJOIN_ASSIGN_OR_RETURN(join::JoinRunResult jr,
                             join::RunJoin(device, algo, r, s, {}));
    return join::CanonicalRows(jr.output.ToHost());
  };
  ExhaustiveCancellationSweep(join::JoinAlgoName(algo), run_query);
}

TEST_P(JoinCancellationSweepTest, EveryKernelBoundaryPreemptsCleanly) {
  const join::JoinAlgo algo = GetParam();
  const workload::JoinWorkload w = SweepJoinWorkload();
  auto run_query = [&](Device& device) -> Result<Rows> {
    GPUJOIN_ASSIGN_OR_RETURN(Table r, Table::FromHost(device, w.r));
    GPUJOIN_ASSIGN_OR_RETURN(Table s, Table::FromHost(device, w.s));
    GPUJOIN_ASSIGN_OR_RETURN(join::JoinRunResult jr,
                             join::RunJoin(device, algo, r, s, {}));
    return join::CanonicalRows(jr.output.ToHost());
  };
  ExhaustivePreemptionSweep(join::JoinAlgoName(algo), run_query);
}

INSTANTIATE_TEST_SUITE_P(
    AllJoinAlgos, JoinCancellationSweepTest,
    ::testing::ValuesIn(join::kAllJoinAlgos),
    [](const ::testing::TestParamInfo<join::JoinAlgo>& info) {
      std::string name = join::JoinAlgoName(info.param);
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

class GroupByCancellationSweepTest
    : public ::testing::TestWithParam<groupby::GroupByAlgo> {};

TEST_P(GroupByCancellationSweepTest, EveryKernelBoundaryCancelsCleanly) {
  const groupby::GroupByAlgo algo = GetParam();
  const HostTable input = SweepGroupByWorkload();
  const groupby::GroupBySpec spec = SweepGroupBySpec();
  auto run_query = [&](Device& device) -> Result<Rows> {
    GPUJOIN_ASSIGN_OR_RETURN(Table t, Table::FromHost(device, input));
    GPUJOIN_ASSIGN_OR_RETURN(groupby::GroupByRunResult gr,
                             groupby::RunGroupBy(device, algo, t, spec, {}));
    return join::CanonicalRows(gr.output.ToHost());
  };
  ExhaustiveCancellationSweep(groupby::GroupByAlgoName(algo), run_query);
}

TEST_P(GroupByCancellationSweepTest, EveryKernelBoundaryPreemptsCleanly) {
  const groupby::GroupByAlgo algo = GetParam();
  const HostTable input = SweepGroupByWorkload();
  const groupby::GroupBySpec spec = SweepGroupBySpec();
  auto run_query = [&](Device& device) -> Result<Rows> {
    GPUJOIN_ASSIGN_OR_RETURN(Table t, Table::FromHost(device, input));
    GPUJOIN_ASSIGN_OR_RETURN(groupby::GroupByRunResult gr,
                             groupby::RunGroupBy(device, algo, t, spec, {}));
    return join::CanonicalRows(gr.output.ToHost());
  };
  ExhaustivePreemptionSweep(groupby::GroupByAlgoName(algo), run_query);
}

INSTANTIATE_TEST_SUITE_P(
    AllGroupByAlgos, GroupByCancellationSweepTest,
    ::testing::ValuesIn(groupby::kAllGroupByAlgos),
    [](const ::testing::TestParamInfo<groupby::GroupByAlgo>& info) {
      std::string name = groupby::GroupByAlgoName(info.param);
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

// The out-of-core stream sweeps its fragment boundaries too: every kernel
// of every fragment is a clean cancellation point.
TEST(OutOfCoreCancellationTest, EveryKernelBoundaryCancelsCleanly) {
  const workload::JoinWorkload w = SweepJoinWorkload();
  join::OutOfCoreOptions opts;
  opts.fragment_bits = 2;  // 4 fragments.
  auto run_query = [&](Device& device) -> Result<Rows> {
    GPUJOIN_ASSIGN_OR_RETURN(
        join::OutOfCoreRunResult oc,
        join::RunOutOfCoreJoin(device, join::JoinAlgo::kPhjOm, w.r, w.s, opts));
    return join::CanonicalRows(oc.output);
  };
  ExhaustiveCancellationSweep("out_of_core:PHJ-OM", run_query);
}

// ---------------------------------------------------------------------------
// Deadline determinism
// ---------------------------------------------------------------------------

TEST(DeadlineDeterminismTest, SameBudgetTripsAtTheSameKernelEveryRun) {
  const workload::JoinWorkload w = SweepJoinWorkload();
  auto run_query = [&](Device& device) -> Result<Rows> {
    GPUJOIN_ASSIGN_OR_RETURN(Table r, Table::FromHost(device, w.r));
    GPUJOIN_ASSIGN_OR_RETURN(Table s, Table::FromHost(device, w.s));
    GPUJOIN_ASSIGN_OR_RETURN(
        join::JoinRunResult jr,
        join::RunJoin(device, join::JoinAlgo::kSmjUm, r, s, {}));
    return join::CanonicalRows(jr.output.ToHost());
  };
  const BaselineRun base = RunBaseline(run_query);
  const double budget = base.cycles / 2;  // Must trip mid-query.

  double tripped_cycles[2] = {0, 0};
  uint64_t tripped_kernel[2] = {0, 0};
  for (int rep = 0; rep < 2; ++rep) {
    SCOPED_TRACE("rep " + std::to_string(rep));
    Device device = MakeTestDevice();
    LifecycleControl control(CancelToken{}, Deadline::AfterCycles(0, budget));
    {
      LifecycleScope scope(device, control);
      Result<Rows> rows = run_query(device);
      ASSERT_FALSE(rows.ok());
      EXPECT_TRUE(rows.status().IsDeadlineExceeded())
          << rows.status().ToString();
    }
    ASSERT_OK(device.CheckNoLeaks());
    tripped_cycles[rep] = device.elapsed_cycles();
    tripped_kernel[rep] = control.kernels_launched();

    ASSERT_OK(device.Reset());
    Result<Rows> replay = run_query(device);
    ASSERT_TRUE(replay.ok()) << replay.status().ToString();
    EXPECT_EQ(*replay, base.rows);
    EXPECT_EQ(device.elapsed_cycles(), base.cycles);
    ASSERT_OK(device.CheckNoLeaks());
  }
  EXPECT_EQ(tripped_cycles[0], tripped_cycles[1]);
  EXPECT_EQ(tripped_kernel[0], tripped_kernel[1]);
  EXPECT_GT(tripped_kernel[0], 0u);
  EXPECT_LT(tripped_kernel[0], base.kernels);
}

TEST(DeadlineDeterminismTest, HostTransferTripsDeadlineBetweenFragments) {
  const workload::JoinWorkload w = SweepJoinWorkload();
  join::OutOfCoreOptions opts;
  opts.fragment_bits = 2;
  // Baseline: total cycles of the full out-of-core run.
  Device base_device = MakeTestDevice();
  ASSERT_OK_AND_ASSIGN(
      join::OutOfCoreRunResult base,
      join::RunOutOfCoreJoin(base_device, join::JoinAlgo::kPhjOm, w.r, w.s,
                             opts));
  (void)base;
  const double total = base_device.elapsed_cycles();

  Device device = MakeTestDevice();
  LifecycleControl control(CancelToken{}, Deadline::AfterCycles(0, total / 2));
  {
    LifecycleScope scope(device, control);
    auto oc =
        join::RunOutOfCoreJoin(device, join::JoinAlgo::kPhjOm, w.r, w.s, opts);
    ASSERT_FALSE(oc.ok());
    EXPECT_TRUE(oc.status().IsDeadlineExceeded()) << oc.status().ToString();
  }
  ASSERT_OK(device.CheckNoLeaks());
  ASSERT_OK(device.Reset());
}

// ---------------------------------------------------------------------------
// Observability: lifecycle stops surface as trace instants
// ---------------------------------------------------------------------------

TEST(LifecycleTraceTest, SeamObservationEmitsInstantEvents) {
  obs::Tracer& tracer = obs::Tracer::Global();
  tracer.Clear();
  tracer.set_enabled(true);
  {
    Device device = MakeTestDevice();
    LifecycleControl control;
    LifecycleScope scope(device, control);
    // Clean control: the seam is silent.
    ASSERT_OK(obs::CheckLifecycle(device));
    EXPECT_TRUE(tracer.events().empty());

    control.token().RequestCancel("operator abort");
    const Status cancelled = obs::CheckLifecycle(device);
    EXPECT_TRUE(cancelled.IsCancelled()) << cancelled.ToString();

    control.Rearm();
    control.set_token(CancelToken{});  // Rearm keeps the caller's token.
    control.set_deadline(Deadline{0});
    device.AdvanceClock(1);
    const Status late = obs::CheckLifecycle(device);
    EXPECT_TRUE(late.IsDeadlineExceeded()) << late.ToString();
    // Observer wiring survives past the scope; detach before device dies.
    device.set_kernel_observer(nullptr);
  }
  bool saw_cancel = false, saw_deadline = false;
  for (const obs::EventRecord& e : tracer.events()) {
    if (e.name == "lifecycle:cancelled") saw_cancel = true;
    if (e.name == "lifecycle:deadline_exceeded") saw_deadline = true;
  }
  EXPECT_TRUE(saw_cancel);
  EXPECT_TRUE(saw_deadline);
  tracer.set_enabled(false);
  tracer.Clear();
}

}  // namespace
}  // namespace gpujoin::vgpu
