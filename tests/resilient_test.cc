// Resilient execution wrappers: the degradation ladder must turn resource
// exhaustion (real capacity or injected faults) into correct answers when
// any rung can complete, and into clean structured errors otherwise —
// never crashes, never leaks.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "groupby/resilient.h"
#include "join/pipeline.h"
#include "join/reference.h"
#include "join/resilient.h"
#include "storage/table.h"
#include "test_util.h"
#include "vgpu/device.h"
#include "vgpu/fault.h"
#include "workload/generator.h"

namespace gpujoin {
namespace {

using ::gpujoin::testing::MakeTestDevice;

workload::JoinWorkload SmallJoinWorkload() {
  workload::JoinWorkloadSpec spec;
  spec.r_rows = 1 << 9;
  spec.s_rows = 1 << 10;
  spec.seed = 5;
  return workload::GenerateJoinInput(spec).ValueOrDie();
}

TEST(ResilientJoinTest, FirstAttemptSucceedsWithoutDegradation) {
  const workload::JoinWorkload w = SmallJoinWorkload();
  vgpu::Device device = MakeTestDevice();
  testing::ScopedLeakCheck leak_check(device);
  ASSERT_OK_AND_ASSIGN(
      join::ResilientJoinResult res,
      join::RunJoinResilient(device, join::JoinAlgo::kPhjOm, w.r, w.s));
  EXPECT_EQ(res.attempts, 1);
  EXPECT_FALSE(res.used_out_of_core);
  EXPECT_TRUE(res.degradation.empty());
  EXPECT_EQ(join::CanonicalRows(res.output), join::ReferenceJoinRows(w.r, w.s));
}

TEST(ResilientJoinTest, OneShotFaultIsAbsorbedByRetry) {
  const workload::JoinWorkload w = SmallJoinWorkload();
  vgpu::Device device = MakeTestDevice();
  testing::ScopedLeakCheck leak_check(device);
  // The 5th allocation of the first attempt fails once; a retry (same or
  // degraded parameters) must complete and still be correct.
  device.set_fault_injector(vgpu::FaultInjector::FailNth(5));
  ASSERT_OK_AND_ASSIGN(
      join::ResilientJoinResult res,
      join::RunJoinResilient(device, join::JoinAlgo::kPhjOm, w.r, w.s));
  EXPECT_GT(res.attempts, 1);
  EXPECT_FALSE(res.degradation.empty());
  EXPECT_EQ(join::CanonicalRows(res.output), join::ReferenceJoinRows(w.r, w.s));
  device.clear_fault_injector();
}

TEST(ResilientJoinTest, UndersizedDeviceFallsBackToOutOfCore) {
  // A device whose whole capacity is smaller than the inputs: no in-memory
  // attempt can ever fit, so the ladder must reach the out-of-core rung and
  // still produce the exact join result.
  workload::JoinWorkloadSpec spec;
  spec.r_rows = 1 << 10;
  spec.s_rows = 1 << 11;
  spec.key_type = DataType::kInt64;
  spec.r_payload_type = DataType::kInt64;
  spec.s_payload_type = DataType::kInt64;
  spec.seed = 9;
  const workload::JoinWorkload w =
      workload::GenerateJoinInput(spec).ValueOrDie();

  vgpu::DeviceConfig cfg = vgpu::DeviceConfig::ScaledToWorkload(
      vgpu::DeviceConfig::A100(), uint64_t{1} << 16);
  cfg.global_mem_bytes = 24 * 1024;  // Far below the ~72 KiB of inputs.
  vgpu::Device device(cfg);
  testing::ScopedLeakCheck leak_check(device);

  join::ResilienceOptions opts;
  opts.max_attempts = 6;
  ASSERT_OK_AND_ASSIGN(
      join::ResilientJoinResult res,
      join::RunJoinResilient(device, join::JoinAlgo::kSmjOm, w.r, w.s, opts));
  EXPECT_TRUE(res.used_out_of_core);
  ASSERT_FALSE(res.degradation.empty());
  bool saw_ooc_step = false;
  for (const DegradationStep& step : res.degradation) {
    if (step.action == "out_of_core_fallback") saw_ooc_step = true;
  }
  EXPECT_TRUE(saw_ooc_step);
  EXPECT_EQ(join::CanonicalRows(res.output), join::ReferenceJoinRows(w.r, w.s));
}

TEST(ResilientJoinTest, ExhaustedLadderReturnsStructuredError) {
  const workload::JoinWorkload w = SmallJoinWorkload();
  vgpu::Device device = MakeTestDevice();
  testing::ScopedLeakCheck leak_check(device);
  // Every allocation fails: nothing can complete on any rung.
  device.set_fault_injector(vgpu::FaultInjector::FailAfterBytes(0));
  join::ResilienceOptions opts;
  opts.max_attempts = 3;
  Result<join::ResilientJoinResult> res =
      join::RunJoinResilient(device, join::JoinAlgo::kPhjUm, w.r, w.s, opts);
  ASSERT_FALSE(res.ok());
  EXPECT_EQ(res.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(res.status().message().find("degradation ladder"),
            std::string::npos)
      << res.status().ToString();
  device.clear_fault_injector();
  ASSERT_OK(device.CheckNoLeaks());
}

TEST(ResilientJoinTest, NonResourceErrorsPropagateImmediately) {
  vgpu::Device device = MakeTestDevice();
  HostTable empty;
  Result<join::ResilientJoinResult> res = join::RunJoinResilient(
      device, join::JoinAlgo::kPhjOm, empty, empty);
  ASSERT_FALSE(res.ok());
  EXPECT_EQ(res.status().code(), StatusCode::kInvalidArgument);
}

TEST(ResilientGroupByTest, FirstAttemptSucceedsWithoutDegradation) {
  workload::GroupByWorkloadSpec spec;
  spec.rows = 1 << 10;
  spec.num_groups = 1 << 5;
  const HostTable input = workload::GenerateGroupByInput(spec).ValueOrDie();

  vgpu::Device device = MakeTestDevice();
  groupby::GroupBySpec gspec;
  gspec.aggregates.push_back({1, groupby::AggOp::kSum});
  {
    ASSERT_OK_AND_ASSIGN(groupby::ResilientGroupByResult res,
                         groupby::RunGroupByResilient(
                             device, groupby::GroupByAlgo::kHashGlobal, input,
                             gspec));
    EXPECT_EQ(res.attempts, 1);
    EXPECT_EQ(res.algo_used, groupby::GroupByAlgo::kHashGlobal);
    EXPECT_TRUE(res.degradation.empty());
    EXPECT_GT(res.output_rows, 0u);
  }
  ASSERT_OK(device.CheckNoLeaks());
}

TEST(ResilientGroupByTest, HashGlobalFallsBackToPartitioned) {
  workload::GroupByWorkloadSpec spec;
  spec.rows = 1 << 10;
  spec.num_groups = 1 << 5;
  const HostTable input = workload::GenerateGroupByInput(spec).ValueOrDie();

  vgpu::Device device = MakeTestDevice();
  groupby::GroupBySpec gspec;
  gspec.aggregates.push_back({1, groupby::AggOp::kSum});
  gspec.aggregates.push_back({1, groupby::AggOp::kCount});

  // Reference result, computed before any fault is armed.
  std::vector<std::vector<int64_t>> expected;
  {
    ASSERT_OK_AND_ASSIGN(Table t, Table::FromHost(device, input));
    ASSERT_OK_AND_ASSIGN(
        groupby::GroupByRunResult ref,
        groupby::RunGroupBy(device, groupby::GroupByAlgo::kHashPartitioned, t,
                            gspec));
    expected = join::CanonicalRows(ref.output.ToHost());
  }
  ASSERT_OK(device.CheckNoLeaks());

  {
    // HASH-GLOBAL's first allocation (the global table, right after the
    // one-buffer-per-column upload) fails once; the ladder should land on
    // HASH-PARTITIONED and agree with the reference.
    device.set_fault_injector(
        vgpu::FaultInjector::FailNth(input.columns.size() + 1));
    ASSERT_OK_AND_ASSIGN(groupby::ResilientGroupByResult res,
                         groupby::RunGroupByResilient(
                             device, groupby::GroupByAlgo::kHashGlobal, input,
                             gspec));
    device.clear_fault_injector();
    EXPECT_EQ(res.algo_used, groupby::GroupByAlgo::kHashPartitioned);
    EXPECT_GT(res.attempts, 1);
    ASSERT_FALSE(res.degradation.empty());
    EXPECT_EQ(res.degradation[0].action, "algo_fallback");
    EXPECT_EQ(join::CanonicalRows(res.output), expected);
  }
  ASSERT_OK(device.CheckNoLeaks());
}

TEST(ResilientGroupByTest, ExhaustedLadderReturnsStructuredError) {
  workload::GroupByWorkloadSpec spec;
  spec.rows = 1 << 9;
  const HostTable input = workload::GenerateGroupByInput(spec).ValueOrDie();

  vgpu::Device device = MakeTestDevice();
  groupby::GroupBySpec gspec;
  gspec.aggregates.push_back({1, groupby::AggOp::kSum});
  {
    // The byte budget covers exactly the upload.
    device.set_fault_injector(
        vgpu::FaultInjector::FailAfterBytes(input.device_bytes()));
    Result<groupby::ResilientGroupByResult> res = groupby::RunGroupByResilient(
        device, groupby::GroupByAlgo::kHashGlobal, input, gspec);
    ASSERT_FALSE(res.ok());
    EXPECT_EQ(res.status().code(), StatusCode::kResourceExhausted);
    EXPECT_NE(res.status().message().find("degradation ladder"),
              std::string::npos);
    device.clear_fault_injector();
  }
  ASSERT_OK(device.CheckNoLeaks());
}

TEST(PipelineResilienceTest, PerJoinRetryAbsorbsOneShotFaults) {
  workload::StarSchemaSpec spec;
  spec.fact_rows = 1 << 10;
  spec.num_dims = 2;
  spec.dim_rows = 1 << 8;
  const workload::StarSchema star =
      workload::GenerateStarSchema(spec).ValueOrDie();

  vgpu::Device device = MakeTestDevice();
  {
    ASSERT_OK_AND_ASSIGN(Table fact, Table::FromHost(device, star.fact));
    std::vector<Table> dims;
    for (const HostTable& d : star.dims) {
      ASSERT_OK_AND_ASSIGN(Table dt, Table::FromHost(device, d));
      dims.push_back(std::move(dt));
    }

    // Reference run without faults.
    std::vector<std::vector<int64_t>> expected;
    {
      ASSERT_OK_AND_ASSIGN(
          join::PipelineRunResult ref,
          join::RunJoinPipeline(device, join::JoinAlgo::kPhjOm, fact, dims));
      expected = join::CanonicalRows(ref.output.ToHost());
    }

    // Sweep one-shot faults over the pipeline's first allocation points.
    // The hook only retries the RunJoin calls (not the FK gathers between
    // them), so each k must either be absorbed — correct output plus a
    // degradation log — or fail cleanly; at least one k must be absorbed.
    join::PipelineResilience resilience;
    int absorbed = 0;
    for (uint64_t k = 1; k <= 12; ++k) {
      SCOPED_TRACE("fault at allocation point " + std::to_string(k));
      device.set_fault_injector(vgpu::FaultInjector::FailNth(k));
      Result<join::PipelineRunResult> res = join::RunJoinPipeline(
          device, join::JoinAlgo::kPhjOm, fact, dims, {}, &resilience);
      device.clear_fault_injector();
      if (res.ok()) {
        if (!res->degradation.empty()) {
          EXPECT_EQ(res->degradation[0].action, "retry_more_partition_bits");
          ++absorbed;
        }
        EXPECT_EQ(join::CanonicalRows(res->output.ToHost()), expected);
      } else {
        EXPECT_EQ(res.status().code(), StatusCode::kResourceExhausted)
            << res.status().ToString();
      }
    }
    EXPECT_GT(absorbed, 0) << "no fault ever reached the retry hook";
  }
  ASSERT_OK(device.CheckNoLeaks());
}

/// A device just big enough to hold `star`'s uploaded tables plus
/// `headroom_bytes`: a real, PERSISTENT out-of-memory inside the pipeline's
/// constituent joins — retrying with more radix bits cannot help because the
/// binding constraint is total capacity, not per-partition state.
vgpu::Device MakeCrampedDevice(const workload::StarSchema& star,
                               uint64_t headroom_bytes) {
  uint64_t resident = 0;
  {
    vgpu::Device probe = gpujoin::testing::MakeTestDevice();
    auto fact = Table::FromHost(probe, star.fact).ValueOrDie();
    std::vector<Table> dims;
    for (const HostTable& d : star.dims) {
      dims.push_back(Table::FromHost(probe, d).ValueOrDie());
    }
    resident = probe.memory_stats().live_bytes;
  }
  vgpu::DeviceConfig cfg = vgpu::DeviceConfig::ScaledToWorkload(
      vgpu::DeviceConfig::A100(), uint64_t{1} << 16);
  cfg.global_mem_bytes = resident + headroom_bytes;
  return vgpu::Device(cfg);
}

// Runaway-retry regression: under a persistent resource failure, the
// per-join retry hook used to spin `max_attempts_per_join` identical
// retries with no backoff. It must now (a) stop as soon as the radix-bit
// escalation hits its ceiling (an identical retry cannot succeed),
// regardless of a huge attempt budget, and (b) charge backoff delays to the
// simulated clock between attempts.
TEST(PipelineResilienceTest, PersistentFaultTerminatesWithoutRunawayRetries) {
  workload::StarSchemaSpec spec;
  spec.fact_rows = 1 << 10;
  spec.num_dims = 1;
  spec.dim_rows = 1 << 8;
  const workload::StarSchema star =
      workload::GenerateStarSchema(spec).ValueOrDie();

  vgpu::Device device = MakeCrampedDevice(star, /*headroom_bytes=*/32 << 10);
  {
    ASSERT_OK_AND_ASSIGN(Table fact, Table::FromHost(device, star.fact));
    std::vector<Table> dims;
    ASSERT_OK_AND_ASSIGN(Table d0, Table::FromHost(device, star.dims[0]));
    dims.push_back(std::move(d0));

    join::PipelineResilience resilience;
    resilience.max_attempts = 1'000'000;  // Absurd budget.
    resilience.backoff.max_attempts = 1'000'000;
    const double t0 = device.elapsed_cycles();
    Result<join::PipelineRunResult> res = join::RunJoinPipeline(
        device, join::JoinAlgo::kPhjOm, fact, dims, {}, &resilience);
    ASSERT_FALSE(res.ok());
    EXPECT_TRUE(res.status().code() == StatusCode::kResourceExhausted ||
                res.status().code() == StatusCode::kOutOfMemory)
        << res.status().ToString();
    // The radix-bit ladder starts at 8 and steps by 2 to its ceiling of 16:
    // at most 5 attempts ever run, so at most 4 backoff delays are charged.
    const double elapsed = device.elapsed_cycles() - t0;
    double max_delay = 0;
    for (int i = 1; i <= 4; ++i) max_delay += resilience.backoff.DelayCycles(i);
    EXPECT_LE(elapsed, max_delay + 1e6) << "retry loop ran away";
  }
  ASSERT_OK(device.CheckNoLeaks());
}

// One budget: `max_attempts` bounds a pipeline join's attempts across the
// resource rungs, so max_attempts = 1 means no retry and no backoff
// charged, however large the transient-retry budget.
TEST(PipelineResilienceTest, BackoffPolicyCapsAttempts) {
  workload::StarSchemaSpec spec;
  spec.fact_rows = 1 << 10;
  spec.num_dims = 1;
  spec.dim_rows = 1 << 8;
  const workload::StarSchema star =
      workload::GenerateStarSchema(spec).ValueOrDie();

  vgpu::Device device = MakeCrampedDevice(star, /*headroom_bytes=*/32 << 10);
  {
    ASSERT_OK_AND_ASSIGN(Table fact, Table::FromHost(device, star.fact));
    std::vector<Table> dims;
    ASSERT_OK_AND_ASSIGN(Table d0, Table::FromHost(device, star.dims[0]));
    dims.push_back(std::move(d0));

    join::PipelineResilience resilience;
    resilience.max_attempts = 1;             // No retries at all.
    resilience.backoff.max_attempts = 100;   // Transient budget: unused.
    const double t0 = device.elapsed_cycles();
    Result<join::PipelineRunResult> res = join::RunJoinPipeline(
        device, join::JoinAlgo::kPhjOm, fact, dims, {}, &resilience);
    ASSERT_FALSE(res.ok());
    EXPECT_EQ(res.status().code(), StatusCode::kResourceExhausted);
    EXPECT_NE(res.status().message().find("failed after 1 attempt(s)"),
              std::string::npos)
        << res.status().ToString();
    // Attempt 1 fails and the ladder ends without a retry, so no backoff
    // delay was charged — only the (small) kernel cycles of the attempt.
    const double elapsed = device.elapsed_cycles() - t0;
    EXPECT_LT(elapsed, resilience.backoff.DelayCycles(1));
  }
  ASSERT_OK(device.CheckNoLeaks());
}

// A one-shot kernel fault inside a constituent join is absorbed by the
// ladder's transient rung: the pipeline completes with the fault-free
// output, and a replay on the reset device is bit-identical. Faults in the
// kernels between joins (the FK gathers) are outside the ladder and
// propagate as kUnavailable.
TEST(PipelineResilienceTest, OneShotKernelFaultIsAbsorbedAndReplaysIdentically) {
  workload::StarSchemaSpec spec;
  spec.fact_rows = 1 << 10;
  spec.num_dims = 2;
  spec.dim_rows = 1 << 8;
  const workload::StarSchema star =
      workload::GenerateStarSchema(spec).ValueOrDie();
  const join::PipelineResilience resilience;

  vgpu::Device device = MakeTestDevice();
  struct Run {
    Status status;
    std::vector<std::vector<int64_t>> rows;
    std::vector<DegradationStep> degradation;
    uint64_t kernels = 0;
    double cycles = 0;
    vgpu::KernelStats stats;
  };
  // Uploads run before the injector is armed, so kernel k counts from the
  // pipeline's first launch.
  const auto run = [&](uint64_t fault_at) {
    Run out;
    EXPECT_OK(device.Reset());
    {
      Table fact = Table::FromHost(device, star.fact).ValueOrDie();
      std::vector<Table> dims;
      for (const HostTable& d : star.dims) {
        dims.push_back(Table::FromHost(device, d).ValueOrDie());
      }
      const uint64_t k0 = device.kernels_launched();
      if (fault_at > 0) {
        device.set_fault_injector(vgpu::FaultInjector::FailNthKernel(fault_at));
      }
      Result<join::PipelineRunResult> res = join::RunJoinPipeline(
          device, join::JoinAlgo::kPhjOm, fact, dims, {}, &resilience);
      device.clear_fault_injector();
      out.status = res.status();
      if (res.ok()) {
        out.rows = join::CanonicalRows(res->output.ToHost());
        out.degradation = res->degradation;
      }
      out.kernels = device.kernels_launched() - k0;
      out.cycles = device.elapsed_cycles();
      out.stats = device.total_stats();
    }
    device.ClearTransientFault();
    EXPECT_OK(device.CheckNoLeaks());
    return out;
  };

  const Run base = run(0);
  ASSERT_OK(base.status);
  ASSERT_GT(base.kernels, 0u);
  int absorbed = 0;
  for (uint64_t k = 1; k <= base.kernels; ++k) {
    SCOPED_TRACE("kernel fault at launch " + std::to_string(k));
    const Run faulted = run(k);
    if (!faulted.status.ok()) {
      EXPECT_TRUE(faulted.status.IsUnavailable()) << faulted.status.ToString();
      continue;
    }
    ++absorbed;
    ASSERT_EQ(faulted.degradation.size(), 1u);
    EXPECT_EQ(faulted.degradation[0].action, "transient_retry");
    EXPECT_EQ(faulted.rows, base.rows);

    const Run replay = run(k);
    ASSERT_OK(replay.status);
    EXPECT_EQ(replay.rows, faulted.rows);
    EXPECT_EQ(replay.kernels, faulted.kernels);
    EXPECT_EQ(replay.cycles, faulted.cycles);
    EXPECT_TRUE(replay.stats == faulted.stats);
  }
  EXPECT_GT(absorbed, 0) << "no kernel fault landed inside a pipeline join";
}

// ---------------------------------------------------------------------------
// Exhaustive kernel-fault sweeps: for EVERY kernel launch k of every join
// algorithm and group-by strategy, inject a one-shot transient kernel fault
// at k and require that the resilient wrapper ABSORBS it (the transient
// rung retries the same work): clean success, output identical to the
// fault-free baseline, zero leaks, and a bit-identical replay of the
// faulted run on the same reset device. The inverse of the allocation
// sweeps in fault_injection_test.cc, which expect a clean FAILURE — a
// kernel fault is retryable, an exhausted allocator is not.
// ---------------------------------------------------------------------------

std::string SanitizeAlgoName(const char* name) {
  std::string s(name);
  for (char& c : s) {
    if (c == '-') c = '_';
  }
  return s;
}

class KernelFaultJoinSweep : public ::testing::TestWithParam<join::JoinAlgo> {};

TEST_P(KernelFaultJoinSweep, EveryKernelFaultIsAbsorbedAndReplaysIdentically) {
  const join::JoinAlgo algo = GetParam();
  workload::JoinWorkloadSpec spec;
  spec.r_rows = 1 << 9;
  spec.s_rows = 1 << 10;
  spec.seed = 7;
  const workload::JoinWorkload w =
      workload::GenerateJoinInput(spec).ValueOrDie();

  vgpu::Device device = MakeTestDevice();

  // Fault-free baseline: canonical rows plus the kernel count, which bounds
  // the sweep (FailNthKernel numbers launches from the arming point).
  std::vector<std::vector<int64_t>> base_rows;
  uint64_t base_kernels = 0;
  {
    const uint64_t k0 = device.kernels_launched();
    ASSERT_OK_AND_ASSIGN(join::ResilientJoinResult res,
                         join::RunJoinResilient(device, algo, w.r, w.s));
    base_rows = join::CanonicalRows(res.output);
    base_kernels = device.kernels_launched() - k0;
  }
  ASSERT_OK(device.CheckNoLeaks());
  ASSERT_GT(base_kernels, 0u);

  for (uint64_t k = 1; k <= base_kernels; ++k) {
    SCOPED_TRACE("kernel fault at launch " + std::to_string(k));

    ASSERT_OK(device.Reset());
    device.set_fault_injector(vgpu::FaultInjector::FailNthKernel(k));
    ASSERT_OK_AND_ASSIGN(join::ResilientJoinResult res,
                         join::RunJoinResilient(device, algo, w.r, w.s));
    EXPECT_EQ(device.fault_injector().injected_kernel_faults(), 1u);
    bool retried = false;
    for (const DegradationStep& step : res.degradation) {
      if (step.action == "transient_retry") retried = true;
    }
    EXPECT_TRUE(retried) << "fault at kernel " << k
                         << " never reached the transient rung";
    EXPECT_EQ(join::CanonicalRows(res.output), base_rows);
    const double faulted_cycles = device.elapsed_cycles();
    const uint64_t faulted_kernels = device.kernels_launched();
    ASSERT_OK(device.CheckNoLeaks());

    // Replay: the same injector on the same reset device must reproduce
    // the faulted run bit-identically (rows, kernel count, simulated
    // clock) — retries are seeded, never wall-clock driven.
    ASSERT_OK(device.Reset());
    device.set_fault_injector(vgpu::FaultInjector::FailNthKernel(k));
    ASSERT_OK_AND_ASSIGN(join::ResilientJoinResult replay,
                         join::RunJoinResilient(device, algo, w.r, w.s));
    EXPECT_EQ(join::CanonicalRows(replay.output), base_rows);
    EXPECT_EQ(device.kernels_launched(), faulted_kernels);
    EXPECT_EQ(device.elapsed_cycles(), faulted_cycles);
    ASSERT_OK(device.CheckNoLeaks());
    ASSERT_OK(device.Reset());
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllJoinAlgos, KernelFaultJoinSweep,
    ::testing::ValuesIn(join::kAllJoinAlgos),
    [](const ::testing::TestParamInfo<join::JoinAlgo>& info) {
      return SanitizeAlgoName(join::JoinAlgoName(info.param));
    });

class KernelFaultGroupBySweep
    : public ::testing::TestWithParam<groupby::GroupByAlgo> {};

TEST_P(KernelFaultGroupBySweep, EveryKernelFaultIsAbsorbedAndReplaysIdentically) {
  const groupby::GroupByAlgo algo = GetParam();
  workload::GroupByWorkloadSpec spec;
  spec.rows = 1 << 10;
  spec.num_groups = 1 << 6;
  spec.seed = 11;
  const HostTable input = workload::GenerateGroupByInput(spec).ValueOrDie();

  groupby::GroupBySpec gspec;
  gspec.aggregates.push_back({1, groupby::AggOp::kSum});
  gspec.aggregates.push_back({1, groupby::AggOp::kCount});
  gspec.aggregates.push_back({1, groupby::AggOp::kMax});

  vgpu::Device device = MakeTestDevice();

  // Fault-free baseline. The upload launches no kernel, so kernel numbering
  // spans only the aggregation attempts.
  std::vector<std::vector<int64_t>> base_rows;
  uint64_t base_kernels = 0;
  {
    const uint64_t k0 = device.kernels_launched();
    ASSERT_OK_AND_ASSIGN(groupby::ResilientGroupByResult res,
                         groupby::RunGroupByResilient(device, algo, input, gspec));
    base_rows = join::CanonicalRows(res.output);
    base_kernels = device.kernels_launched() - k0;
  }
  ASSERT_OK(device.CheckNoLeaks());
  ASSERT_GT(base_kernels, 0u);

  for (uint64_t k = 1; k <= base_kernels; ++k) {
    SCOPED_TRACE("kernel fault at launch " + std::to_string(k));

    ASSERT_OK(device.Reset());
    double faulted_cycles = 0;
    uint64_t faulted_kernels = 0;
    {
      device.set_fault_injector(vgpu::FaultInjector::FailNthKernel(k));
      ASSERT_OK_AND_ASSIGN(groupby::ResilientGroupByResult res,
                           groupby::RunGroupByResilient(device, algo, input, gspec));
      EXPECT_EQ(device.fault_injector().injected_kernel_faults(), 1u);
      bool retried = false;
      for (const DegradationStep& step : res.degradation) {
        if (step.action == "transient_retry") retried = true;
      }
      EXPECT_TRUE(retried) << "fault at kernel " << k
                           << " never reached the transient rung";
      EXPECT_EQ(join::CanonicalRows(res.output), base_rows);
      faulted_cycles = device.elapsed_cycles();
      faulted_kernels = device.kernels_launched();
    }
    ASSERT_OK(device.CheckNoLeaks());

    ASSERT_OK(device.Reset());
    {
      device.set_fault_injector(vgpu::FaultInjector::FailNthKernel(k));
      ASSERT_OK_AND_ASSIGN(groupby::ResilientGroupByResult replay,
                           groupby::RunGroupByResilient(device, algo, input, gspec));
      EXPECT_EQ(join::CanonicalRows(replay.output), base_rows);
      EXPECT_EQ(device.kernels_launched(), faulted_kernels);
      EXPECT_EQ(device.elapsed_cycles(), faulted_cycles);
    }
    ASSERT_OK(device.CheckNoLeaks());
    ASSERT_OK(device.Reset());
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllGroupByAlgos, KernelFaultGroupBySweep,
    ::testing::ValuesIn(groupby::kAllGroupByAlgos),
    [](const ::testing::TestParamInfo<groupby::GroupByAlgo>& info) {
      return SanitizeAlgoName(groupby::GroupByAlgoName(info.param));
    });

// A kernel fault that never stops firing (probability 1): every retry of
// the rung faults again, so the ladder's transient budget must exhaust and
// surface a clean structured kUnavailable — never an infinite retry loop.
TEST(ResilientJoinTest, PersistentKernelFaultExhaustsTransientBudget) {
  const workload::JoinWorkload w = SmallJoinWorkload();
  vgpu::Device device = MakeTestDevice();
  testing::ScopedLeakCheck leak_check(device);
  device.set_fault_injector(
      vgpu::FaultInjector::FailKernelWithProbability(1.0, /*seed=*/3));
  join::ResilienceOptions opts;
  opts.backoff.max_attempts = 3;
  Result<join::ResilientJoinResult> res =
      join::RunJoinResilient(device, join::JoinAlgo::kPhjOm, w.r, w.s, opts);
  ASSERT_FALSE(res.ok());
  EXPECT_TRUE(res.status().IsUnavailable()) << res.status().ToString();
  EXPECT_NE(res.status().message().find("ladder transient-retry budget"),
            std::string::npos)
      << res.status().ToString();
  device.clear_fault_injector();
  device.ClearTransientFault();
  ASSERT_OK(device.CheckNoLeaks());
}

// Same exhaustion contract for the watchdog: a budget so small every
// kernel trips it means no rung can ever complete.
TEST(ResilientJoinTest, RunawayWatchdogExhaustsTransientBudget) {
  const workload::JoinWorkload w = SmallJoinWorkload();
  vgpu::Device device = MakeTestDevice();
  testing::ScopedLeakCheck leak_check(device);
  device.set_kernel_watchdog_cycles(1.0);
  join::ResilienceOptions opts;
  opts.backoff.max_attempts = 3;
  Result<join::ResilientJoinResult> res =
      join::RunJoinResilient(device, join::JoinAlgo::kPhjOm, w.r, w.s, opts);
  ASSERT_FALSE(res.ok());
  EXPECT_TRUE(res.status().IsUnavailable()) << res.status().ToString();
  EXPECT_NE(res.status().message().find("watchdog_timeout"), std::string::npos)
      << res.status().ToString();
  EXPECT_GT(device.watchdog_trips(), 0u);
  device.set_kernel_watchdog_cycles(0);
  device.ClearTransientFault();
  ASSERT_OK(device.CheckNoLeaks());
}

// A generous watchdog never perturbs a healthy run: same rows, no trips.
TEST(ResilientJoinTest, GenerousWatchdogIsInvisible) {
  const workload::JoinWorkload w = SmallJoinWorkload();
  vgpu::Device device = MakeTestDevice();
  testing::ScopedLeakCheck leak_check(device);
  device.set_kernel_watchdog_cycles(1e15);
  ASSERT_OK_AND_ASSIGN(
      join::ResilientJoinResult res,
      join::RunJoinResilient(device, join::JoinAlgo::kPhjOm, w.r, w.s));
  EXPECT_EQ(res.attempts, 1);
  EXPECT_EQ(device.watchdog_trips(), 0u);
  EXPECT_EQ(join::CanonicalRows(res.output), join::ReferenceJoinRows(w.r, w.s));
  device.set_kernel_watchdog_cycles(0);
}

}  // namespace
}  // namespace gpujoin
