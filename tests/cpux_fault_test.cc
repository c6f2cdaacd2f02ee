// Fault-injection sweep over the cpux backend: every tracked allocation
// site must fail with a clean ResourceExhausted, leak nothing, and replay
// bit-identically once the injector is disarmed. Allocations happen on the
// coordinator thread in deterministic order, so FailNth(n) reaches every
// site exactly once across the sweep.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "cpux/context.h"
#include "cpux/groupby.h"
#include "cpux/join.h"
#include "test_util.h"
#include "vgpu/fault.h"
#include "workload/generator.h"
#include "workload/tpc.h"

namespace gpujoin {
namespace {

workload::JoinWorkload JoinInput() {
  workload::JoinWorkloadSpec spec;
  spec.r_rows = 1 << 11;
  spec.s_rows = 1 << 12;
  spec.zipf_theta = 0.5;
  auto w = workload::GenerateJoinInput(spec);
  GPUJOIN_CHECK_OK(w.status());
  return std::move(*w);
}

HostTable GroupByInput() {
  workload::GroupByWorkloadSpec spec;
  spec.rows = 1 << 12;
  spec.num_groups = 1 << 7;
  auto t = workload::GenerateGroupByInput(spec);
  GPUJOIN_CHECK_OK(t.status());
  return std::move(*t);
}

/// Sweeps FailNth over every allocation the baseline run makes and checks
/// the three-part contract: structured failure, zero leaks, clean replay.
template <typename RunFn>
void SweepAllAllocationSites(RunFn run) {
  uint64_t attempts = 0;
  HostTable baseline;
  {
    cpux::Context ctx(3);
    Result<cpux::CpuxRunResult> res = run(ctx);
    ASSERT_OK(res.status());
    attempts = ctx.allocation_attempts();
    baseline = std::move(res->output);
  }
  ASSERT_GT(attempts, 0u);

  for (uint64_t nth = 1; nth <= attempts; ++nth) {
    cpux::Context ctx(3);
    ctx.set_fault_injector(vgpu::FaultInjector::FailNth(nth));
    Result<cpux::CpuxRunResult> failed = run(ctx);
    ASSERT_FALSE(failed.ok()) << "FailNth(" << nth << ") did not fail";
    EXPECT_EQ(failed.status().code(), StatusCode::kResourceExhausted)
        << "FailNth(" << nth << "): " << failed.status().ToString();
    EXPECT_OK(ctx.CheckNoLeaks());

    // The injector is one-shot; the same context must now replay the run
    // bit-identically (deterministic allocation order, no poisoned state).
    Result<cpux::CpuxRunResult> replay = run(ctx);
    ASSERT_TRUE(replay.ok()) << "replay after FailNth(" << nth
                             << "): " << replay.status().ToString();
    ASSERT_EQ(replay->output.columns.size(), baseline.columns.size());
    for (size_t c = 0; c < baseline.columns.size(); ++c) {
      EXPECT_EQ(replay->output.columns[c].values, baseline.columns[c].values)
          << "replay after FailNth(" << nth << ") col=" << c;
    }
    EXPECT_OK(ctx.CheckNoLeaks());
  }
}

TEST(CpuxFault, PartitionedJoinSurvivesEveryAllocationFailure) {
  const workload::JoinWorkload w = JoinInput();
  SweepAllAllocationSites([&](cpux::Context& ctx) {
    return cpux::RunJoin(ctx, join::JoinAlgo::kPhjOm, w.r, w.s);
  });
}

TEST(CpuxFault, PartitionedJoinSurvivesEveryAllocationFailureOnManyToMany) {
  // The TPC-DS Q95-shaped self-join: duplicate keys on both sides.
  workload::JoinWorkload w;
  for (const workload::TpcJoinSpec& spec : workload::TpcJoinSpecs()) {
    if (spec.id != "J5") continue;
    workload::TpcGenOptions opts;
    opts.scale_tuples = uint64_t{1} << 12;
    w = workload::GenerateTpcJoin(spec, opts).ValueOrDie();
  }
  ASSERT_GT(w.r.num_rows(), 0u);
  SweepAllAllocationSites([&](cpux::Context& ctx) {
    return cpux::RunJoin(ctx, join::JoinAlgo::kPhjOm, w.r, w.s);
  });
}

TEST(CpuxFault, GlobalHashJoinSurvivesEveryAllocationFailure) {
  const workload::JoinWorkload w = JoinInput();
  SweepAllAllocationSites([&](cpux::Context& ctx) {
    return cpux::RunJoin(ctx, join::JoinAlgo::kNphj, w.r, w.s);
  });
}

TEST(CpuxFault, SortMergeJoinSurvivesEveryAllocationFailure) {
  const workload::JoinWorkload w = JoinInput();
  SweepAllAllocationSites([&](cpux::Context& ctx) {
    return cpux::RunJoin(ctx, join::JoinAlgo::kSmjOm, w.r, w.s);
  });
}

TEST(CpuxFault, PartitionedGroupBySurvivesEveryAllocationFailure) {
  const HostTable input = GroupByInput();
  groupby::GroupBySpec spec;
  spec.aggregates = {{1, groupby::AggOp::kSum},
                     {1, groupby::AggOp::kMin},
                     {1, groupby::AggOp::kAvg}};
  SweepAllAllocationSites([&](cpux::Context& ctx) {
    return cpux::RunGroupBy(ctx, groupby::GroupByAlgo::kHashPartitioned, input,
                            spec);
  });
}

TEST(CpuxFault, SortGroupBySurvivesEveryAllocationFailure) {
  const HostTable input = GroupByInput();
  groupby::GroupBySpec spec;
  spec.aggregates = {{1, groupby::AggOp::kCount}, {1, groupby::AggOp::kMax}};
  SweepAllAllocationSites([&](cpux::Context& ctx) {
    return cpux::RunGroupBy(ctx, groupby::GroupByAlgo::kSortBased, input,
                            spec);
  });
}

TEST(CpuxFault, InjectedFailureMessageNamesTheAttempt) {
  const workload::JoinWorkload w = JoinInput();
  cpux::Context ctx(1);
  ctx.set_fault_injector(vgpu::FaultInjector::FailNth(1));
  const Result<cpux::CpuxRunResult> res =
      cpux::RunJoin(ctx, join::JoinAlgo::kPhjOm, w.r, w.s);
  ASSERT_FALSE(res.ok());
  EXPECT_NE(res.status().message().find("cpux"), std::string::npos)
      << res.status().ToString();
  EXPECT_OK(ctx.CheckNoLeaks());
}

}  // namespace
}  // namespace gpujoin
