// The degradation ladder is one driver (RunLadder) shared by joins,
// group-bys and join pipelines, so every rung must report the same way
// whichever operator took it: each DegradationStep has its
// `degradation:<action>` trace instant and its
// resilient_degradations_total{op,action} count, and each resource failure
// has its `resource_failure` instant next to its counter.

#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "groupby/resilient.h"
#include "join/pipeline.h"
#include "join/reference.h"
#include "join/resilient.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "storage/table.h"
#include "test_util.h"
#include "vgpu/device.h"
#include "vgpu/fault.h"
#include "workload/generator.h"

namespace gpujoin {
namespace {

using ::gpujoin::testing::MakeTestDevice;

/// Trace instants and counter deltas recorded while `fn` ran.
struct LadderRecord {
  std::vector<DegradationStep> instants;  // degradation:<action> events.
  int resource_failure_instants = 0;
  obs::MetricsSnapshot delta;
};

LadderRecord Record(const std::function<void()>& fn) {
  obs::Tracer& tracer = obs::Tracer::Global();
  tracer.Clear();
  tracer.set_enabled(true);
  const obs::MetricsSnapshot before = obs::MetricsRegistry::Global().Snapshot();
  fn();
  LadderRecord rec;
  rec.delta = obs::MetricsRegistry::Global().Snapshot().Delta(before);
  const std::string prefix = "degradation:";
  for (const obs::EventRecord& e : tracer.events()) {
    if (e.name.rfind(prefix, 0) == 0) {
      rec.instants.push_back({e.name.substr(prefix.size()), e.detail});
    } else if (e.name == "resource_failure") {
      ++rec.resource_failure_instants;
    }
  }
  tracer.set_enabled(false);
  tracer.Clear();
  return rec;
}

/// Every step has its instant (same action and detail, same order) and its
/// counter; every resource failure has its instant.
void ExpectUniform(const LadderRecord& rec, const std::string& op,
                   const std::vector<DegradationStep>& log) {
  ASSERT_EQ(rec.instants.size(), log.size());
  std::map<std::string, uint64_t> per_action;
  int resource_steps = 0;
  for (size_t i = 0; i < log.size(); ++i) {
    EXPECT_EQ(rec.instants[i].action, log[i].action) << "step " << i;
    EXPECT_EQ(rec.instants[i].detail, log[i].detail) << "step " << i;
    ++per_action[log[i].action];
    if (log[i].action != "transient_retry") ++resource_steps;
  }
  for (const auto& [action, count] : per_action) {
    EXPECT_EQ(rec.delta.CounterValue("resilient_degradations_total",
                                     {{"op", op}, {"action", action}}),
              count)
        << action;
  }
  EXPECT_EQ(rec.delta.CounterTotal("resilient_degradations_total"), log.size());
  EXPECT_EQ(static_cast<uint64_t>(rec.resource_failure_instants),
            rec.delta.CounterValue("resilient_resource_failures_total",
                                   {{"op", op}}));
  // A ladder that completed took one step per resource failure.
  EXPECT_EQ(rec.resource_failure_instants, resource_steps);
}

bool HasAction(const std::vector<DegradationStep>& log,
               const std::string& action) {
  for (const DegradationStep& s : log) {
    if (s.action == action) return true;
  }
  return false;
}

workload::JoinWorkload JoinInput(DataType type, uint64_t seed) {
  workload::JoinWorkloadSpec spec;
  spec.r_rows = 1 << 10;
  spec.s_rows = 1 << 11;
  spec.key_type = type;
  spec.r_payload_type = type;
  spec.s_payload_type = type;
  spec.seed = seed;
  return workload::GenerateJoinInput(spec).ValueOrDie();
}

TEST(DegradationLadderTest, JoinPartitionBitRungReportsUniformly) {
  const workload::JoinWorkload w = JoinInput(DataType::kInt32, 5);
  vgpu::Device device = MakeTestDevice();
  testing::ScopedLeakCheck leak_check(device);
  join::ResilientJoinResult res;
  const LadderRecord rec = Record([&] {
    device.set_fault_injector(vgpu::FaultInjector::FailNth(5));
    res = join::RunJoinResilient(device, join::JoinAlgo::kPhjOm, w.r, w.s)
              .ValueOrDie();
    device.clear_fault_injector();
  });
  ASSERT_TRUE(HasAction(res.degradation, "retry_more_partition_bits"));
  ExpectUniform(rec, "join", res.degradation);
  EXPECT_EQ(join::CanonicalRows(res.output), join::ReferenceJoinRows(w.r, w.s));
}

TEST(DegradationLadderTest, JoinOutOfCoreRungReportsUniformly) {
  // Inputs larger than the whole device: only the out-of-core rung fits.
  const workload::JoinWorkload w = JoinInput(DataType::kInt64, 9);
  vgpu::DeviceConfig cfg = vgpu::DeviceConfig::ScaledToWorkload(
      vgpu::DeviceConfig::A100(), uint64_t{1} << 16);
  cfg.global_mem_bytes = 24 * 1024;
  vgpu::Device device(cfg);
  testing::ScopedLeakCheck leak_check(device);
  join::ResilienceOptions opts;
  opts.max_attempts = 6;
  join::ResilientJoinResult res;
  const LadderRecord rec = Record([&] {
    res = join::RunJoinResilient(device, join::JoinAlgo::kSmjOm, w.r, w.s, opts)
              .ValueOrDie();
  });
  EXPECT_TRUE(res.used_out_of_core);
  ASSERT_TRUE(HasAction(res.degradation, "out_of_core_fallback"));
  ExpectUniform(rec, "join", res.degradation);
  EXPECT_EQ(join::CanonicalRows(res.output), join::ReferenceJoinRows(w.r, w.s));
}

// Out-of-core attempts that fail report their resource failures like the
// in-memory ones; the exhausted error still carries every step taken.
TEST(DegradationLadderTest, FailedOutOfCoreAttemptsReportResourceFailures) {
  const workload::JoinWorkload w = JoinInput(DataType::kInt32, 5);
  vgpu::Device device = MakeTestDevice();
  testing::ScopedLeakCheck leak_check(device);
  join::ResilienceOptions opts;
  opts.max_attempts = 3;
  Status status;
  const LadderRecord rec = Record([&] {
    device.set_fault_injector(vgpu::FaultInjector::FailAfterBytes(0));
    status = join::RunJoinResilient(device, join::JoinAlgo::kNphj, w.r, w.s,
                                    opts)
                 .status();
    device.clear_fault_injector();
  });
  EXPECT_EQ(status.code(), StatusCode::kResourceExhausted) << status.ToString();
  // NPHJ has no partition-bit rung: one in-memory and two out-of-core
  // attempts, all failed; two steps, both out-of-core.
  ASSERT_EQ(rec.instants.size(), 2u);
  for (const DegradationStep& s : rec.instants) {
    EXPECT_EQ(s.action, "out_of_core_fallback");
    EXPECT_NE(status.message().find(s.detail), std::string::npos);
  }
  EXPECT_EQ(rec.delta.CounterValue(
                "resilient_degradations_total",
                {{"op", "join"}, {"action", "out_of_core_fallback"}}),
            2u);
  EXPECT_EQ(rec.resource_failure_instants, 3);
  EXPECT_EQ(rec.delta.CounterValue("resilient_resource_failures_total",
                                   {{"op", "join"}}),
            3u);
}

class DegradationLadderGroupByTest : public ::testing::Test {
 protected:
  void SetUp() override {
    workload::GroupByWorkloadSpec spec;
    spec.rows = 1 << 10;
    spec.num_groups = 1 << 5;
    input_ = workload::GenerateGroupByInput(spec).ValueOrDie();
    gspec_.aggregates.push_back({1, groupby::AggOp::kSum});
    gspec_.aggregates.push_back({1, groupby::AggOp::kCount});
  }

  /// Runs `algo` with a one-shot fault on its first allocation (the
  /// input is uploaded before the injector is armed) and checks that the
  /// ladder took `action` first and reported every step uniformly.
  void ExpectRung(groupby::GroupByAlgo algo, const groupby::GroupByOptions& opts,
                  const std::string& action) {
    vgpu::Device device = MakeTestDevice();
    std::vector<std::vector<int64_t>> expected;
    {
      ASSERT_OK_AND_ASSIGN(Table t, Table::FromHost(device, input_));
      ASSERT_OK_AND_ASSIGN(groupby::GroupByRunResult ref,
                           groupby::RunGroupBy(device, algo, t, gspec_, opts));
      expected = join::CanonicalRows(ref.output.ToHost());
    }
    {
      groupby::GroupByResilienceOptions ropts;
      ropts.groupby = opts;
      groupby::ResilientGroupByResult res;
      const LadderRecord rec = Record([&] {
        // The upload allocates one buffer per column; fail the first
        // allocation after it.
        device.set_fault_injector(
            vgpu::FaultInjector::FailNth(input_.columns.size() + 1));
        res = groupby::RunGroupByResilient(device, algo, input_, gspec_, ropts)
                  .ValueOrDie();
        device.clear_fault_injector();
      });
      ASSERT_FALSE(res.degradation.empty());
      EXPECT_EQ(res.degradation[0].action, action);
      ExpectUniform(rec, "groupby", res.degradation);
      EXPECT_EQ(join::CanonicalRows(res.output), expected);
    }
    ASSERT_OK(device.CheckNoLeaks());
  }

  HostTable input_;
  groupby::GroupBySpec gspec_;
};

TEST_F(DegradationLadderGroupByTest, AlgoFallbackReportsUniformly) {
  ExpectRung(groupby::GroupByAlgo::kHashGlobal, {}, "algo_fallback");
}

TEST_F(DegradationLadderGroupByTest, PartitionBitRungReportsUniformly) {
  ExpectRung(groupby::GroupByAlgo::kHashPartitioned, {},
             "retry_more_partition_bits");
}

TEST_F(DegradationLadderGroupByTest, SortFallbackReportsUniformly) {
  groupby::GroupByOptions opts;
  opts.radix_bits_override = 16;  // No bits left: straight to GB-SORT.
  ExpectRung(groupby::GroupByAlgo::kHashPartitioned, opts, "algo_fallback");
}

TEST(DegradationLadderTest, PipelineJoinRungReportsUniformly) {
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
    const join::PipelineResilience resilience;
    int absorbed = 0;
    for (uint64_t k = 1; k <= 12; ++k) {
      SCOPED_TRACE("fault at allocation point " + std::to_string(k));
      Result<join::PipelineRunResult> res = Status::Internal("unset");
      const LadderRecord rec = Record([&] {
        device.set_fault_injector(vgpu::FaultInjector::FailNth(k));
        res = join::RunJoinPipeline(device, join::JoinAlgo::kPhjOm, fact, dims,
                                    {}, &resilience);
        device.clear_fault_injector();
      });
      if (!res.ok() || res->degradation.empty()) continue;
      ++absorbed;
      ExpectUniform(rec, "pipeline", res->degradation);
    }
    EXPECT_GT(absorbed, 0) << "no fault ever reached a pipeline join";
  }
  ASSERT_OK(device.CheckNoLeaks());
}

}  // namespace
}  // namespace gpujoin
