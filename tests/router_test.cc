// The cost-based CPU/GPU operator router: backend parsing, deterministic
// routing decisions, forced-backend equivalence, cross-backend OOM
// fallback in both directions, EXPLAIN visibility, the GPUJOIN_BACKEND
// knob, query-service backend resolution, and the routed host pipeline.

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "join/reference.h"
#include "obs/explain.h"
#include "obs/trace.h"
#include "ops/router.h"
#include "service/query_service.h"
#include "test_util.h"
#include "vgpu/fault.h"
#include "workload/generator.h"

namespace gpujoin {
namespace {

using testing::MakeTestDevice;

workload::JoinWorkload MustJoinInput(uint64_t r_rows, uint64_t s_rows,
                                     double zipf = 0.0) {
  workload::JoinWorkloadSpec spec;
  spec.r_rows = r_rows;
  spec.s_rows = s_rows;
  spec.zipf_theta = zipf;
  auto w = workload::GenerateJoinInput(spec);
  GPUJOIN_CHECK_OK(w.status());
  return std::move(*w);
}

ops::JoinOp MakeJoinOp(const workload::JoinWorkload& w,
                       join::JoinAlgo algo = join::JoinAlgo::kPhjOm) {
  ops::JoinOp op;
  op.algo = algo;
  op.r = &w.r;
  op.s = &w.s;
  return op;
}

TEST(ParseBackend, AcceptsAllSpellingsAndRejectsGarbage) {
  ASSERT_OK_AND_ASSIGN(ops::Backend b, ops::ParseBackend("auto"));
  EXPECT_EQ(b, ops::Backend::kAuto);
  ASSERT_OK_AND_ASSIGN(b, ops::ParseBackend("cpu"));
  EXPECT_EQ(b, ops::Backend::kCpux);
  ASSERT_OK_AND_ASSIGN(b, ops::ParseBackend("cpux"));
  EXPECT_EQ(b, ops::Backend::kCpux);
  ASSERT_OK_AND_ASSIGN(b, ops::ParseBackend("gpu"));
  EXPECT_EQ(b, ops::Backend::kVgpu);
  ASSERT_OK_AND_ASSIGN(b, ops::ParseBackend("vgpu"));
  EXPECT_EQ(b, ops::Backend::kVgpu);
  EXPECT_FALSE(ops::ParseBackend("tpu").ok());
  EXPECT_FALSE(ops::ParseBackend("").ok());
}

TEST(BackendFromEnv, ReadsAndValidatesTheKnob) {
  unsetenv("GPUJOIN_BACKEND");
  ASSERT_OK_AND_ASSIGN(ops::Backend b,
                       ops::BackendFromEnv(ops::Backend::kVgpu));
  EXPECT_EQ(b, ops::Backend::kVgpu);

  setenv("GPUJOIN_BACKEND", "cpu", 1);
  ASSERT_OK_AND_ASSIGN(b, ops::BackendFromEnv(ops::Backend::kVgpu));
  EXPECT_EQ(b, ops::Backend::kCpux);
  EXPECT_EQ(ops::RouterOptions::FromEnv().force, ops::Backend::kCpux);

  setenv("GPUJOIN_BACKEND", "abacus", 1);
  EXPECT_FALSE(ops::BackendFromEnv(ops::Backend::kVgpu).ok());
  // FromEnv leaves the base untouched on an unparsable value.
  EXPECT_EQ(ops::RouterOptions::FromEnv().force, ops::Backend::kAuto);
  unsetenv("GPUJOIN_BACKEND");
}

TEST(RouteDecisions, SmallGoesCpuLargeGoesVgpuDeterministically) {
  vgpu::Device device = MakeTestDevice();
  const ops::RouterOptions opts;
  const workload::JoinWorkload small = MustJoinInput(1 << 6, 1 << 7);
  const workload::JoinWorkload large = MustJoinInput(1 << 17, 1 << 18);

  const ops::RouteDecision lo =
      ops::RouteJoin(MakeJoinOp(small), device.config(), opts);
  EXPECT_EQ(lo.backend, ops::Backend::kCpux) << lo.reason;
  EXPECT_EQ(lo.reason, "cost");
  EXPECT_LT(lo.cpux_seconds, lo.vgpu_seconds);

  const ops::RouteDecision hi =
      ops::RouteJoin(MakeJoinOp(large), device.config(), opts);
  EXPECT_EQ(hi.backend, ops::Backend::kVgpu) << hi.reason;
  EXPECT_LT(hi.vgpu_seconds, hi.cpux_seconds);
  EXPECT_GT(hi.memory.total_bytes(), 0u);

  // Pure function of the inputs: identical on every evaluation.
  for (int i = 0; i < 3; ++i) {
    const ops::RouteDecision again =
        ops::RouteJoin(MakeJoinOp(small), device.config(), opts);
    EXPECT_EQ(again.backend, lo.backend);
    EXPECT_EQ(again.cpux_seconds, lo.cpux_seconds);
    EXPECT_EQ(again.vgpu_seconds, lo.vgpu_seconds);
  }
}

TEST(RouteDecisions, StringPayloadsAreGuardedToVgpu) {
  workload::JoinWorkload w = MustJoinInput(1 << 4, 1 << 5);
  w.s.columns.push_back(
      HostColumn{"tag", DataType::kInt64, {},
                 std::vector<std::string>(w.s.columns[0].values.size(), "x")});
  vgpu::Device device = MakeTestDevice();
  const ops::RouteDecision d =
      ops::RouteJoin(MakeJoinOp(w), device.config(), ops::RouterOptions{});
  EXPECT_EQ(d.backend, ops::Backend::kVgpu);
  EXPECT_EQ(d.reason, "strings");
}

TEST(Router, ForcedBackendsProduceIdenticalResults) {
  const workload::JoinWorkload w = MustJoinInput(1 << 10, 1 << 11, 0.8);
  const auto expected = join::ReferenceJoinRows(w.r, w.s);

  vgpu::Device device = MakeTestDevice();
  ops::RouterOptions copts;
  copts.force = ops::Backend::kCpux;
  ops::Router cpu_router(device, copts);
  ASSERT_OK_AND_ASSIGN(ops::OperatorRunResult cres,
                       cpu_router.RunJoin(MakeJoinOp(w)));
  EXPECT_EQ(cres.backend, ops::Backend::kCpux);
  EXPECT_EQ(join::CanonicalRows(cres.output), expected);
  ASSERT_EQ(cpu_router.decisions().size(), 1u);
  EXPECT_EQ(cpu_router.decisions()[0].reason, "forced");

  ops::RouterOptions vopts;
  vopts.force = ops::Backend::kVgpu;
  ops::Router gpu_router(device, vopts);
  ASSERT_OK_AND_ASSIGN(ops::OperatorRunResult vres,
                       gpu_router.RunJoin(MakeJoinOp(w)));
  EXPECT_EQ(vres.backend, ops::Backend::kVgpu);
  EXPECT_EQ(join::CanonicalRows(vres.output), expected);
  EXPECT_OK(device.CheckNoLeaks());
}

TEST(Router, VgpuOomFallsBackToCpux) {
  const workload::JoinWorkload w = MustJoinInput(1 << 9, 1 << 10);
  const auto expected = join::ReferenceJoinRows(w.r, w.s);

  vgpu::Device device = MakeTestDevice();
  // Every device allocation fails: the whole resilience ladder exhausts,
  // and the router's cross-backend rung must finish the join on the CPU.
  device.set_fault_injector(vgpu::FaultInjector::FailAfterBytes(0));
  ops::RouterOptions opts;
  opts.force = ops::Backend::kVgpu;
  ops::Router router(device, opts);
  ASSERT_OK_AND_ASSIGN(ops::OperatorRunResult res,
                       router.RunJoin(MakeJoinOp(w)));
  EXPECT_EQ(res.backend, ops::Backend::kCpux);
  EXPECT_EQ(join::CanonicalRows(res.output), expected);
  ASSERT_FALSE(res.degradation.empty());
  EXPECT_EQ(res.degradation.front().action, "backend_fallback");
  EXPECT_OK(device.CheckNoLeaks());
}

TEST(Router, CpuxOomFallsBackToVgpu) {
  const workload::JoinWorkload w = MustJoinInput(1 << 9, 1 << 10);
  const auto expected = join::ReferenceJoinRows(w.r, w.s);

  vgpu::Device device = MakeTestDevice();
  ops::RouterOptions opts;
  opts.force = ops::Backend::kCpux;
  ops::Router router(device, opts);
  router.cpux_provider().context().set_fault_injector(
      vgpu::FaultInjector::FailNth(1));
  ASSERT_OK_AND_ASSIGN(ops::OperatorRunResult res,
                       router.RunJoin(MakeJoinOp(w)));
  EXPECT_EQ(res.backend, ops::Backend::kVgpu);
  EXPECT_EQ(join::CanonicalRows(res.output), expected);
  ASSERT_FALSE(res.degradation.empty());
  EXPECT_EQ(res.degradation.front().action, "backend_fallback");
  EXPECT_OK(device.CheckNoLeaks());
}

TEST(Router, ExplainShowsBackendAndCostEstimates) {
  obs::Tracer::Global().Clear();
  obs::Tracer::Global().set_enabled(true);
  const workload::JoinWorkload w = MustJoinInput(1 << 6, 1 << 7);
  {
    vgpu::Device device = MakeTestDevice();
    ops::Router router(device, ops::RouterOptions{});
    ASSERT_OK_AND_ASSIGN(ops::OperatorRunResult res,
                         router.RunJoin(MakeJoinOp(w)));
    EXPECT_EQ(res.backend, ops::Backend::kCpux);
  }
  const std::string explain = obs::RenderExplain(obs::Tracer::Global());
  EXPECT_NE(explain.find("backend=cpux"), std::string::npos) << explain;
  EXPECT_NE(explain.find("cost_cpux_s="), std::string::npos) << explain;
  EXPECT_NE(explain.find("route_reason=cost"), std::string::npos) << explain;
  obs::Tracer::Global().set_enabled(false);
  obs::Tracer::Global().Clear();
}

TEST(Router, GroupByRoutesAndMatchesAcrossBackends) {
  workload::GroupByWorkloadSpec spec;
  spec.rows = 1 << 10;
  spec.num_groups = 1 << 5;
  auto input = workload::GenerateGroupByInput(spec);
  ASSERT_OK(input.status());
  ops::GroupByOp op;
  op.algo = groupby::GroupByAlgo::kHashPartitioned;
  op.spec.aggregates = {{1, groupby::AggOp::kSum},
                        {1, groupby::AggOp::kAvg}};
  op.input = &*input;

  vgpu::Device device = MakeTestDevice();
  ops::RouterOptions copts;
  copts.force = ops::Backend::kCpux;
  ops::Router cpu_router(device, copts);
  ASSERT_OK_AND_ASSIGN(ops::OperatorRunResult cres, cpu_router.RunGroupBy(op));

  ops::RouterOptions vopts;
  vopts.force = ops::Backend::kVgpu;
  ops::Router gpu_router(device, vopts);
  ASSERT_OK_AND_ASSIGN(ops::OperatorRunResult vres, gpu_router.RunGroupBy(op));

  EXPECT_EQ(join::CanonicalRows(cres.output), join::CanonicalRows(vres.output));
  EXPECT_EQ(cres.output_rows, vres.output_rows);
  EXPECT_OK(device.CheckNoLeaks());
}

TEST(Router, HostPipelineMatchesAcrossBackendsAndRecordsStages) {
  workload::StarSchemaSpec spec;
  spec.fact_rows = 1 << 10;
  spec.num_dims = 3;
  spec.dim_rows = 1 << 7;
  auto star = workload::GenerateStarSchema(spec);
  ASSERT_OK(star.status());

  vgpu::Device device = MakeTestDevice();
  ops::RouterOptions copts;
  copts.force = ops::Backend::kCpux;
  ops::Router cpu_router(device, copts);
  ASSERT_OK_AND_ASSIGN(
      ops::Router::PipelineRunResult cres,
      cpu_router.RunJoinPipeline(star->fact, star->dims,
                                 join::JoinAlgo::kPhjOm));

  ops::RouterOptions vopts;
  vopts.force = ops::Backend::kVgpu;
  ops::Router gpu_router(device, vopts);
  ASSERT_OK_AND_ASSIGN(
      ops::Router::PipelineRunResult vres,
      gpu_router.RunJoinPipeline(star->fact, star->dims,
                                 join::JoinAlgo::kPhjOm));

  ASSERT_EQ(cres.stage_backends.size(), static_cast<size_t>(spec.num_dims));
  for (const ops::Backend b : cres.stage_backends) {
    EXPECT_EQ(b, ops::Backend::kCpux);
  }
  EXPECT_EQ(cres.final_rows, vres.final_rows);
  EXPECT_EQ(join::CanonicalRows(cres.output), join::CanonicalRows(vres.output));
  EXPECT_OK(device.CheckNoLeaks());
}

service::QueryRequest SmallJoinRequest(const workload::JoinWorkload& w) {
  service::QueryRequest req;
  req.name = "routed_join";
  req.kind = service::QueryKind::kJoin;
  req.join_algo = join::JoinAlgo::kPhjOm;
  req.r = &w.r;
  req.s = &w.s;
  return req;
}

TEST(QueryServiceBackend, ForcedCpuxRunsHostSideAndMatchesReference) {
  const workload::JoinWorkload w = MustJoinInput(1 << 9, 1 << 10);
  const auto expected = join::ReferenceJoinRows(w.r, w.s);

  vgpu::Device device = MakeTestDevice();
  const double cycles_before = device.elapsed_cycles();
  service::QueryService svc(device, {});
  service::QueryRequest req = SmallJoinRequest(w);
  req.backend = ops::Backend::kCpux;
  ASSERT_OK_AND_ASSIGN(int id, svc.Submit(req));
  ASSERT_OK(svc.Drain());

  const service::QueryOutcome& out = svc.outcome(id);
  ASSERT_OK(out.status);
  EXPECT_EQ(out.backend, "cpux");
  EXPECT_EQ(join::CanonicalRows(out.output), expected);
  EXPECT_EQ(svc.reserved_bytes(), 0u);
  // cpux fragments consume no simulated device time.
  EXPECT_EQ(device.elapsed_cycles(), cycles_before);
  EXPECT_OK(device.CheckNoLeaks());
}

TEST(QueryServiceBackend, DefaultRemainsVgpuAndAutoRoutesSmallToCpux) {
  const workload::JoinWorkload w = MustJoinInput(1 << 6, 1 << 7);
  vgpu::Device device = MakeTestDevice();
  service::QueryService svc(device, {});

  ASSERT_OK_AND_ASSIGN(int vid, svc.Submit(SmallJoinRequest(w)));
  service::QueryRequest areq = SmallJoinRequest(w);
  areq.name = "auto_join";
  areq.backend = ops::Backend::kAuto;
  ASSERT_OK_AND_ASSIGN(int aid, svc.Submit(areq));
  ASSERT_OK(svc.Drain());

  ASSERT_OK(svc.outcome(vid).status);
  EXPECT_EQ(svc.outcome(vid).backend, "vgpu");
  ASSERT_OK(svc.outcome(aid).status);
  EXPECT_EQ(svc.outcome(aid).backend, "auto:cpux");
  EXPECT_EQ(join::CanonicalRows(svc.outcome(vid).output),
            join::CanonicalRows(svc.outcome(aid).output));
  EXPECT_OK(device.CheckNoLeaks());
}

TEST(QueryServiceBackend, CpuxResourceFailureFallsBackToVgpu) {
  const workload::JoinWorkload w = MustJoinInput(1 << 8, 1 << 9);
  const auto expected = join::ReferenceJoinRows(w.r, w.s);

  vgpu::Device device = MakeTestDevice();
  service::ServiceOptions opts;
  opts.default_backend = ops::Backend::kCpux;
  service::QueryService svc(device, opts);
  // Arm the service's cpux allocator to fail once: the fragment must fall
  // back to the vgpu resilient path and still produce the full result.
  svc.cpux_provider().context().set_fault_injector(
      vgpu::FaultInjector::FailNth(1));
  ASSERT_OK_AND_ASSIGN(int id, svc.Submit(SmallJoinRequest(w)));
  ASSERT_OK(svc.Drain());

  const service::QueryOutcome& out = svc.outcome(id);
  ASSERT_OK(out.status);
  EXPECT_EQ(out.backend, "cpux->vgpu");
  EXPECT_EQ(join::CanonicalRows(out.output), expected);
  EXPECT_EQ(svc.reserved_bytes(), 0u);
  EXPECT_OK(device.CheckNoLeaks());
}

}  // namespace
}  // namespace gpujoin
