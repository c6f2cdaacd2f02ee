// Span-tree shape tests for the observability tracer: each join algorithm
// and group-by strategy must produce its documented query/phase hierarchy,
// kernels must attach to phases (never float directly under the query),
// and the per-phase cycles must sum to the query total — the property the
// EXPLAIN ANALYZE renderer and the paper's Figure 1-style breakdowns rely
// on.

#include <string>
#include <vector>

#include "groupby/groupby.h"
#include "join/join.h"
#include "join/resilient.h"
#include "obs/trace.h"
#include "test_util.h"
#include "workload/generator.h"

namespace gpujoin {
namespace {

class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::Tracer::Global().Clear();
    obs::Tracer::Global().set_enabled(true);
  }
  void TearDown() override {
    obs::Tracer::Global().set_enabled(false);
    obs::Tracer::Global().Clear();
  }
};

const obs::SpanRecord* FindRoot(const std::vector<obs::SpanRecord>& spans,
                                const std::string& category) {
  for (const obs::SpanRecord& s : spans) {
    if (s.parent == -1 && s.category == category) return &s;
  }
  return nullptr;
}

std::vector<const obs::SpanRecord*> ChildrenOf(
    const std::vector<obs::SpanRecord>& spans, int32_t parent,
    const std::string& category) {
  std::vector<const obs::SpanRecord*> out;
  for (const obs::SpanRecord& s : spans) {
    if (s.parent == parent && s.category == category) out.push_back(&s);
  }
  return out;
}

workload::JoinWorkload SmallJoinWorkload(int payload_cols) {
  workload::JoinWorkloadSpec spec;
  spec.r_rows = 1 << 12;
  spec.s_rows = 1 << 13;
  spec.r_payload_cols = payload_cols;
  spec.s_payload_cols = payload_cols;
  auto w = workload::GenerateJoinInput(spec);
  GPUJOIN_CHECK_OK(w.status());
  return std::move(w).value();
}

TEST_F(TraceTest, JoinSpanTreeShapePerAlgorithm) {
  for (join::JoinAlgo algo : join::kAllJoinAlgos) {
    obs::Tracer::Global().Clear();
    vgpu::Device device = testing::MakeTestDevice();
    const workload::JoinWorkload w = SmallJoinWorkload(/*payload_cols=*/2);
    ASSERT_OK_AND_ASSIGN(Table r, Table::FromHost(device, w.r));
    ASSERT_OK_AND_ASSIGN(Table s, Table::FromHost(device, w.s));
    ASSERT_OK(join::RunJoin(device, algo, r, s).status());

    const auto& spans = obs::Tracer::Global().spans();
    const obs::SpanRecord* root = FindRoot(spans, "query");
    ASSERT_NE(root, nullptr) << join::JoinAlgoName(algo);
    EXPECT_EQ(root->name, std::string("join:") + join::JoinAlgoName(algo));
    EXPECT_TRUE(root->closed);

    std::vector<std::string> expected =
        algo == join::JoinAlgo::kNphj
            ? std::vector<std::string>{"match", "materialize"}
            : std::vector<std::string>{"transform", "match", "materialize"};
    const auto phases = ChildrenOf(spans, root->id, "phase");
    ASSERT_EQ(phases.size(), expected.size()) << join::JoinAlgoName(algo);
    double phase_cycles = 0;
    for (size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(phases[i]->name, expected[i]) << join::JoinAlgoName(algo);
      EXPECT_TRUE(phases[i]->closed);
      phase_cycles += phases[i]->duration_cycles();
    }

    // Every kernel under the query must hang off a phase; the phases must
    // account for the query's full simulated duration.
    EXPECT_TRUE(ChildrenOf(spans, root->id, "kernel").empty())
        << join::JoinAlgoName(algo);
    int kernels = 0;
    for (const auto* p : phases) {
      kernels += static_cast<int>(ChildrenOf(spans, p->id, "kernel").size());
    }
    EXPECT_GT(kernels, 0) << join::JoinAlgoName(algo);
    EXPECT_NEAR(phase_cycles, root->duration_cycles(),
                1e-6 * root->duration_cycles() + 1e-6)
        << join::JoinAlgoName(algo);
  }
}

TEST_F(TraceTest, NarrowJoinSkipsMaterializePhase) {
  // SMJ-* and PHJ-* write a narrow join's payloads in the match sweep: no
  // materialize phase and no gather kernel anywhere. NPHJ keeps its
  // cuDF-style gather maps: a materialize phase of gathers.
  const workload::JoinWorkload w = SmallJoinWorkload(/*payload_cols=*/1);
  for (join::JoinAlgo algo : join::kAllJoinAlgos) {
    SCOPED_TRACE(join::JoinAlgoName(algo));
    obs::Tracer::Global().Clear();
    vgpu::Device device = testing::MakeTestDevice();
    ASSERT_OK_AND_ASSIGN(Table r, Table::FromHost(device, w.r));
    ASSERT_OK_AND_ASSIGN(Table s, Table::FromHost(device, w.s));
    ASSERT_OK(join::RunJoin(device, algo, r, s).status());

    const auto& spans = obs::Tracer::Global().spans();
    const obs::SpanRecord* root = FindRoot(spans, "query");
    ASSERT_NE(root, nullptr);
    const auto phases = ChildrenOf(spans, root->id, "phase");
    auto gathers_under = [&](const obs::SpanRecord* phase) {
      int n = 0;
      for (const auto* k : ChildrenOf(spans, phase->id, "kernel")) {
        n += k->name == "gather";
      }
      return n;
    };
    if (algo == join::JoinAlgo::kNphj) {
      ASSERT_EQ(phases.size(), 2u);
      EXPECT_EQ(phases[0]->name, "match");
      EXPECT_EQ(phases[1]->name, "materialize");
      EXPECT_EQ(gathers_under(phases[0]), 0);
      EXPECT_EQ(gathers_under(phases[1]), 2);
    } else {
      ASSERT_EQ(phases.size(), 2u);
      EXPECT_EQ(phases[0]->name, "transform");
      EXPECT_EQ(phases[1]->name, "match");
      for (const auto* p : phases) EXPECT_EQ(gathers_under(p), 0) << p->name;
    }
  }
}

TEST_F(TraceTest, WideGftrMaterializeRunsNoHistogramKernel) {
  // Algorithm 1's lazy re-transforms hand back the histograms each side's
  // transform built: one radix_histogram per side, all in the transform
  // phase, while the materialize phase still runs its scatters.
  const workload::JoinWorkload w = SmallJoinWorkload(/*payload_cols=*/3);
  for (join::JoinAlgo algo : {join::JoinAlgo::kSmjOm, join::JoinAlgo::kPhjOm}) {
    SCOPED_TRACE(join::JoinAlgoName(algo));
    obs::Tracer::Global().Clear();
    vgpu::Device device = testing::MakeTestDevice();
    ASSERT_OK_AND_ASSIGN(Table r, Table::FromHost(device, w.r));
    ASSERT_OK_AND_ASSIGN(Table s, Table::FromHost(device, w.s));
    ASSERT_OK(join::RunJoin(device, algo, r, s).status());

    const auto& spans = obs::Tracer::Global().spans();
    const obs::SpanRecord* root = FindRoot(spans, "query");
    ASSERT_NE(root, nullptr);
    const auto phases = ChildrenOf(spans, root->id, "phase");
    ASSERT_EQ(phases.size(), 3u);
    auto kernels_under = [&](const obs::SpanRecord* phase, const char* name) {
      int n = 0;
      for (const auto* k : ChildrenOf(spans, phase->id, "kernel")) {
        n += k->name == name;
      }
      return n;
    };
    EXPECT_EQ(phases[0]->name, "transform");
    EXPECT_EQ(kernels_under(phases[0], "radix_histogram"), 2);
    EXPECT_EQ(phases[2]->name, "materialize");
    EXPECT_EQ(kernels_under(phases[2], "radix_histogram"), 0);
    EXPECT_GT(kernels_under(phases[2], "radix_scatter"), 0);
  }
}

TEST_F(TraceTest, GroupBySpanTreeShapePerStrategy) {
  struct Expectation {
    groupby::GroupByAlgo algo;
    std::vector<std::string> phases;
  };
  const Expectation expectations[] = {
      {groupby::GroupByAlgo::kHashGlobal, {"estimate", "aggregate", "emit"}},
      {groupby::GroupByAlgo::kHashPartitioned,
       {"estimate", "transform", "aggregate", "emit"}},
      {groupby::GroupByAlgo::kSortBased,
       {"estimate", "transform", "aggregate", "emit"}},
  };
  for (const Expectation& e : expectations) {
    obs::Tracer::Global().Clear();
    vgpu::Device device = testing::MakeTestDevice();
    workload::GroupByWorkloadSpec spec;
    spec.rows = 1 << 12;
    spec.num_groups = 1 << 6;
    auto host = workload::GenerateGroupByInput(spec);
    ASSERT_OK(host.status());
    ASSERT_OK_AND_ASSIGN(Table input, Table::FromHost(device, *host));
    groupby::GroupBySpec gs;
    gs.aggregates = {{1, groupby::AggOp::kSum}};
    ASSERT_OK(RunGroupBy(device, e.algo, input, gs).status());

    const auto& spans = obs::Tracer::Global().spans();
    const obs::SpanRecord* root = FindRoot(spans, "query");
    ASSERT_NE(root, nullptr) << groupby::GroupByAlgoName(e.algo);
    EXPECT_EQ(root->name,
              std::string("groupby:") + groupby::GroupByAlgoName(e.algo));

    const auto phases = ChildrenOf(spans, root->id, "phase");
    ASSERT_EQ(phases.size(), e.phases.size())
        << groupby::GroupByAlgoName(e.algo);
    double phase_cycles = 0;
    for (size_t i = 0; i < e.phases.size(); ++i) {
      EXPECT_EQ(phases[i]->name, e.phases[i])
          << groupby::GroupByAlgoName(e.algo);
      phase_cycles += phases[i]->duration_cycles();
    }
    EXPECT_TRUE(ChildrenOf(spans, root->id, "kernel").empty())
        << groupby::GroupByAlgoName(e.algo);
    EXPECT_NEAR(phase_cycles, root->duration_cycles(),
                1e-6 * root->duration_cycles() + 1e-6)
        << groupby::GroupByAlgoName(e.algo);
  }
}

TEST_F(TraceTest, ResilientJoinNestsAttemptAndQuerySpans) {
  vgpu::Device device = testing::MakeTestDevice();
  const workload::JoinWorkload w = SmallJoinWorkload(/*payload_cols=*/1);
  ASSERT_OK(
      join::RunJoinResilient(device, join::JoinAlgo::kPhjOm, w.r, w.s, {})
          .status());

  const auto& spans = obs::Tracer::Global().spans();
  const obs::SpanRecord* root = FindRoot(spans, "query");
  ASSERT_NE(root, nullptr);
  EXPECT_EQ(root->name, "resilient_join:PHJ-OM");
  const auto attempts = ChildrenOf(spans, root->id, "attempt");
  ASSERT_EQ(attempts.size(), 1u);
  EXPECT_EQ(attempts[0]->name, "in_memory_1");
  // The in-memory attempt contains the regular join query span.
  const auto nested = ChildrenOf(spans, attempts[0]->id, "query");
  ASSERT_EQ(nested.size(), 1u);
  EXPECT_EQ(nested[0]->name, "join:PHJ-OM");
}

TEST_F(TraceTest, DisabledTracerRecordsNothing) {
  obs::Tracer::Global().set_enabled(false);
  vgpu::Device device = testing::MakeTestDevice();
  const workload::JoinWorkload w = SmallJoinWorkload(/*payload_cols=*/1);
  ASSERT_OK_AND_ASSIGN(Table r, Table::FromHost(device, w.r));
  ASSERT_OK_AND_ASSIGN(Table s, Table::FromHost(device, w.s));
  ASSERT_OK(join::RunJoin(device, join::JoinAlgo::kNphj, r, s).status());
  EXPECT_TRUE(obs::Tracer::Global().spans().empty());
  EXPECT_TRUE(obs::Tracer::Global().events().empty());
}

}  // namespace
}  // namespace gpujoin
