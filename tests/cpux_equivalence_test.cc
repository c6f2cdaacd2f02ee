// The vectorized CPU backend against the host reference oracles: every
// join algorithm and group-by strategy must produce exactly the reference
// multiset on every workload shape, and bit-identical outputs at every
// worker-pool size (the cpux determinism contract mirrors DESIGN.md §12).

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "cpux/context.h"
#include "cpux/groupby.h"
#include "cpux/join.h"
#include "groupby/reference.h"
#include "join/reference.h"
#include "test_util.h"
#include "workload/generator.h"
#include "workload/tpc.h"

namespace gpujoin {
namespace {

workload::JoinWorkload MustJoinInput(const workload::JoinWorkloadSpec& spec) {
  auto w = workload::GenerateJoinInput(spec);
  GPUJOIN_CHECK_OK(w.status());
  return std::move(*w);
}

HostTable MustGroupByInput(const workload::GroupByWorkloadSpec& spec) {
  auto t = workload::GenerateGroupByInput(spec);
  GPUJOIN_CHECK_OK(t.status());
  return std::move(*t);
}

struct JoinVariant {
  const char* name;
  workload::JoinWorkloadSpec spec;
};

std::vector<JoinVariant> JoinVariants() {
  std::vector<JoinVariant> out;
  {
    JoinVariant v{"uniform", {}};
    v.spec.r_rows = 1 << 12;
    v.spec.s_rows = 1 << 13;
    out.push_back(v);
  }
  {
    JoinVariant v{"zipf", {}};
    v.spec.r_rows = 1 << 11;
    v.spec.s_rows = 1 << 13;
    v.spec.zipf_theta = 0.9;
    out.push_back(v);
  }
  {
    JoinVariant v{"half_match", {}};
    v.spec.r_rows = 1 << 12;
    v.spec.s_rows = 1 << 12;
    v.spec.match_ratio = 0.5;
    out.push_back(v);
  }
  {
    JoinVariant v{"wide_int64", {}};
    v.spec.r_rows = 1 << 11;
    v.spec.s_rows = 1 << 12;
    v.spec.r_payload_cols = 3;
    v.spec.s_payload_cols = 2;
    v.spec.key_type = DataType::kInt64;
    v.spec.r_payload_type = DataType::kInt64;
    v.spec.s_payload_type = DataType::kInt64;
    out.push_back(v);
  }
  {
    JoinVariant v{"heavy_zipf_small_r", {}};
    v.spec.r_rows = 1 << 7;
    v.spec.s_rows = 1 << 13;
    v.spec.zipf_theta = 1.1;
    out.push_back(v);
  }
  return out;
}

TEST(CpuxJoinEquivalence, AllAlgosMatchReferenceOnAllVariants) {
  for (const JoinVariant& variant : JoinVariants()) {
    const workload::JoinWorkload w = MustJoinInput(variant.spec);
    const auto expected = join::ReferenceJoinRows(w.r, w.s);
    for (const join::JoinAlgo algo : join::kAllJoinAlgos) {
      cpux::Context ctx(1);
      ASSERT_OK_AND_ASSIGN(cpux::CpuxRunResult res,
                           cpux::RunJoin(ctx, algo, w.r, w.s));
      EXPECT_EQ(join::CanonicalRows(res.output), expected)
          << variant.name << " / " << join::JoinAlgoName(algo);
      EXPECT_EQ(res.output_rows, expected.size())
          << variant.name << " / " << join::JoinAlgoName(algo);
      EXPECT_OK(ctx.CheckNoLeaks());
    }
  }
}

// Duplicate keys on both sides: a handwritten cross product and the
// TPC-DS Q95-shaped self-join (J5, |T| ≈ 12.6|S|), on every engine, on
// one thread and on three.
TEST(CpuxJoinEquivalence, ManyToManyMatchesReference) {
  std::vector<workload::JoinWorkload> inputs(1);
  inputs[0].r = HostTable{"r", {{"k", DataType::kInt32, {1, 1, 2}, {}},
                                {"p", DataType::kInt32, {10, 11, 20}, {}}}};
  inputs[0].s = HostTable{"s", {{"k", DataType::kInt32, {1, 2, 2, 3}, {}},
                                {"q", DataType::kInt32, {7, 8, 9, 6}, {}}}};
  for (const workload::TpcJoinSpec& spec : workload::TpcJoinSpecs()) {
    if (spec.id != "J5") continue;
    workload::TpcGenOptions opts;
    opts.scale_tuples = uint64_t{1} << 13;
    inputs.push_back(workload::GenerateTpcJoin(spec, opts).ValueOrDie());
  }
  ASSERT_EQ(inputs.size(), 2u);
  for (const workload::JoinWorkload& w : inputs) {
    const auto expected = join::ReferenceJoinRows(w.r, w.s);
    for (const join::JoinAlgo algo : join::kAllJoinAlgos) {
      for (const int threads : {1, 3}) {
        cpux::Context ctx(threads);
        ASSERT_OK_AND_ASSIGN(cpux::CpuxRunResult res,
                             cpux::RunJoin(ctx, algo, w.r, w.s));
        EXPECT_EQ(join::CanonicalRows(res.output), expected)
            << w.r.name << " / " << join::JoinAlgoName(algo) << " / "
            << threads;
        EXPECT_EQ(res.output_rows, expected.size());
        EXPECT_OK(ctx.CheckNoLeaks());
      }
    }
  }
}

TEST(CpuxJoinEquivalence, EmptyProbeSideProducesEmptyOutput) {
  HostTable r{"r",
              {{"k", DataType::kInt32, {1, 2, 3}},
               {"p", DataType::kInt32, {10, 20, 30}}}};
  HostTable s{"s", {{"fk", DataType::kInt32, {}}, {"q", DataType::kInt32, {}}}};
  for (const join::JoinAlgo algo : join::kAllJoinAlgos) {
    cpux::Context ctx(1);
    ASSERT_OK_AND_ASSIGN(cpux::CpuxRunResult res,
                         cpux::RunJoin(ctx, algo, r, s));
    EXPECT_EQ(res.output_rows, 0u) << join::JoinAlgoName(algo);
    EXPECT_OK(ctx.CheckNoLeaks());
  }
}

TEST(CpuxJoinEquivalence, StringColumnsAreRejectedTowardVgpu) {
  HostTable r{"r", {{"k", DataType::kInt32, {1, 2}}}};
  HostTable s{"s", {{"fk", DataType::kInt32, {1, 1}}}};
  // A non-empty `strings` vector marks a string column (storage/table.h).
  s.columns.push_back(HostColumn{"name", DataType::kInt64, {}, {"a", "b"}});
  cpux::Context ctx(1);
  const Result<cpux::CpuxRunResult> res =
      cpux::RunJoin(ctx, join::JoinAlgo::kPhjOm, r, s);
  ASSERT_FALSE(res.ok());
  EXPECT_EQ(res.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(res.status().message().find("vgpu"), std::string::npos)
      << res.status().ToString();
}

TEST(CpuxJoinEquivalence, RadixBitsOverrideMatchesReference) {
  workload::JoinWorkloadSpec spec;
  spec.r_rows = 1 << 12;
  spec.s_rows = 1 << 13;
  const workload::JoinWorkload w = MustJoinInput(spec);
  const auto expected = join::ReferenceJoinRows(w.r, w.s);
  for (const int bits : {0, 2, 7}) {
    cpux::Context ctx(1);
    cpux::CpuxOptions opts;
    opts.radix_bits_override = bits;
    ASSERT_OK_AND_ASSIGN(
        cpux::CpuxRunResult res,
        cpux::RunJoin(ctx, join::JoinAlgo::kPhjUm, w.r, w.s, opts));
    EXPECT_EQ(join::CanonicalRows(res.output), expected) << "bits=" << bits;
  }
}

TEST(CpuxJoinEquivalence, OutputBitIdenticalAcrossThreadCounts) {
  workload::JoinWorkloadSpec spec;
  spec.r_rows = 1 << 13;
  spec.s_rows = 1 << 14;
  spec.zipf_theta = 0.5;
  const workload::JoinWorkload w = MustJoinInput(spec);
  for (const join::JoinAlgo algo : join::kAllJoinAlgos) {
    cpux::Context base(1);
    ASSERT_OK_AND_ASSIGN(cpux::CpuxRunResult ref,
                         cpux::RunJoin(base, algo, w.r, w.s));
    for (const int threads : {3, 8}) {
      cpux::Context ctx(threads);
      ASSERT_OK_AND_ASSIGN(cpux::CpuxRunResult res,
                           cpux::RunJoin(ctx, algo, w.r, w.s));
      ASSERT_EQ(res.output.columns.size(), ref.output.columns.size());
      for (size_t c = 0; c < ref.output.columns.size(); ++c) {
        // Bit-identical, not just multiset-equal: the fixed-chunk
        // decomposition makes output order independent of the pool size.
        EXPECT_EQ(res.output.columns[c].values, ref.output.columns[c].values)
            << join::JoinAlgoName(algo) << " threads=" << threads
            << " col=" << c;
      }
    }
  }
}

struct GroupByVariant {
  const char* name;
  workload::GroupByWorkloadSpec spec;
};

std::vector<GroupByVariant> GroupByVariants() {
  std::vector<GroupByVariant> out;
  {
    GroupByVariant v{"uniform", {}};
    v.spec.rows = 1 << 12;
    v.spec.num_groups = 1 << 6;
    out.push_back(v);
  }
  {
    GroupByVariant v{"zipf", {}};
    v.spec.rows = 1 << 12;
    v.spec.num_groups = 1 << 8;
    v.spec.zipf_theta = 0.9;
    out.push_back(v);
  }
  {
    GroupByVariant v{"one_group", {}};
    v.spec.rows = 1 << 10;
    v.spec.num_groups = 1;
    out.push_back(v);
  }
  {
    GroupByVariant v{"mostly_distinct_int64", {}};
    v.spec.rows = 1 << 11;
    v.spec.num_groups = 1 << 11;
    v.spec.payload_cols = 2;
    v.spec.key_type = DataType::kInt64;
    v.spec.payload_type = DataType::kInt64;
    out.push_back(v);
  }
  return out;
}

groupby::GroupBySpec AllOpsSpec() {
  groupby::GroupBySpec spec;
  spec.aggregates = {{1, groupby::AggOp::kSum},
                     {1, groupby::AggOp::kCount},
                     {1, groupby::AggOp::kMin},
                     {1, groupby::AggOp::kMax},
                     {1, groupby::AggOp::kAvg}};
  return spec;
}

TEST(CpuxGroupByEquivalence, AllAlgosMatchReferenceOnAllVariants) {
  const groupby::GroupBySpec spec = AllOpsSpec();
  for (const GroupByVariant& variant : GroupByVariants()) {
    const HostTable input = MustGroupByInput(variant.spec);
    const auto expected = groupby::ReferenceGroupByRows(input, spec);
    for (const groupby::GroupByAlgo algo : groupby::kAllGroupByAlgos) {
      cpux::Context ctx(1);
      ASSERT_OK_AND_ASSIGN(cpux::CpuxRunResult res,
                           cpux::RunGroupBy(ctx, algo, input, spec));
      EXPECT_EQ(join::CanonicalRows(res.output), expected)
          << variant.name << " / " << groupby::GroupByAlgoName(algo);
      EXPECT_EQ(res.output_rows, expected.size())
          << variant.name << " / " << groupby::GroupByAlgoName(algo);
      EXPECT_OK(ctx.CheckNoLeaks());
    }
  }
}

TEST(CpuxGroupByEquivalence, OutputSchemaNamesAggregates) {
  workload::GroupByWorkloadSpec wspec;
  wspec.rows = 1 << 8;
  wspec.num_groups = 8;
  const HostTable input = MustGroupByInput(wspec);
  groupby::GroupBySpec spec;
  spec.aggregates = {{1, groupby::AggOp::kSum}, {1, groupby::AggOp::kCount}};
  cpux::Context ctx(1);
  ASSERT_OK_AND_ASSIGN(
      cpux::CpuxRunResult res,
      cpux::RunGroupBy(ctx, groupby::GroupByAlgo::kHashGlobal, input, spec));
  ASSERT_EQ(res.output.columns.size(), 3u);
  EXPECT_EQ(res.output.columns[0].name, input.columns[0].name);
  EXPECT_EQ(res.output.columns[1].name,
            std::string("sum_") + input.columns[1].name);
  EXPECT_EQ(res.output.columns[2].name, "count");
}

TEST(CpuxGroupByEquivalence, OutputBitIdenticalAcrossThreadCounts) {
  workload::GroupByWorkloadSpec wspec;
  wspec.rows = 1 << 13;
  wspec.num_groups = 1 << 9;
  wspec.zipf_theta = 0.7;
  const HostTable input = MustGroupByInput(wspec);
  const groupby::GroupBySpec spec = AllOpsSpec();
  for (const groupby::GroupByAlgo algo : groupby::kAllGroupByAlgos) {
    cpux::Context base(1);
    ASSERT_OK_AND_ASSIGN(cpux::CpuxRunResult ref,
                         cpux::RunGroupBy(base, algo, input, spec));
    for (const int threads : {3, 8}) {
      cpux::Context ctx(threads);
      ASSERT_OK_AND_ASSIGN(cpux::CpuxRunResult res,
                           cpux::RunGroupBy(ctx, algo, input, spec));
      ASSERT_EQ(res.output.columns.size(), ref.output.columns.size());
      for (size_t c = 0; c < ref.output.columns.size(); ++c) {
        EXPECT_EQ(res.output.columns[c].values, ref.output.columns[c].values)
            << groupby::GroupByAlgoName(algo) << " threads=" << threads
            << " col=" << c;
      }
    }
  }
}

}  // namespace
}  // namespace gpujoin
