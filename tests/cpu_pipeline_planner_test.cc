// The multi-join pipeline and the Figure 18 planner decision trees.

#include <gtest/gtest.h>

#include <map>

#include "join/pipeline.h"
#include "join/planner.h"
#include "join/reference.h"
#include "test_util.h"
#include "workload/generator.h"

namespace gpujoin {
namespace {

using testing::MakeTestDevice;

class PipelineTest : public ::testing::TestWithParam<join::JoinAlgo> {};

TEST_P(PipelineTest, MatchesSequentialReferenceJoins) {
  vgpu::Device device = MakeTestDevice();
  workload::StarSchemaSpec spec;
  spec.fact_rows = 3000;
  spec.num_dims = 3;
  spec.dim_rows = 512;
  auto schema = workload::GenerateStarSchema(spec).ValueOrDie();

  auto fact = Table::FromHost(device, schema.fact).ValueOrDie();
  std::vector<Table> dims;
  for (const HostTable& d : schema.dims) {
    dims.push_back(Table::FromHost(device, d).ValueOrDie());
  }
  auto res = join::RunJoinPipeline(device, GetParam(), fact, dims);
  ASSERT_OK(res);
  // Every fact row matches in every dim (100% FK coverage) so the pipeline
  // preserves the fact cardinality.
  EXPECT_EQ(res->final_rows, spec.fact_rows);
  ASSERT_EQ(res->per_join.size(), 3u);

  // Verify payload correctness row by row: each output row's dim payloads
  // must equal the dim values of the fact row it references.
  const HostTable out = res->output.ToHost();
  // Schema: last key, P_3, P_2, P_1 (accumulated most-recent-first), fact_id.
  const int id_col = res->output.num_columns() - 1;
  std::vector<std::map<int64_t, int64_t>> dim_maps(3);
  for (int d = 0; d < 3; ++d) {
    for (uint64_t i = 0; i < schema.dims[d].num_rows(); ++i) {
      dim_maps[d][schema.dims[d].columns[0].values[i]] =
          schema.dims[d].columns[1].values[i];
    }
  }
  for (uint64_t row = 0; row < out.num_rows(); ++row) {
    const int64_t fact_id = out.columns[id_col].values[row];
    ASSERT_GE(fact_id, 0);
    ASSERT_LT(fact_id, static_cast<int64_t>(spec.fact_rows));
    for (int d = 0; d < 3; ++d) {
      const int64_t fk = schema.fact.columns[d].values[fact_id];
      const int64_t expect_payload = dim_maps[d][fk];
      // Find the output column named p<d+1>.
      bool found = false;
      for (size_t c = 0; c < out.columns.size(); ++c) {
        if (out.columns[c].name == "p" + std::to_string(d + 1)) {
          EXPECT_EQ(out.columns[c].values[row], expect_payload)
              << "row " << row << " dim " << d;
          found = true;
        }
      }
      EXPECT_TRUE(found);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllAlgos, PipelineTest,
                         ::testing::ValuesIn(join::kAllJoinAlgos),
                         [](const ::testing::TestParamInfo<join::JoinAlgo>& i) {
                           std::string n = join::JoinAlgoName(i.param);
                           for (char& ch : n) {
                             if (ch == '-') ch = '_';
                           }
                           return n;
                         });

TEST(PipelineTest, RejectsEmptyDims) {
  vgpu::Device device = MakeTestDevice();
  HostTable fact{"f", {{"fk1", DataType::kInt32, {0, 1}}}};
  auto f = Table::FromHost(device, fact).ValueOrDie();
  EXPECT_FALSE(
      join::RunJoinPipeline(device, join::JoinAlgo::kPhjOm, f, {}).ok());
}

// ---------------------------------------------------------------------------
// Planner (Figure 18).
// ---------------------------------------------------------------------------

join::JoinFeatures BaseFeatures() {
  join::JoinFeatures f;
  f.r_rows = 1 << 20;
  f.s_rows = 1 << 21;
  f.r_payload_cols = 2;
  f.s_payload_cols = 2;
  f.match_ratio = 1.0;
  f.zipf_theta = 0.0;
  return f;
}

TEST(PlannerTest, WideHighMatchChoosesPhjOm) {
  EXPECT_EQ(ChooseJoinAlgo(BaseFeatures()), join::JoinAlgo::kPhjOm);
}

TEST(PlannerTest, NarrowChoosesPhjUm) {
  join::JoinFeatures f = BaseFeatures();
  f.r_payload_cols = 1;
  f.s_payload_cols = 1;
  EXPECT_EQ(ChooseJoinAlgo(f), join::JoinAlgo::kPhjUm);
}

TEST(PlannerTest, LowMatchChoosesPhjUm) {
  join::JoinFeatures f = BaseFeatures();
  f.match_ratio = 0.1;
  EXPECT_EQ(ChooseJoinAlgo(f), join::JoinAlgo::kPhjUm);
}

TEST(PlannerTest, SkewAlwaysChoosesPhjOm) {
  join::JoinFeatures f = BaseFeatures();
  f.zipf_theta = 1.5;
  EXPECT_EQ(ChooseJoinAlgo(f), join::JoinAlgo::kPhjOm);
  f.r_payload_cols = 1;
  f.s_payload_cols = 1;  // Even narrow: bucket chains collapse under skew.
  EXPECT_EQ(ChooseJoinAlgo(f), join::JoinAlgo::kPhjOm);
}

TEST(PlannerTest, SortMergeFamilyRules) {
  join::JoinFeatures f = BaseFeatures();
  EXPECT_EQ(ChooseSortMergeVariant(f), join::JoinAlgo::kSmjOm);
  f.payloads_8byte = true;
  EXPECT_EQ(ChooseSortMergeVariant(f), join::JoinAlgo::kSmjUm);
  f.payloads_8byte = false;
  f.keys_8byte = true;
  EXPECT_EQ(ChooseSortMergeVariant(f), join::JoinAlgo::kSmjUm);
  f.keys_8byte = false;
  f.match_ratio = 0.05;
  EXPECT_EQ(ChooseSortMergeVariant(f), join::JoinAlgo::kSmjUm);
}

TEST(PlannerTest, FeaturesFromTablesDetectTypes) {
  vgpu::Device device = MakeTestDevice();
  HostTable r{"r", {{"k", DataType::kInt32, {1}},
                    {"p", DataType::kInt64, {2}}}};
  HostTable s{"s", {{"k", DataType::kInt32, {1}},
                    {"q", DataType::kInt32, {3}}}};
  auto rd = Table::FromHost(device, r).ValueOrDie();
  auto sd = Table::FromHost(device, s).ValueOrDie();
  const auto f = join::JoinFeatures::FromTables(rd, sd);
  EXPECT_FALSE(f.keys_8byte);
  EXPECT_TRUE(f.payloads_8byte);
  EXPECT_EQ(f.r_payload_cols, 1);
  EXPECT_TRUE(f.narrow());
}

TEST(PlannerTest, ExplainMentionsChoice) {
  const std::string s = ExplainChoice(BaseFeatures());
  EXPECT_NE(s.find("PHJ-OM"), std::string::npos);
}

}  // namespace
}  // namespace gpujoin
