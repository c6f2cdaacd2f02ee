// Group-by over the key domains that decide the key-range-aware paths:
// dense ranges (direct-mapped global table, bounded sort), negative and
// sparse keys (hashed table, full-width sort), int64 extremes whose range
// overflows, a single key, and ranges exactly at and one past the global
// table's slot count. Every strategy is checked against the host oracle, for
// the table and sort it ran, for row order, and for bit-identity across
// simulation thread counts.

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <tuple>
#include <vector>

#include "groupby/groupby.h"
#include "groupby/reference.h"
#include "join/reference.h"
#include "obs/trace.h"
#include "prim/hash.h"
#include "stats/estimator.h"
#include "test_util.h"

namespace gpujoin {
namespace {

using groupby::AggOp;
using groupby::GroupByAlgo;

constexpr int64_t kI64Min = std::numeric_limits<int64_t>::min();
constexpr int64_t kI64Max = std::numeric_limits<int64_t>::max();

struct KeyDomain {
  std::string name;
  DataType key_type = DataType::kInt32;
  /// Keys the rows draw from (uniformly, deterministic LCG).
  std::vector<int64_t> keys;
  /// GB-HASH-GLOBAL's expected table, GB-SORT's expected sort width.
  bool direct = false;
  int sort_bits = 32;
};

uint64_t Lcg(uint64_t* state) {
  *state = *state * 6364136223846793005ull + 1442695040888963407ull;
  return *state >> 33;
}

std::vector<int64_t> Range(int64_t lo, int64_t hi) {
  std::vector<int64_t> keys;
  for (int64_t k = lo; k <= hi; ++k) keys.push_back(k);
  return keys;
}

/// 64 distinct keys spanning exactly `span` values from `lo`: every fourth
/// key, with the last one moved to lo + span - 1.
std::vector<int64_t> SixtyFourKeysSpanning(int64_t lo, int64_t span) {
  std::vector<int64_t> keys;
  for (int64_t i = 0; i < 63; ++i) keys.push_back(lo + 4 * i);
  keys.push_back(lo + span - 1);
  return keys;
}

std::vector<KeyDomain> KeyDomains() {
  std::vector<KeyDomain> d;
  d.push_back({"dense_from_zero", DataType::kInt32, Range(0, 999), true, 10});
  d.push_back({"dense_negative", DataType::kInt32, Range(-500, 499), true, 32});
  {
    // Murmur-spread int32 keys (both signs, range ~2^32) plus the key -1,
    // the value the hashed table once used to mark empty slots.
    std::vector<int64_t> keys = {-1};
    for (uint64_t i = 0; i < 700; ++i) {
      keys.push_back(static_cast<int32_t>(prim::Murmur3Fmix64(i + 1)));
    }
    d.push_back({"sparse_hashed", DataType::kInt32, keys, false, 32});
  }
  {
    // -1 first, then a key whose home slot in the 64-slot hashed table is
    // -1's: it must probe past -1's slot, not take it over as empty.
    int64_t x = 64;
    while (prim::HashToSlot(x, 63) != prim::HashToSlot(-1, 63)) ++x;
    d.push_back({"collides_with_minus_one", DataType::kInt32, {-1, x}, false,
                 32});
  }
  d.push_back({"int64_extremes", DataType::kInt64,
               {kI64Min, kI64Min + 1, kI64Min + 7, -1, 0, 5, kI64Max - 3,
                kI64Max},
               false, 64});
  d.push_back({"single_key", DataType::kInt32, {42}, true, 6});
  // 64 distinct keys size the hashed table at 256 slots (3x headroom,
  // rounded to a power of two): a range of 256 direct-maps, 257 hashes.
  d.push_back({"range_equals_slots", DataType::kInt32,
               SixtyFourKeysSpanning(1000, 256), true, 11});
  d.push_back({"range_exceeds_slots", DataType::kInt32,
               SixtyFourKeysSpanning(1000, 257), false, 11});
  return d;
}

HostTable MakeInput(const KeyDomain& d) {
  constexpr uint64_t kRows = 4096;
  HostColumn key{"k", d.key_type, {}};
  HostColumn a{"a", DataType::kInt32, {}};
  HostColumn b{"b", DataType::kInt64, {}};
  uint64_t state = 12345;
  for (uint64_t i = 0; i < kRows; ++i) {
    // Every key appears at least once; the rest are uniform draws.
    const uint64_t pick = i < d.keys.size() ? i : Lcg(&state) % d.keys.size();
    key.values.push_back(d.keys[pick]);
    a.values.push_back(static_cast<int64_t>(Lcg(&state) % 2001) - 1000);
    b.values.push_back(static_cast<int64_t>(Lcg(&state) % 2000001) * 1000003 -
                       1000003000000);
  }
  return HostTable{"G", {std::move(key), std::move(a), std::move(b)}};
}

groupby::GroupBySpec AllOpsSpec() {
  groupby::GroupBySpec spec;
  spec.aggregates = {{1, AggOp::kSum},
                     {1, AggOp::kCount},
                     {1, AggOp::kMin},
                     {2, AggOp::kMax},
                     {2, AggOp::kAvg}};
  return spec;
}

std::string AlgoName(GroupByAlgo algo) {
  std::string name = groupby::GroupByAlgoName(algo);
  for (char& c : name) {
    if (c == '-') c = '_';
  }
  return name;
}

/// The value of attribute `key` on the first `category` span named `name`.
std::string SpanAttr(const std::string& category, const std::string& name,
                     const std::string& key) {
  for (const obs::SpanRecord& s : obs::Tracer::Global().spans()) {
    if (s.category != category || s.name != name) continue;
    for (const auto& [k, v] : s.attrs) {
      if (k == key) return v;
    }
  }
  return "";
}

class GroupByKeyDomainTest
    : public ::testing::TestWithParam<std::tuple<GroupByAlgo, KeyDomain>> {
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

TEST_P(GroupByKeyDomainTest, MatchesOracleWithTheExpectedTableAndOrder) {
  const auto& [algo, domain] = GetParam();
  const HostTable host = MakeInput(domain);
  const groupby::GroupBySpec spec = AllOpsSpec();
  vgpu::Device device = testing::MakeTestDevice();
  ASSERT_OK_AND_ASSIGN(Table input, Table::FromHost(device, host));
  ASSERT_OK_AND_ASSIGN(auto res, RunGroupBy(device, algo, input, spec));
  const HostTable out = res.output.ToHost();

  const auto expected = groupby::ReferenceGroupByRows(host, spec);
  EXPECT_EQ(join::CanonicalRows(out), expected);
  EXPECT_EQ(res.num_groups, domain.keys.size());

  const std::vector<int64_t>& keys = out.columns[0].values;
  if (algo == GroupByAlgo::kSortBased) {
    EXPECT_EQ(SpanAttr("phase", "transform", "sort_bits"),
              std::to_string(domain.sort_bits));
    // Both sorts order rows by the key's bits: signed order on the bounded
    // path (non-negative keys), two's-complement bit order on the
    // full-width path.
    for (size_t i = 1; i < keys.size(); ++i) {
      EXPECT_LT(static_cast<uint64_t>(keys[i - 1]),
                static_cast<uint64_t>(keys[i]))
          << "row " << i;
    }
  }
  if (algo == GroupByAlgo::kHashGlobal) {
    EXPECT_EQ(SpanAttr("phase", "aggregate", "table"),
              domain.direct ? "direct" : "hashed");
    if (domain.direct) {
      // Live slots of a direct-mapped table come out in key order.
      for (size_t i = 1; i < keys.size(); ++i) {
        EXPECT_LT(keys[i - 1], keys[i]) << "row " << i;
      }
    }
  }
}

TEST_P(GroupByKeyDomainTest, BitIdenticalAcrossSimThreads) {
  const auto& [algo, domain] = GetParam();
  const HostTable host = MakeInput(domain);
  const groupby::GroupBySpec spec = AllOpsSpec();
  struct Run {
    std::vector<std::vector<int64_t>> columns;  // Output order included.
    vgpu::KernelStats stats;
    double cycles = 0;
  };
  auto run_at = [&](int threads) {
    vgpu::Device device = testing::MakeTestDevice();
    device.set_parallel_sim(threads);
    Table input = Table::FromHost(device, host).ValueOrDie();
    auto res = RunGroupBy(device, algo, input, spec).ValueOrDie();
    Run r;
    for (const HostColumn& c : res.output.ToHost().columns) {
      r.columns.push_back(c.values);
    }
    r.stats = device.total_stats();
    r.cycles = device.elapsed_cycles();
    return r;
  };
  const Run base = run_at(1);
  for (int threads : {4, 7}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    const Run r = run_at(threads);
    EXPECT_EQ(r.columns, base.columns);
    EXPECT_EQ(r.stats, base.stats);
    EXPECT_EQ(r.cycles, base.cycles);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllAlgosAllDomains, GroupByKeyDomainTest,
    ::testing::Combine(::testing::ValuesIn(groupby::kAllGroupByAlgos),
                       ::testing::ValuesIn(KeyDomains())),
    [](const ::testing::TestParamInfo<std::tuple<GroupByAlgo, KeyDomain>>& info) {
      return AlgoName(std::get<0>(info.param)) + "_" +
             std::get<1>(info.param).name;
    });

TEST(GroupByKeyRangeTest, SlotBoundaryIsExact) {
  vgpu::Device device = testing::MakeTestDevice();
  for (const KeyDomain& d : KeyDomains()) {
    if (d.name != "range_equals_slots" && d.name != "range_exceeds_slots") {
      continue;
    }
    SCOPED_TRACE(d.name);
    const HostTable host = MakeInput(d);
    ASSERT_OK_AND_ASSIGN(Table input, Table::FromHost(device, host));
    ASSERT_OK_AND_ASSIGN(stats::KeyStats keys,
                         stats::EstimateKeyStats(device, input.column(0)));
    ASSERT_EQ(groupby::HashGlobalSlots(keys.distinct), 256u);
    EXPECT_EQ(keys.min, 1000);
    EXPECT_EQ(groupby::DirectMapSlots(keys), d.direct ? 256u : 0u);
  }
}

TEST(GroupByKeyRangeTest, OverflowingRangeFallsBackToHashing) {
  EXPECT_EQ(groupby::DirectMapSlots({8, kI64Min, kI64Max}), 0u);
  EXPECT_EQ(groupby::DirectMapSlots({8, -1, kI64Max}), 0u);
  EXPECT_EQ(groupby::DirectMapSlots({8, kI64Min, kI64Min + 63}), 64u);
  // An empty column (min > max) has no range.
  EXPECT_EQ(groupby::DirectMapSlots({1, 1, 0}), 0u);
}

}  // namespace
}  // namespace gpujoin
