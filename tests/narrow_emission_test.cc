// Narrow-join payload emission: the match finders' write sweeps emit a
// narrow side's payload value instead of its position.
//
// Prim level: for each finder (merge join, co-partitioned hash join, hash
// join over bucket chains), 4- and 8-byte payloads, and several input
// shapes (uniform, a J5-shaped M:N self-join, empty partitions/segments,
// zero matches), the emitted payload columns must equal — order included —
// the positions the same finder emits, gathered through GatherColumn.
//
// Join level: narrow joins on every algorithm match the host oracle and are
// bit-identical (rows in output order, KernelStats, simulated cycles) at 1,
// 4 and 7 simulation threads.

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <optional>
#include <random>
#include <string>
#include <tuple>
#include <vector>

#include "common/bit_util.h"
#include "join/join.h"
#include "join/reference.h"
#include "join/transform.h"
#include "prim/bucket_chain.h"
#include "prim/hash_join.h"
#include "prim/match.h"
#include "prim/merge_join.h"
#include "prim/radix_partition.h"
#include "storage/table.h"
#include "test_util.h"
#include "vgpu/buffer.h"
#include "workload/generator.h"
#include "workload/tpc.h"

namespace gpujoin {
namespace {

using prim::MatchEmit;
using prim::MatchResult;
using prim::SideEmit;
using testing::MakeTestDevice;
using vgpu::DeviceBuffer;

// ---------------------------------------------------------------------------
// Prim level
// ---------------------------------------------------------------------------

enum class Finder { kMerge, kCoPartitioned, kBucketChains };
enum class Shape { kUniform, kJ5ManyToMany, kEmptyPartitions, kZeroMatches };

struct HostKeys {
  std::vector<int32_t> r;
  std::vector<int32_t> s;
};

HostKeys MakeKeys(Shape shape) {
  std::mt19937_64 rng(static_cast<uint64_t>(shape) + 31);
  HostKeys k;
  switch (shape) {
    case Shape::kUniform:
      k.r.resize(4000);
      k.s.resize(9000);
      for (auto& v : k.r) v = static_cast<int32_t>(rng() % 3000);
      for (auto& v : k.s) v = static_cast<int32_t>(rng() % 3000);
      break;
    case Shape::kJ5ManyToMany: {
      // One relation on both sides, foreign keys drawn from a domain sized
      // for |T| / |S| ≈ 12.6 (TPC-DS Q95's ratio, as in workload/tpc.cc).
      k.r.resize(4096);
      const uint64_t domain = static_cast<uint64_t>(4096 / 12.6);
      for (auto& v : k.r) v = static_cast<int32_t>(rng() % domain);
      k.s = k.r;
      break;
    }
    case Shape::kEmptyPartitions:
      // R keys are multiples of 64, so only the partitions whose low bits
      // are zero hold build tuples; two thirds of S lies above every R key,
      // so the sorted probe side's later merge segments match nothing.
      k.r.resize(600);
      for (auto& v : k.r) v = static_cast<int32_t>(64 * (rng() % 200));
      k.s.resize(12000);
      for (size_t i = 0; i < k.s.size(); ++i) {
        k.s[i] = static_cast<int32_t>(i % 3 == 0 ? rng() % 12800
                                                 : 20000 + rng() % 20000);
      }
      break;
    case Shape::kZeroMatches:
      k.r.resize(2000);
      k.s.resize(5000);
      for (auto& v : k.r) v = static_cast<int32_t>(2 * (rng() % 5000));
      for (auto& v : k.s) v = static_cast<int32_t>(2 * (rng() % 5000) + 1);
      break;
  }
  return k;
}

/// Payload of original row i: distinct per row, using the upper half of an
/// 8-byte value.
int64_t PayloadValue(uint64_t i, DataType type, int64_t side_salt) {
  if (type == DataType::kInt32) return static_cast<int64_t>(i) * 7 + side_salt;
  return (static_cast<int64_t>(i) << 33) + side_salt;
}

template <typename V>
DeviceColumn WrapPayload(DeviceBuffer<V> buf) {
  if constexpr (sizeof(V) == 4) {
    return DeviceColumn::WrapI32(std::move(buf));
  } else {
    return DeviceColumn::WrapI64(std::move(buf));
  }
}

/// One side after its finder's transform: keys plus the aligned payload.
struct Side {
  DeviceBuffer<int32_t> keys;
  DeviceColumn pay;
  std::vector<uint64_t> offsets;                       // Co-partitioned.
  std::optional<prim::BucketChainLayout<int32_t>> bc;  // Bucket chains.
};

constexpr int kRadixBits = 5;

template <typename V>
Side PrepareSide(vgpu::Device& device, Finder finder,
                 const std::vector<int32_t>& host_keys, int64_t salt) {
  const uint64_t n = host_keys.size();
  const DataType type = sizeof(V) == 4 ? DataType::kInt32 : DataType::kInt64;
  std::vector<V> host_pay(n);
  for (uint64_t i = 0; i < n; ++i) {
    host_pay[i] = static_cast<V>(PayloadValue(i, type, salt));
  }
  Side side;
  auto keys = DeviceBuffer<int32_t>::FromHost(device, host_keys).ValueOrDie();
  auto vals = DeviceBuffer<V>::FromHost(device, host_pay).ValueOrDie();
  switch (finder) {
    case Finder::kMerge: {
      // The SORT-PAIRS transform's result: a stable sort by key.
      std::vector<uint64_t> order(n);
      std::iota(order.begin(), order.end(), 0);
      std::stable_sort(order.begin(), order.end(), [&](uint64_t a, uint64_t b) {
        return host_keys[a] < host_keys[b];
      });
      side.keys = DeviceBuffer<int32_t>::Allocate(device, n).ValueOrDie();
      auto sorted = DeviceBuffer<V>::Allocate(device, n).ValueOrDie();
      for (uint64_t i = 0; i < n; ++i) {
        side.keys[i] = host_keys[order[i]];
        sorted[i] = host_pay[order[i]];
      }
      side.pay = WrapPayload(std::move(sorted));
      break;
    }
    case Finder::kCoPartitioned: {
      DeviceBuffer<V> parted;
      GPUJOIN_CHECK_OK(prim::RadixPartition(device, keys, &vals, &side.keys,
                                            &parted, 0, kRadixBits));
      GPUJOIN_CHECK_OK(prim::ComputePartitionOffsets(device, side.keys,
                                                     kRadixBits, &side.offsets));
      side.pay = WrapPayload(std::move(parted));
      break;
    }
    case Finder::kBucketChains: {
      side.bc.emplace(
          prim::BuildBucketChainLayout(device, keys, 2, 3, 64).ValueOrDie());
      side.pay = WrapPayload(
          prim::ApplyBucketChainToValues(device, *side.bc, vals).ValueOrDie());
      break;
    }
  }
  return side;
}

/// Both sides of one input shape, transformed for `finder`.
struct Inputs {
  HostKeys keys;
  Side r;
  Side s;
};

Inputs PrepareInputs(vgpu::Device& device, Finder finder, DataType type,
                     Shape shape) {
  Inputs in{MakeKeys(shape), {}, {}};
  auto prepare = [&](const std::vector<int32_t>& k, int64_t salt) {
    return type == DataType::kInt32
               ? PrepareSide<int32_t>(device, finder, k, salt)
               : PrepareSide<int64_t>(device, finder, k, salt);
  };
  in.r = prepare(in.keys.r, 1);
  in.s = prepare(in.keys.s, 2);
  return in;
}

Result<MatchResult<int32_t>> RunFinder(vgpu::Device& device, Finder finder,
                                       const Side& r, const Side& s,
                                       const MatchEmit& emit) {
  switch (finder) {
    case Finder::kMerge:
      return prim::MergeJoinSorted(device, r.keys, s.keys, /*pk_fk=*/false,
                                   emit);
    case Finder::kCoPartitioned:
      // A small shared table: several build chunks per partition.
      return prim::HashJoinCoPartitioned(device, r.keys, s.keys, r.offsets,
                                         s.offsets, /*capacity=*/64, emit);
    case Finder::kBucketChains:
      return prim::HashJoinBucketChains(device, *r.bc, *s.bc,
                                        /*capacity=*/256, emit);
  }
  return Status::InvalidArgument("unknown finder");
}

std::vector<int32_t> KeysOf(const MatchResult<int32_t>& m) {
  return {m.keys.data(), m.keys.data() + m.count()};
}

class NarrowEmissionPrimTest
    : public ::testing::TestWithParam<std::tuple<Finder, DataType, Shape>> {};

TEST_P(NarrowEmissionPrimTest, PayloadsEqualGatheredPositions) {
  const auto [finder, type, shape] = GetParam();
  vgpu::Device device = MakeTestDevice();
  const Inputs in = PrepareInputs(device, finder, type, shape);
  const Side& r = in.r;
  const Side& s = in.s;

  ASSERT_OK_AND_ASSIGN(MatchResult<int32_t> pos,
                       RunFinder(device, finder, r, s, {}));
  if (shape == Shape::kZeroMatches) {
    EXPECT_EQ(pos.count(), 0u);
  } else {
    EXPECT_GT(pos.count(), 0u);
  }
  EXPECT_TRUE(pos.r_pay.empty());
  EXPECT_TRUE(pos.s_pay.empty());
  ASSERT_OK_AND_ASSIGN(DeviceColumn r_gathered,
                       join::GatherColumn(device, r.pay, pos.r_pos));
  ASSERT_OK_AND_ASSIGN(DeviceColumn s_gathered,
                       join::GatherColumn(device, s.pay, pos.s_pos));

  // Both sides emitted as payloads: no position buffers, same order.
  ASSERT_OK_AND_ASSIGN(
      MatchResult<int32_t> fused,
      RunFinder(device, finder, r, s,
                {SideEmit::Payload(r.pay), SideEmit::Payload(s.pay)}));
  EXPECT_EQ(KeysOf(fused), KeysOf(pos));
  EXPECT_TRUE(fused.r_pos.empty());
  EXPECT_TRUE(fused.s_pos.empty());
  ASSERT_EQ(fused.r_pay.size(), pos.count());
  ASSERT_EQ(fused.s_pay.size(), pos.count());
  EXPECT_EQ(fused.r_pay.type(), type);
  EXPECT_EQ(fused.s_pay.type(), type);
  EXPECT_EQ(fused.r_pay.ToHost(), r_gathered.ToHost());
  EXPECT_EQ(fused.s_pay.ToHost(), s_gathered.ToHost());

  // A side without payload columns gets neither positions nor values.
  ASSERT_OK_AND_ASSIGN(
      MatchResult<int32_t> half,
      RunFinder(device, finder, r, s,
                {SideEmit::Nothing(), SideEmit::Payload(s.pay)}));
  EXPECT_EQ(KeysOf(half), KeysOf(pos));
  EXPECT_TRUE(half.r_pos.empty());
  EXPECT_TRUE(half.r_pay.empty());
  EXPECT_TRUE(half.s_pos.empty());
  EXPECT_EQ(half.s_pay.ToHost(), s_gathered.ToHost());
}

// The payload reads and writes are charged where they happen (exact byte
// counts; every other access of the two runs is the same): the emitted
// columns store at the payload's width instead of 4 B positions; the
// probe side's payload streams with its keys (the merge join streams both
// segments'); the build side's value is one lane per emitted row.
TEST_P(NarrowEmissionPrimTest, ChargesPayloadTrafficWhereItHappens) {
  const auto [finder, type, shape] = GetParam();
  vgpu::Device device = MakeTestDevice();
  const Inputs in = PrepareInputs(device, finder, type, shape);
  const Side& r = in.r;
  const Side& s = in.s;
  auto charged = [&](const MatchEmit& emit, uint64_t* count) {
    const vgpu::KernelStats before = device.total_stats();
    MatchResult<int32_t> m = RunFinder(device, finder, r, s, emit).ValueOrDie();
    *count = m.count();
    vgpu::KernelStats delta = device.total_stats();
    delta.Sub(before);
    return delta;
  };
  uint64_t n = 0, n_fused = 0;
  const vgpu::KernelStats pos = charged({}, &n);
  const vgpu::KernelStats fused = charged(
      {SideEmit::Payload(r.pay), SideEmit::Payload(s.pay)}, &n_fused);
  ASSERT_EQ(n, n_fused);

  const uint64_t w = DataTypeSize(type);
  uint64_t probe_stream = 0;
  switch (finder) {
    case Finder::kMerge:
      probe_stream = in.keys.r.size() + in.keys.s.size();  // Both stream.
      break;
    case Finder::kCoPartitioned:
      for (size_t p = 0; p + 1 < r.offsets.size(); ++p) {
        const uint64_t rn = r.offsets[p + 1] - r.offsets[p];
        const uint64_t sn = s.offsets[p + 1] - s.offsets[p];
        if (rn > 0 && sn > 0) probe_stream += bit_util::CeilDiv(rn, 64) * sn;
      }
      break;
    case Finder::kBucketChains:
      for (uint32_t p = 0; p < r.bc->num_partitions(); ++p) {
        const uint64_t rn = r.bc->sizes[p], sn = s.bc->sizes[p];
        if (rn > 0 && sn > 0) probe_stream += bit_util::CeilDiv(rn, 64) * sn;
      }
      break;
  }
  const uint64_t build_lanes = finder == Finder::kMerge ? 0 : n;
  EXPECT_EQ(fused.bytes_read - pos.bytes_read, (probe_stream + build_lanes) * w);
  EXPECT_EQ(fused.bytes_written + 2 * sizeof(RowId) * n,
            pos.bytes_written + 2 * w * n);
}

std::string FinderName(Finder f) {
  switch (f) {
    case Finder::kMerge:
      return "Merge";
    case Finder::kCoPartitioned:
      return "CoPartitioned";
    case Finder::kBucketChains:
      return "BucketChains";
  }
  return "?";
}

std::string ShapeName(Shape s) {
  switch (s) {
    case Shape::kUniform:
      return "Uniform";
    case Shape::kJ5ManyToMany:
      return "J5ManyToMany";
    case Shape::kEmptyPartitions:
      return "EmptyPartitions";
    case Shape::kZeroMatches:
      return "ZeroMatches";
  }
  return "?";
}

INSTANTIATE_TEST_SUITE_P(
    AllFinders, NarrowEmissionPrimTest,
    ::testing::Combine(
        ::testing::Values(Finder::kMerge, Finder::kCoPartitioned,
                          Finder::kBucketChains),
        ::testing::Values(DataType::kInt32, DataType::kInt64),
        ::testing::Values(Shape::kUniform, Shape::kJ5ManyToMany,
                          Shape::kEmptyPartitions, Shape::kZeroMatches)),
    [](const ::testing::TestParamInfo<std::tuple<Finder, DataType, Shape>>&
           info) {
      return FinderName(std::get<0>(info.param)) + "_" +
             (std::get<1>(info.param) == DataType::kInt32 ? "Pay4B"
                                                          : "Pay8B") +
             "_" + ShapeName(std::get<2>(info.param));
    });

// ---------------------------------------------------------------------------
// Join level
// ---------------------------------------------------------------------------

struct NarrowInput {
  workload::JoinWorkload w;
  bool pk_fk = true;
};

NarrowInput MakeNarrowInput(const std::string& name) {
  NarrowInput in;
  if (name == "J5") {
    for (const workload::TpcJoinSpec& spec : workload::TpcJoinSpecs()) {
      if (spec.id != "J5") continue;
      workload::TpcGenOptions opts;
      opts.scale_tuples = uint64_t{1} << 13;
      in.w = workload::GenerateTpcJoin(spec, opts).ValueOrDie();
      in.pk_fk = spec.pk_fk;
    }
    return in;
  }
  workload::JoinWorkloadSpec spec;
  spec.r_rows = 3000;
  spec.s_rows = 7000;
  spec.match_ratio = 0.8;
  spec.seed = 5;
  if (name == "Mixed") {
    spec.s_payload_type = DataType::kInt64;  // 4 B R payload, 8 B S payload.
  } else if (name == "AllI64") {
    spec.key_type = DataType::kInt64;
    spec.r_payload_type = DataType::kInt64;
    spec.s_payload_type = DataType::kInt64;
  } else if (name == "RKeysOnly") {
    spec.r_payload_cols = 0;
  } else if (name == "KeysOnly") {
    spec.r_payload_cols = 0;
    spec.s_payload_cols = 0;
  }
  in.w = workload::GenerateJoinInput(spec).ValueOrDie();
  return in;
}

class NarrowJoinTest
    : public ::testing::TestWithParam<std::tuple<join::JoinAlgo, std::string>> {
};

TEST_P(NarrowJoinTest, MatchesOracleAndIsBitIdenticalAcrossSimThreads) {
  const auto& [algo, name] = GetParam();
  const NarrowInput in = MakeNarrowInput(name);
  ASSERT_FALSE(in.w.r.columns.empty());
  struct Run {
    std::vector<std::vector<int64_t>> columns;  // Output order included.
    std::vector<std::vector<int64_t>> canonical;
    vgpu::KernelStats stats;
    double cycles = 0;
  };
  auto run_at = [&](int threads) {
    vgpu::Device device = MakeTestDevice();
    device.set_parallel_sim(threads);
    Table r = Table::FromHost(device, in.w.r).ValueOrDie();
    Table s = Table::FromHost(device, in.w.s).ValueOrDie();
    join::JoinOptions opts;
    opts.pk_fk = in.pk_fk;
    auto res = join::RunJoin(device, algo, r, s, opts).ValueOrDie();
    const HostTable out = res.output.ToHost();
    Run run;
    for (const HostColumn& c : out.columns) run.columns.push_back(c.values);
    run.canonical = join::CanonicalRows(out);
    run.stats = device.total_stats();
    run.cycles = device.elapsed_cycles();
    return run;
  };
  const Run base = run_at(1);
  EXPECT_EQ(base.columns.size(),
            in.w.r.columns.size() + in.w.s.columns.size() - 1);
  EXPECT_EQ(base.canonical, join::ReferenceJoinRows(in.w.r, in.w.s));
  for (int threads : {4, 7}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    const Run run = run_at(threads);
    EXPECT_EQ(run.columns, base.columns);
    EXPECT_EQ(run.stats, base.stats);
    EXPECT_EQ(run.cycles, base.cycles);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllAlgos, NarrowJoinTest,
    ::testing::Combine(::testing::ValuesIn(join::kAllJoinAlgos),
                       ::testing::Values("Mixed", "AllI64", "J5", "RKeysOnly",
                                         "KeysOnly")),
    [](const ::testing::TestParamInfo<std::tuple<join::JoinAlgo, std::string>>&
           info) {
      std::string name = join::JoinAlgoName(std::get<0>(info.param));
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name + "_" + std::get<1>(info.param);
    });

// A side without payload columns is transformed keys-only: no row-ID
// column, no iota. Only a GFUR side with payloads to gather needs IDs.
TEST(KeysOnlySideTest, RunsNoRowIdIota) {
  workload::JoinWorkloadSpec spec;
  spec.r_rows = 3000;
  spec.s_rows = 7000;
  spec.r_payload_cols = 0;
  spec.s_payload_cols = 2;
  spec.seed = 5;
  const workload::JoinWorkload w = workload::GenerateJoinInput(spec).ValueOrDie();
  for (join::JoinAlgo algo : join::kAllJoinAlgos) {
    SCOPED_TRACE(join::JoinAlgoName(algo));
    vgpu::Device device = MakeTestDevice();
    Table r = Table::FromHost(device, w.r).ValueOrDie();
    Table s = Table::FromHost(device, w.s).ValueOrDie();
    device.profiler().Clear();
    auto res = join::RunJoin(device, algo, r, s).ValueOrDie();
    EXPECT_EQ(join::CanonicalRows(res.output.ToHost()),
              join::ReferenceJoinRows(w.r, w.s));
    const bool gfur = algo == join::JoinAlgo::kSmjUm ||
                      algo == join::JoinAlgo::kPhjUm;
    EXPECT_EQ(device.profiler().ProfileFor("iota").invocations, gfur ? 1u : 0u);
  }
}

}  // namespace
}  // namespace gpujoin
