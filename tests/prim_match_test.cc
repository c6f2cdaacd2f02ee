// Match-finding primitives: merge join over sorted inputs (incl. the
// clustered-output property GFTR depends on), co-partitioned hash join,
// and the global (NPHJ) hash join.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>
#include <vector>

#include "common/bit_util.h"
#include "prim/hash_join.h"
#include "prim/merge_join.h"
#include "prim/radix_partition.h"
#include "test_util.h"
#include "vgpu/buffer.h"

namespace gpujoin::prim {
namespace {

using testing::MakeTestDevice;
using vgpu::DeviceBuffer;

/// Expected matches as a sorted multiset of (key, r_key_idx?, s_idx) —
/// verified via key values only plus pair counts, since position mappings
/// differ per algorithm layout.
uint64_t ExpectedMatchCount(const std::vector<int32_t>& r,
                            const std::vector<int32_t>& s) {
  std::map<int32_t, uint64_t> r_counts;
  for (int32_t k : r) ++r_counts[k];
  uint64_t total = 0;
  for (int32_t k : s) {
    auto it = r_counts.find(k);
    if (it != r_counts.end()) total += it->second;
  }
  return total;
}

TEST(MergeJoinTest, PkFkMatchesAreCorrect) {
  vgpu::Device device = MakeTestDevice();
  // R: unique sorted keys 0..99; S: sorted foreign keys with duplicates.
  auto r = DeviceBuffer<int32_t>::Allocate(device, 100).ValueOrDie();
  for (int i = 0; i < 100; ++i) r[i] = i;
  std::vector<int32_t> s_host;
  for (int i = 0; i < 100; i += 2) {
    s_host.push_back(i);
    s_host.push_back(i);  // Each even key twice.
  }
  auto s = DeviceBuffer<int32_t>::FromHost(device, s_host).ValueOrDie();

  auto match = MergeJoinSorted(device, r, s, /*pk_fk=*/true);
  ASSERT_OK(match);
  EXPECT_EQ(match->count(), s_host.size());
  for (uint64_t i = 0; i < match->count(); ++i) {
    EXPECT_EQ(match->keys[i], s_host[match->s_pos[i]]);
    EXPECT_EQ(r[match->r_pos[i]], match->keys[i]);
  }
}

TEST(MergeJoinTest, ManyToManyCrossProducts) {
  vgpu::Device device = MakeTestDevice();
  const std::vector<int32_t> r_host = {1, 1, 2, 5, 5, 5};
  const std::vector<int32_t> s_host = {1, 2, 2, 5};
  auto r = DeviceBuffer<int32_t>::FromHost(device, r_host).ValueOrDie();
  auto s = DeviceBuffer<int32_t>::FromHost(device, s_host).ValueOrDie();
  auto match = MergeJoinSorted(device, r, s, /*pk_fk=*/false);
  ASSERT_OK(match);
  // key 1: 2x1; key 2: 1x2; key 5: 3x1 => 2 + 2 + 3 = 7.
  EXPECT_EQ(match->count(), 7u);
  EXPECT_EQ(match->count(), ExpectedMatchCount(r_host, s_host));
}

TEST(MergeJoinTest, SPositionsAreClustered) {
  // The GFTR-critical property (§4.1): with sorted inputs, the emitted
  // probe-side positions ascend monotonically.
  vgpu::Device device = MakeTestDevice();
  std::mt19937_64 rng(4);
  std::vector<int32_t> r_host(500), s_host(2000);
  for (auto& k : r_host) k = static_cast<int32_t>(rng() % 1000);
  for (auto& k : s_host) k = static_cast<int32_t>(rng() % 1000);
  std::sort(r_host.begin(), r_host.end());
  std::sort(s_host.begin(), s_host.end());
  auto r = DeviceBuffer<int32_t>::FromHost(device, r_host).ValueOrDie();
  auto s = DeviceBuffer<int32_t>::FromHost(device, s_host).ValueOrDie();
  auto match = MergeJoinSorted(device, r, s, /*pk_fk=*/false);
  ASSERT_OK(match);
  ASSERT_GT(match->count(), 0u);
  for (uint64_t i = 1; i < match->count(); ++i) {
    EXPECT_GE(match->s_pos[i], match->s_pos[i - 1]);
  }
}

TEST(MergeJoinTest, DisjointKeyRangesProduceNothing) {
  vgpu::Device device = MakeTestDevice();
  auto r = DeviceBuffer<int32_t>::FromHost(device, {{1, 2, 3}}).ValueOrDie();
  auto s = DeviceBuffer<int32_t>::FromHost(device, {{10, 20}}).ValueOrDie();
  auto match = MergeJoinSorted(device, r, s, true);
  ASSERT_OK(match);
  EXPECT_EQ(match->count(), 0u);
}

class CoPartitionedHashJoinTest : public ::testing::TestWithParam<int> {};

TEST_P(CoPartitionedHashJoinTest, MatchesReferenceCount) {
  const int bits = GetParam();
  vgpu::Device device = MakeTestDevice();
  std::mt19937_64 rng(17);
  const uint64_t nr = 4000, ns = 9000;
  std::vector<int32_t> r_host(nr), s_host(ns);
  for (auto& k : r_host) k = static_cast<int32_t>(rng() % 3000);
  for (auto& k : s_host) k = static_cast<int32_t>(rng() % 3000);

  // Partition both sides by the low `bits` (the PHJ-OM transform).
  auto prep = [&](const std::vector<int32_t>& host) {
    auto keys = DeviceBuffer<int32_t>::FromHost(device, host).ValueOrDie();
    auto vals = DeviceBuffer<int32_t>::Allocate(device, host.size()).ValueOrDie();
    DeviceBuffer<int32_t> ko, vo;
    GPUJOIN_CHECK_OK(RadixPartition(device, keys, &vals, &ko, &vo, 0, bits));
    std::vector<uint64_t> offsets;
    GPUJOIN_CHECK_OK(ComputePartitionOffsets(device, ko, bits, &offsets));
    return std::make_pair(std::move(ko), std::move(offsets));
  };
  auto [r_keys, r_off] = prep(r_host);
  auto [s_keys, s_off] = prep(s_host);

  auto match = HashJoinCoPartitioned(device, r_keys, s_keys, r_off, s_off,
                                     /*capacity=*/256);
  ASSERT_OK(match);
  EXPECT_EQ(match->count(), ExpectedMatchCount(r_host, s_host));
  for (uint64_t i = 0; i < match->count(); ++i) {
    EXPECT_EQ(r_keys[match->r_pos[i]], match->keys[i]);
    EXPECT_EQ(s_keys[match->s_pos[i]], match->keys[i]);
  }
}

INSTANTIATE_TEST_SUITE_P(Bits, CoPartitionedHashJoinTest,
                         ::testing::Values(1, 3, 5, 8));

TEST(CoPartitionedHashJoinTest, BuildChunkingHandlesOversizedPartitions) {
  // Capacity far below the partition size: block-nested-loop chunking.
  vgpu::Device device = MakeTestDevice();
  const uint64_t nr = 2000;
  std::vector<int32_t> r_host(nr), s_host(nr);
  for (uint64_t i = 0; i < nr; ++i) {
    r_host[i] = static_cast<int32_t>(i) * 2;  // All even keys, 1 partition.
    s_host[i] = static_cast<int32_t>(i);      // Half match.
  }
  auto r = DeviceBuffer<int32_t>::FromHost(device, r_host).ValueOrDie();
  auto s = DeviceBuffer<int32_t>::FromHost(device, s_host).ValueOrDie();
  const std::vector<uint64_t> off = {0, nr};  // A single co-partition.
  auto match = HashJoinCoPartitioned(device, r, s, off, off, /*capacity=*/64);
  ASSERT_OK(match);
  EXPECT_EQ(match->count(), ExpectedMatchCount(r_host, s_host));
}

TEST(GlobalHashJoinTest, MatchesReferenceAndEmitsOriginalPositions) {
  vgpu::Device device = MakeTestDevice();
  std::mt19937_64 rng(23);
  std::vector<int32_t> r_host(3000), s_host(7000);
  for (auto& k : r_host) k = static_cast<int32_t>(rng() % 2048);
  for (auto& k : s_host) k = static_cast<int32_t>(rng() % 2048);
  auto r = DeviceBuffer<int32_t>::FromHost(device, r_host).ValueOrDie();
  auto s = DeviceBuffer<int32_t>::FromHost(device, s_host).ValueOrDie();
  auto match = HashJoinGlobal(device, r, s);
  ASSERT_OK(match);
  EXPECT_EQ(match->count(), ExpectedMatchCount(r_host, s_host));
  for (uint64_t i = 0; i < match->count(); ++i) {
    // Positions refer to the ORIGINAL relations (no transform phase).
    EXPECT_EQ(r_host[match->r_pos[i]], match->keys[i]);
    EXPECT_EQ(s_host[match->s_pos[i]], match->keys[i]);
  }
  // Probe-side positions are clustered (the NPHJ property from §5.2.2).
  for (uint64_t i = 1; i < match->count(); ++i) {
    EXPECT_GE(match->s_pos[i], match->s_pos[i - 1]);
  }
}

TEST(GlobalHashJoinTest, Int64Keys) {
  vgpu::Device device = MakeTestDevice();
  std::vector<int64_t> r_host = {int64_t{1} << 40, 5, (int64_t{1} << 40) + 1};
  std::vector<int64_t> s_host = {5, int64_t{1} << 40, 5};
  auto r = DeviceBuffer<int64_t>::FromHost(device, r_host).ValueOrDie();
  auto s = DeviceBuffer<int64_t>::FromHost(device, s_host).ValueOrDie();
  auto match = HashJoinGlobal(device, r, s);
  ASSERT_OK(match);
  EXPECT_EQ(match->count(), 3u);
}

TEST(SharedHashCapacityTest, ScalesWithSharedMemoryAndTypes) {
  vgpu::Device device(vgpu::DeviceConfig::A100());
  const uint64_t cap32 = SharedHashCapacity<int32_t>(device);
  const uint64_t cap64 = SharedHashCapacity<int64_t>(device);
  EXPECT_GT(cap32, cap64);  // Wider keys -> fewer slots.
  EXPECT_GE(cap64, 64u);    // Floor.
}

}  // namespace
}  // namespace gpujoin::prim
