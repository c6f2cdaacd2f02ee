// SORT-PAIRS, GATHER, SCATTER, and Iota primitives.

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <random>
#include <vector>

#include "prim/gather.h"
#include "prim/radix_partition.h"
#include "test_util.h"
#include "vgpu/buffer.h"

namespace gpujoin::prim {
namespace {

using testing::MakeTestDevice;
using vgpu::DeviceBuffer;

/// SORT-PAIRS (the transform over the full key width) into fresh buffers,
/// moved back over the inputs.
template <typename K, typename V>
Status SortInPlace(vgpu::Device& device, DeviceBuffer<K>* keys,
                   DeviceBuffer<V>* vals) {
  DeviceBuffer<K> sorted_keys;
  DeviceBuffer<V> sorted_vals;
  GPUJOIN_RETURN_IF_ERROR(RadixPartition(device, *keys, vals, &sorted_keys,
                                         &sorted_vals, 0, sizeof(K) * 8));
  *keys = std::move(sorted_keys);
  *vals = std::move(sorted_vals);
  return Status::OK();
}

template <typename K>
void CheckSortAgainstStdSort(uint64_t n, K key_range, uint64_t seed) {
  vgpu::Device device = MakeTestDevice();
  std::mt19937_64 rng(seed);
  std::vector<std::pair<K, int32_t>> ref(n);
  auto keys = DeviceBuffer<K>::Allocate(device, n).ValueOrDie();
  auto vals = DeviceBuffer<int32_t>::Allocate(device, n).ValueOrDie();
  for (uint64_t i = 0; i < n; ++i) {
    ref[i] = {static_cast<K>(rng() % key_range), static_cast<int32_t>(i)};
    keys[i] = ref[i].first;
    vals[i] = ref[i].second;
  }
  ASSERT_OK(SortInPlace(device, &keys, &vals));
  std::stable_sort(ref.begin(), ref.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  for (uint64_t i = 0; i < n; ++i) {
    ASSERT_EQ(keys[i], ref[i].first) << "at " << i;
    ASSERT_EQ(vals[i], ref[i].second) << "at " << i;
  }
}

TEST(SortPairsTest, SortsInt32KeysStably) {
  CheckSortAgainstStdSort<int32_t>(20000, 1 << 12, 1);
}

TEST(SortPairsTest, SortsInt64KeysBeyond32Bits) {
  CheckSortAgainstStdSort<int64_t>(10000, int64_t{1} << 40, 2);
}

TEST(SortPairsTest, HandlesAllEqualKeys) {
  vgpu::Device device = MakeTestDevice();
  const uint64_t n = 1000;
  auto keys = DeviceBuffer<int32_t>::Allocate(device, n).ValueOrDie();
  auto vals = DeviceBuffer<int32_t>::Allocate(device, n).ValueOrDie();
  for (uint64_t i = 0; i < n; ++i) {
    keys[i] = 5;
    vals[i] = static_cast<int32_t>(i);
  }
  ASSERT_OK(SortInPlace(device, &keys, &vals));
  // Stability: equal keys preserve input order.
  for (uint64_t i = 0; i < n; ++i) {
    EXPECT_EQ(vals[i], static_cast<int32_t>(i));
  }
}

TEST(SortPairsTest, SingleElement) {
  vgpu::Device device = MakeTestDevice();
  auto keys = DeviceBuffer<int32_t>::Allocate(device, 1).ValueOrDie();
  auto vals = DeviceBuffer<int32_t>::Allocate(device, 1).ValueOrDie();
  keys[0] = 9;
  vals[0] = -4;
  ASSERT_OK(SortInPlace(device, &keys, &vals));
  EXPECT_EQ(keys[0], 9);
  EXPECT_EQ(vals[0], -4);
}

TEST(SortPairsTest, AlreadySortedStaysSorted) {
  vgpu::Device device = MakeTestDevice();
  const uint64_t n = 4096;
  auto keys = DeviceBuffer<int32_t>::Allocate(device, n).ValueOrDie();
  auto vals = DeviceBuffer<int32_t>::Allocate(device, n).ValueOrDie();
  for (uint64_t i = 0; i < n; ++i) {
    keys[i] = static_cast<int32_t>(i);
    vals[i] = static_cast<int32_t>(n - i);
  }
  ASSERT_OK(SortInPlace(device, &keys, &vals));
  for (uint64_t i = 0; i < n; ++i) {
    ASSERT_EQ(keys[i], static_cast<int32_t>(i));
    ASSERT_EQ(vals[i], static_cast<int32_t>(n - i));
  }
}

TEST(GatherTest, GathersThroughArbitraryMap) {
  vgpu::Device device = MakeTestDevice();
  const uint64_t n = 1000;
  auto in = DeviceBuffer<int64_t>::Allocate(device, n).ValueOrDie();
  auto map = DeviceBuffer<RowId>::Allocate(device, n).ValueOrDie();
  auto out = DeviceBuffer<int64_t>::Allocate(device, n).ValueOrDie();
  std::mt19937_64 rng(5);
  for (uint64_t i = 0; i < n; ++i) {
    in[i] = static_cast<int64_t>(i * 31);
    map[i] = static_cast<RowId>(rng() % n);
  }
  ASSERT_OK(Gather(device, in, map, &out));
  for (uint64_t i = 0; i < n; ++i) {
    ASSERT_EQ(out[i], in[map[i]]);
  }
}

TEST(GatherTest, RejectsOutOfRangeMap) {
  vgpu::Device device = MakeTestDevice();
  auto in = DeviceBuffer<int32_t>::Allocate(device, 10).ValueOrDie();
  auto map = DeviceBuffer<RowId>::Allocate(device, 4).ValueOrDie();
  auto out = DeviceBuffer<int32_t>::Allocate(device, 4).ValueOrDie();
  map[2] = 10;  // One past the end.
  EXPECT_FALSE(Gather(device, in, map, &out).ok());
}

TEST(GatherTest, RejectsSizeMismatch) {
  vgpu::Device device = MakeTestDevice();
  auto in = DeviceBuffer<int32_t>::Allocate(device, 10).ValueOrDie();
  auto map = DeviceBuffer<RowId>::Allocate(device, 4).ValueOrDie();
  auto out = DeviceBuffer<int32_t>::Allocate(device, 5).ValueOrDie();
  EXPECT_FALSE(Gather(device, in, map, &out).ok());
}

TEST(ScatterTest, InverseOfGatherForPermutations) {
  vgpu::Device device = MakeTestDevice();
  const uint64_t n = 2048;
  auto data = DeviceBuffer<int32_t>::Allocate(device, n).ValueOrDie();
  auto perm = DeviceBuffer<RowId>::Allocate(device, n).ValueOrDie();
  auto scattered = DeviceBuffer<int32_t>::Allocate(device, n).ValueOrDie();
  auto roundtrip = DeviceBuffer<int32_t>::Allocate(device, n).ValueOrDie();
  std::vector<RowId> p(n);
  std::iota(p.begin(), p.end(), 0u);
  std::mt19937_64 rng(9);
  std::shuffle(p.begin(), p.end(), rng);
  for (uint64_t i = 0; i < n; ++i) {
    data[i] = static_cast<int32_t>(i * 7 + 1);
    perm[i] = p[i];
  }
  // scatter then gather through the same permutation is the identity.
  ASSERT_OK(Scatter(device, data, perm, &scattered));
  ASSERT_OK(Gather(device, scattered, perm, &roundtrip));
  for (uint64_t i = 0; i < n; ++i) {
    ASSERT_EQ(roundtrip[i], data[i]);
  }
}

TEST(ScatterTest, RejectsOutOfRange) {
  vgpu::Device device = MakeTestDevice();
  auto in = DeviceBuffer<int32_t>::Allocate(device, 4).ValueOrDie();
  auto map = DeviceBuffer<RowId>::Allocate(device, 4).ValueOrDie();
  auto out = DeviceBuffer<int32_t>::Allocate(device, 4).ValueOrDie();
  map[0] = 99;
  EXPECT_FALSE(Scatter(device, in, map, &out).ok());
}

TEST(IotaTest, ProducesIdentity) {
  vgpu::Device device = MakeTestDevice();
  auto ids = DeviceBuffer<RowId>::Allocate(device, 100).ValueOrDie();
  ASSERT_OK(Iota(device, &ids));
  for (uint64_t i = 0; i < 100; ++i) EXPECT_EQ(ids[i], i);
}

}  // namespace
}  // namespace gpujoin::prim
