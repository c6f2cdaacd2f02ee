// RADIX-PARTITION primitive: correctness against std::stable_sort-by-digit,
// stability (the property GFTR's payload alignment rests on, §4.3),
// multi-pass composition, OneSweep charging (one histogram kernel per
// transform, none when the histograms are handed back, 17 scans for a
// 4-byte SORT-PAIRS), and partition-offset computation.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <random>
#include <vector>

#include "common/bit_util.h"
#include "prim/radix_partition.h"
#include "test_util.h"
#include "vgpu/buffer.h"

namespace gpujoin::prim {
namespace {

using testing::MakeTestDevice;
using vgpu::DeviceBuffer;

struct Pair {
  int32_t key;
  int32_t val;
};

std::vector<Pair> RandomPairs(uint64_t n, int32_t key_range, uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<Pair> out(n);
  for (uint64_t i = 0; i < n; ++i) {
    out[i] = {static_cast<int32_t>(rng() % key_range), static_cast<int32_t>(i)};
  }
  return out;
}

class RadixPartitionPassTest : public ::testing::TestWithParam<int> {};

TEST_P(RadixPartitionPassTest, MatchesStableSortByDigit) {
  const int bits = GetParam();
  vgpu::Device device = MakeTestDevice();
  const uint64_t n = 10000;
  auto pairs = RandomPairs(n, 1 << 14, 42);

  auto keys = DeviceBuffer<int32_t>::Allocate(device, n).ValueOrDie();
  auto vals = DeviceBuffer<int32_t>::Allocate(device, n).ValueOrDie();
  for (uint64_t i = 0; i < n; ++i) {
    keys[i] = pairs[i].key;
    vals[i] = pairs[i].val;
  }
  DeviceBuffer<int32_t> keys_out, vals_out;
  RadixHistograms hist;
  ASSERT_OK(RadixPartition(device, keys, &vals, &keys_out, &vals_out, 2, bits,
                           /*discard_keys=*/false, &hist));

  // Reference: stable sort by the same digit.
  std::stable_sort(pairs.begin(), pairs.end(), [&](const Pair& a, const Pair& b) {
    return bit_util::RadixDigit(a.key, 2, bits) <
           bit_util::RadixDigit(b.key, 2, bits);
  });
  for (uint64_t i = 0; i < n; ++i) {
    EXPECT_EQ(keys_out[i], pairs[i].key) << "at " << i;
    EXPECT_EQ(vals_out[i], pairs[i].val) << "at " << i;
  }

  // Histogram integrity.
  ASSERT_EQ(hist.widths, std::vector<int>{bits});
  uint64_t total = 0;
  for (uint32_t d = 0; d < (1u << bits); ++d) total += hist.Count(0, d);
  EXPECT_EQ(total, n);
}

INSTANTIATE_TEST_SUITE_P(Bits, RadixPartitionPassTest,
                         ::testing::Values(1, 2, 4, 6, 8));

TEST(RadixPartitionPassTest, RejectsBadBitWidths) {
  vgpu::Device device = MakeTestDevice();
  auto keys = DeviceBuffer<int32_t>::Allocate(device, 16).ValueOrDie();
  auto vals = DeviceBuffer<int32_t>::Allocate(device, 16).ValueOrDie();
  DeviceBuffer<int32_t> ko, vo;
  EXPECT_FALSE(RadixPartition(device, keys, &vals, &ko, &vo, 0, 0).ok());
  // Beyond the key width.
  EXPECT_FALSE(RadixPartition(device, keys, &vals, &ko, &vo, 0, 33).ok());
  EXPECT_FALSE(RadixPartition(device, keys, &vals, &ko, &vo, 30, 3).ok());
}

TEST(RadixPartitionPassTest, RejectsSizeMismatch) {
  vgpu::Device device = MakeTestDevice();
  auto keys = DeviceBuffer<int32_t>::Allocate(device, 16).ValueOrDie();
  auto vals = DeviceBuffer<int32_t>::Allocate(device, 8).ValueOrDie();
  DeviceBuffer<int32_t> ko, vo;
  EXPECT_FALSE(RadixPartition(device, keys, &vals, &ko, &vo, 0, 4).ok());
}

class MultiPassTest : public ::testing::TestWithParam<int> {};

TEST_P(MultiPassTest, GroupsByFullDigitStably) {
  const int total_bits = GetParam();
  vgpu::Device device = MakeTestDevice();
  const uint64_t n = 20000;
  auto pairs = RandomPairs(n, 1 << 18, 7);

  auto in_keys = DeviceBuffer<int32_t>::Allocate(device, n).ValueOrDie();
  auto in_vals = DeviceBuffer<int32_t>::Allocate(device, n).ValueOrDie();
  for (uint64_t i = 0; i < n; ++i) {
    in_keys[i] = pairs[i].key;
    in_vals[i] = pairs[i].val;
  }
  DeviceBuffer<int32_t> keys, vals;
  RadixHistograms hist;
  ASSERT_OK(RadixPartition(device, in_keys, &in_vals, &keys, &vals, 0,
                           total_bits, /*discard_keys=*/false, &hist));
  EXPECT_EQ(hist.widths.size(), bit_util::CeilDiv(total_bits, 8));

  std::stable_sort(pairs.begin(), pairs.end(), [&](const Pair& a, const Pair& b) {
    return bit_util::RadixDigit(a.key, 0, total_bits) <
           bit_util::RadixDigit(b.key, 0, total_bits);
  });
  for (uint64_t i = 0; i < n; ++i) {
    ASSERT_EQ(keys[i], pairs[i].key) << "at " << i;
    ASSERT_EQ(vals[i], pairs[i].val) << "at " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(TotalBits, MultiPassTest,
                         ::testing::Values(4, 8, 11, 15, 16));

TEST(ComputePartitionOffsetsTest, BoundariesMatchContents) {
  vgpu::Device device = MakeTestDevice();
  const int bits = 6;
  const uint64_t n = 5000;
  auto pairs = RandomPairs(n, 1 << 12, 3);
  std::stable_sort(pairs.begin(), pairs.end(), [&](const Pair& a, const Pair& b) {
    return bit_util::RadixDigit(a.key, 0, bits) <
           bit_util::RadixDigit(b.key, 0, bits);
  });
  auto keys = DeviceBuffer<int32_t>::Allocate(device, n).ValueOrDie();
  for (uint64_t i = 0; i < n; ++i) keys[i] = pairs[i].key;

  std::vector<uint64_t> offsets;
  ASSERT_OK(ComputePartitionOffsets(device, keys, bits, &offsets));
  ASSERT_EQ(offsets.size(), (size_t{1} << bits) + 1);
  EXPECT_EQ(offsets.front(), 0u);
  EXPECT_EQ(offsets.back(), n);
  for (uint32_t p = 0; p < (1u << bits); ++p) {
    for (uint64_t i = offsets[p]; i < offsets[p + 1]; ++i) {
      EXPECT_EQ(bit_util::RadixDigit(keys[i], 0, bits), p);
    }
  }
}

TEST(RadixPartitionDeterminismTest, IdenticalAcrossRuns) {
  // The §4.3 requirement: RADIX-PARTITION must produce identical results
  // across runs (unlike bucket chaining) so payload transforms align.
  const uint64_t n = 8192;
  std::vector<int32_t> first_keys, second_keys;
  for (int run = 0; run < 2; ++run) {
    vgpu::Device device = MakeTestDevice();
    device.set_interleave_seed(run * 777 + 1);  // Must have no effect here.
    auto pairs = RandomPairs(n, 1 << 12, 99);
    auto keys = DeviceBuffer<int32_t>::Allocate(device, n).ValueOrDie();
    auto vals = DeviceBuffer<int32_t>::Allocate(device, n).ValueOrDie();
    for (uint64_t i = 0; i < n; ++i) {
      keys[i] = pairs[i].key;
      vals[i] = pairs[i].val;
    }
    DeviceBuffer<int32_t> ko, vo;
    ASSERT_OK(RadixPartition(device, keys, &vals, &ko, &vo, 0, 8));
    auto& target = run == 0 ? first_keys : second_keys;
    target.assign(ko.data(), ko.data() + n);
  }
  EXPECT_EQ(first_keys, second_keys);
}

// --- OneSweep: one histogram per key column, shared by every pass ---

/// Stable-sorted (key, value) reference by key bits [0, total_bits).
template <typename K, typename V>
void ExpectStableByDigit(const std::vector<K>& keys, const std::vector<V>& vals,
                         int total_bits, const DeviceBuffer<K>& ko,
                         const DeviceBuffer<V>& vo) {
  std::vector<uint64_t> order(keys.size());
  for (uint64_t i = 0; i < order.size(); ++i) order[i] = i;
  // The digit may be wider than RadixDigit's 32-bit result; keys are
  // non-negative, so the full key width orders by value.
  const uint64_t mask = total_bits >= 63 ? ~uint64_t{0}
                                         : (uint64_t{1} << total_bits) - 1;
  const auto digit = [&](K key) { return static_cast<uint64_t>(key) & mask; };
  std::stable_sort(order.begin(), order.end(), [&](uint64_t a, uint64_t b) {
    return digit(keys[a]) < digit(keys[b]);
  });
  for (uint64_t i = 0; i < order.size(); ++i) {
    ASSERT_EQ(ko[i], keys[order[i]]) << "key at " << i;
    ASSERT_EQ(vo[i], vals[order[i]]) << "value at " << i;
  }
}

template <typename K, typename V>
void CheckBitIdenticalAcrossPassesAndThreads() {
  const uint64_t n = 3 * kPartitionTileElems + 17;  // Ragged last tile.
  std::mt19937_64 rng(23);
  std::vector<K> keys(n);
  std::vector<V> vals(n);
  for (uint64_t i = 0; i < n; ++i) {
    keys[i] = static_cast<K>(rng() & static_cast<uint64_t>(
                                          std::numeric_limits<K>::max()));
    vals[i] = static_cast<V>(rng());
  }
  for (int passes = 1; passes <= static_cast<int>(sizeof(K)); ++passes) {
    const int total_bits = passes * 8;
    vgpu::KernelStats first;
    for (int threads : {1, 4, 7}) {
      SCOPED_TRACE(::testing::Message() << sizeof(K) << "B keys, " << sizeof(V)
                                        << "B values, " << passes
                                        << " passes, " << threads << " threads");
      vgpu::Device device = MakeTestDevice();
      device.set_parallel_sim(threads);
      auto dk = DeviceBuffer<K>::FromHost(device, keys).ValueOrDie();
      auto dv = DeviceBuffer<V>::FromHost(device, vals).ValueOrDie();
      DeviceBuffer<K> ko;
      DeviceBuffer<V> vo;
      ASSERT_OK(RadixPartition(device, dk, &dv, &ko, &vo, 0, total_bits));
      ExpectStableByDigit(keys, vals, total_bits, ko, vo);
      const vgpu::KernelStats& stats = device.total_stats();
      if (threads == 1) {
        first = stats;
        continue;
      }
      EXPECT_EQ(stats.cycles, first.cycles);
      EXPECT_EQ(stats.dram_sectors, first.dram_sectors);
      EXPECT_EQ(stats.l2_hit_sectors, first.l2_hit_sectors);
      EXPECT_EQ(stats.warp_instructions, first.warp_instructions);
    }
  }
}

TEST(OneSweepTest, BitIdenticalToStableSortAcrossPassesAndThreads) {
  CheckBitIdenticalAcrossPassesAndThreads<int32_t, int32_t>();
  CheckBitIdenticalAcrossPassesAndThreads<int32_t, int64_t>();
  CheckBitIdenticalAcrossPassesAndThreads<int64_t, int32_t>();
  CheckBitIdenticalAcrossPassesAndThreads<int64_t, int64_t>();
}

TEST(OneSweepTest, OneHistogramKernelPerTransformNoneWhenHandedBack) {
  const uint64_t n = 10000;
  auto pairs = RandomPairs(n, 1 << 30, 5);
  for (int total_bits : {6, 16, 20, 31}) {
    SCOPED_TRACE(total_bits);
    const uint64_t passes = bit_util::CeilDiv(total_bits, 8);
    vgpu::Device device = MakeTestDevice();
    auto keys = DeviceBuffer<int32_t>::Allocate(device, n).ValueOrDie();
    auto vals = DeviceBuffer<int32_t>::Allocate(device, n).ValueOrDie();
    auto vals2 = DeviceBuffer<int64_t>::Allocate(device, n).ValueOrDie();
    for (uint64_t i = 0; i < n; ++i) {
      keys[i] = pairs[i].key;
      vals[i] = pairs[i].val;
      vals2[i] = int64_t{pairs[i].val} * 3;
    }
    auto& profiler = device.profiler();
    profiler.Clear();
    RadixHistograms hist;
    DeviceBuffer<int32_t> ko, vo;
    ASSERT_OK(RadixPartition(device, keys, &vals, &ko, &vo, 0, total_bits,
                             /*discard_keys=*/false, &hist));
    EXPECT_EQ(profiler.ProfileFor("radix_histogram").invocations, 1u);
    EXPECT_EQ(profiler.ProfileFor("radix_scan").invocations, 1u);
    EXPECT_EQ(profiler.ProfileFor("radix_scatter").invocations, passes);

    // A re-transform of the same keys (Algorithm 1) runs the scatters only
    // and lands every value where the first transform put its row.
    profiler.Clear();
    DeviceBuffer<int32_t> ko2;
    DeviceBuffer<int64_t> vo2;
    ASSERT_OK(RadixPartition(device, keys, &vals2, &ko2, &vo2, 0, total_bits,
                             /*discard_keys=*/true, &hist));
    EXPECT_EQ(profiler.ProfileFor("radix_histogram").invocations, 0u);
    EXPECT_EQ(profiler.ProfileFor("radix_scan").invocations, 0u);
    EXPECT_EQ(profiler.ProfileFor("radix_scatter").invocations, passes);
    EXPECT_TRUE(ko2.empty());
    for (uint64_t i = 0; i < n; ++i) {
      ASSERT_EQ(vo2[i], int64_t{vo[i]} * 3) << "at " << i;
    }
  }
}

TEST(OneSweepTest, SortPairsOfFourByteKeyAndPayloadMovesSeventeenScans) {
  vgpu::Device device = MakeTestDevice();
  const uint64_t n = uint64_t{1} << 16;
  auto pairs = RandomPairs(n, std::numeric_limits<int32_t>::max(), 11);
  auto keys = DeviceBuffer<int32_t>::Allocate(device, n).ValueOrDie();
  auto vals = DeviceBuffer<int32_t>::Allocate(device, n).ValueOrDie();
  for (uint64_t i = 0; i < n; ++i) {
    keys[i] = pairs[i].key;
    vals[i] = pairs[i].val;
  }
  const vgpu::KernelStats before = device.total_stats();
  DeviceBuffer<int32_t> ko, vo;
  ASSERT_OK(RadixPartition(device, keys, &vals, &ko, &vo, 0, 32));  // SORT-PAIRS.
  vgpu::KernelStats moved = device.total_stats();
  moved.Sub(before);
  // One key read, then 4 passes that read and write keys and payloads.
  const uint64_t scans = 17 * n * 4;
  // Per pass and tile: read the predecessor's 256 4-byte descriptors and
  // publish the tile's own; plus the histogram object's flush.
  const uint64_t passes = 4, fanout = 256;
  const uint64_t lookback =
      passes * (bit_util::CeilDiv(n, kPartitionTileElems) + 1) * fanout * 4 * 2;
  const uint64_t bytes = moved.bytes_read + moved.bytes_written;
  EXPECT_GE(bytes, scans);
  EXPECT_LE(bytes, scans + lookback);
}

TEST(OneSweepTest, KeysOnlyModeCarriesNoValueStream) {
  vgpu::Device device = MakeTestDevice();
  const uint64_t n = 9000;
  auto pairs = RandomPairs(n, 1 << 20, 13);
  auto keys = DeviceBuffer<int32_t>::Allocate(device, n).ValueOrDie();
  auto vals = DeviceBuffer<int32_t>::Allocate(device, n).ValueOrDie();
  for (uint64_t i = 0; i < n; ++i) {
    keys[i] = pairs[i].key;
    vals[i] = pairs[i].val;
  }
  const vgpu::KernelStats start = device.total_stats();
  DeviceBuffer<int32_t> ko, vo;
  ASSERT_OK(RadixPartition(device, keys, &vals, &ko, &vo, 0, 20));
  const uint64_t live_before = device.memory_stats().live_bytes;
  const vgpu::KernelStats mid = device.total_stats();
  DeviceBuffer<int32_t> ko_only;
  ASSERT_OK((RadixPartition<int32_t, int32_t>(device, keys, nullptr, &ko_only,
                                              nullptr, 0, 20)));
  vgpu::KernelStats pair = mid, keys_only = device.total_stats();
  pair.Sub(start);
  keys_only.Sub(mid);
  // Same order, only the key buffer stays live, and each of the 3 passes
  // reads and writes no values.
  for (uint64_t i = 0; i < n; ++i) ASSERT_EQ(ko_only[i], ko[i]) << "at " << i;
  EXPECT_EQ(device.memory_stats().live_bytes, live_before + n * 4);
  EXPECT_EQ(pair.bytes_read - keys_only.bytes_read, 3 * n * 4);
  EXPECT_EQ(pair.bytes_written - keys_only.bytes_written, 3 * n * 4);
  // A keys-only transform has nothing left to write if it drops its keys.
  DeviceBuffer<int32_t> none;
  EXPECT_FALSE((RadixPartition<int32_t, int32_t>(device, keys, nullptr, &none,
                                                 nullptr, 0, 20, true))
                   .ok());
}

TEST(OneSweepTest, RejectsHistogramsThatDoNotMatchTheKeys) {
  vgpu::Device device = MakeTestDevice();
  const uint64_t n = 5000;
  auto pairs = RandomPairs(n, 1 << 16, 17);
  auto keys = DeviceBuffer<int32_t>::Allocate(device, n).ValueOrDie();
  auto copy = DeviceBuffer<int32_t>::Allocate(device, n).ValueOrDie();
  auto vals = DeviceBuffer<int32_t>::Allocate(device, n).ValueOrDie();
  auto shorter = DeviceBuffer<int32_t>::Allocate(device, n - 1).ValueOrDie();
  for (uint64_t i = 0; i < n; ++i) {
    keys[i] = copy[i] = pairs[i].key;
    vals[i] = pairs[i].val;
  }
  RadixHistograms hist;
  DeviceBuffer<int32_t> ko, vo;
  ASSERT_OK(RadixPartition(device, keys, &vals, &ko, &vo, 0, 16, false, &hist));
  auto rejected = [&](const DeviceBuffer<int32_t>& k, int bit_lo, int bits) {
    DeviceBuffer<int32_t> k2, v2;
    const Status st = RadixPartition(device, k, &vals, &k2, &v2, bit_lo, bits,
                                     false, &hist);
    return st.code() == StatusCode::kInvalidArgument;
  };
  EXPECT_TRUE(rejected(copy, 0, 16));   // Equal contents, other buffer.
  EXPECT_TRUE(rejected(keys, 0, 12));   // Other widths.
  EXPECT_TRUE(rejected(keys, 4, 16));   // Other digit positions.
  DeviceBuffer<int32_t> k2, v2;
  EXPECT_EQ(RadixPartition(device, shorter, &shorter, &k2, &v2, 0, 16, false,
                           &hist)
                .code(),
            StatusCode::kInvalidArgument);  // Other size.
  // The same buffer rewritten in place: the scatter's recount catches it.
  std::swap(keys[0], keys[1]);
  keys[0] ^= 1;
  EXPECT_TRUE(rejected(keys, 0, 16));
}

}  // namespace
}  // namespace gpujoin::prim
