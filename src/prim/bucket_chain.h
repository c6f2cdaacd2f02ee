// Bucket-chaining radix partitioner — the PHJ-UM transform (§3.2, Figure 3,
// Sioulas et al.). Two passes of shared-memory-histogram partitioning where
// output positions are claimed with atomics rather than a prefix sum:
//
//  * Non-determinism: the order of tuples inside a partition depends on the
//    atomics' arrival order. We model this by processing input tiles in a
//    seeded pseudo-random interleave (Device::interleave_seed); different
//    seeds produce different — yet all valid — partition layouts (§4.3's
//    argument why this transform cannot support GFTR).
//  * Fragmentation: buckets are fixed-size regions carved from pre-allocated
//    pools; a partition's last bucket is partially empty, and looking up the
//    i-th element of a partitioned column requires chain walking. The pool
//    over-allocation is visible to the device allocator (Table 5).
//  * Skew sensitivity: every tuple performs a shared-memory atomic on its
//    partition's counter; lanes of a warp hitting the same partition
//    serialize (Device::SharedAtomic), which is why Figure 14 shows this
//    transform degrading sharply beyond Zipf factor 1.
//
// The layout (routing of tuples to pool positions, and the store-run
// structure for cost charging) is computed once from the key column by
// BuildBucketChainLayout; ApplyBucketChainToValues replays the identical
// movement for a value column (physical IDs, or the payload of a narrow
// relation).
//
// Parallel simulation: the routing itself is order-dependent (cursors are
// shared across tiles because partitions span tiles), so it is computed
// functionally on the calling thread in the seeded arrival order. The cost
// accounting, by contrast, is per-tile independent once the routing is
// fixed: each arrival-order tile becomes a thread block that re-derives its
// lane digits from the key column and charges its loads, shared atomics and
// staged run flushes through Device::ParallelBlocks. The per-block source
// ranges and run ranges are recorded in the layout so the value replay can
// use the same decomposition.

#ifndef GPUJOIN_PRIM_BUCKET_CHAIN_H_
#define GPUJOIN_PRIM_BUCKET_CHAIN_H_

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <random>
#include <vector>

#include "common/bit_util.h"
#include "common/status.h"
#include "prim/hash.h"
#include "prim/hash_join.h"
#include "prim/match.h"
#include "prim/radix_partition.h"
#include "storage/types.h"
#include "vgpu/buffer.h"
#include "vgpu/device.h"

namespace gpujoin::prim {

inline constexpr RowId kInvalidRow = ~RowId{0};

/// Latency of one serialized bucket allocation on a partition's chain tail
/// (global atomic round trip + next-pointer publication).
inline constexpr double kBucketAllocSerialCycles = 300.0;

/// A contiguous store run (element offset + length) within a pool — one
/// staged bucket flush.
struct StoreRun {
  uint64_t dst;
  uint32_t len;
};

/// One thread block of a bucket-chain pass: the source element range it
/// streamed and its slice of the pass's store runs. Recorded so the value
/// replay charges the identical block decomposition.
struct ChainBlock {
  uint64_t src;        // First source element (into the pass's input pool).
  uint64_t len;        // Source elements streamed by this block.
  uint64_t run_begin;  // First run index owned by this block.
  uint64_t run_end;    // One past the last run index.
};

/// The result of bucket-chain partitioning a key column, plus everything
/// needed to (a) hash-join over the chains and (b) replay the permutation
/// onto value columns with faithful cost charging.
template <typename K>
struct BucketChainLayout {
  /// Final-pass key pool. Partition p occupies pool positions
  /// [starts[p], starts[p] + sizes[p]); between partitions there are
  /// fragmentation gaps up to the next bucket boundary.
  vgpu::DeviceBuffer<K> keys;
  std::vector<uint64_t> starts;
  std::vector<uint64_t> sizes;
  uint32_t bucket_elems = 0;
  uint64_t pool1_elems = 0;  // Pass-1 (coarse) pool size, incl. waste.
  uint64_t pool2_elems = 0;  // Final pool size, incl. waste.

  /// Tuple routing: pool1_pos -> source index, pool2_pos -> pool1_pos
  /// (kInvalidRow in fragmentation gaps).
  std::vector<RowId> perm1;
  std::vector<RowId> perm2;

  /// Contiguous store runs (element offsets into the pass's pool), in
  /// arrival order — the staged bucket flushes of each pass.
  std::vector<StoreRun> runs1;
  std::vector<StoreRun> runs2;

  /// Thread-block decomposition of each pass (arrival order), for replay.
  std::vector<ChainBlock> blocks1;
  std::vector<ChainBlock> blocks2;

  uint32_t num_partitions() const { return static_cast<uint32_t>(starts.size()); }
};

namespace bc_internal {

inline std::vector<uint64_t> ShuffledTiles(uint64_t n_tiles, uint64_t seed,
                                           uint64_t salt) {
  std::vector<uint64_t> order(n_tiles);
  std::iota(order.begin(), order.end(), 0);
  std::mt19937_64 rng(seed ^ (salt * 0x9e3779b97f4a7c15ull));
  std::shuffle(order.begin(), order.end(), rng);
  return order;
}

}  // namespace bc_internal

/// Builds the bucket-chain layout for `keys_in`, charging the key-column
/// traffic and the atomics of both passes. Partitions by the low
/// (bits1 + bits2) key bits; bits1/bits2 <= 8 each (Ampere fan-out limit).
template <typename K>
Result<BucketChainLayout<K>> BuildBucketChainLayout(
    vgpu::Device& device, const vgpu::DeviceBuffer<K>& keys_in, int bits1,
    int bits2, uint32_t bucket_elems) {
  if (bits1 < 1 || bits1 > kMaxRadixBitsPerPass || bits2 < 0 ||
      bits2 > kMaxRadixBitsPerPass) {
    return Status::InvalidArgument("BuildBucketChainLayout: invalid radix bits");
  }
  if (bucket_elems == 0) {
    return Status::InvalidArgument("BuildBucketChainLayout: bucket_elems == 0");
  }
  const uint64_t n = keys_in.size();
  const int total_bits = bits1 + bits2;
  const uint32_t coarse_parts = 1u << bits1;
  const uint32_t num_parts = 1u << total_bits;
  const int warp = device.config().warp_size;

  BucketChainLayout<K> out;
  out.bucket_elems = bucket_elems;

  // --- Coarse (pass 1) pool layout: exact chain lengths per coarse digit.
  std::vector<uint64_t> coarse_sizes(coarse_parts, 0);
  for (uint64_t i = 0; i < n; ++i) {
    ++coarse_sizes[bit_util::RadixDigit(keys_in[i], bits2, bits1)];
  }
  std::vector<uint64_t> coarse_starts(coarse_parts);
  uint64_t pool1 = 0;
  for (uint32_t c = 0; c < coarse_parts; ++c) {
    coarse_starts[c] = pool1;
    pool1 += bit_util::CeilDiv(std::max<uint64_t>(coarse_sizes[c], 1),
                               bucket_elems) *
             bucket_elems;
  }
  out.pool1_elems = pool1;
  out.perm1.assign(pool1, kInvalidRow);

  // Pass-1 key pool is a transient allocation (part of the paper's M_t).
  GPUJOIN_ASSIGN_OR_RETURN(auto keys_pool1,
                           vgpu::DeviceBuffer<K>::Allocate(device, pool1));

  // --- Pass 1: shuffled tiles, atomics per warp, staged run stores. The
  // routing (cursor walk in arrival order) happens functionally up front;
  // each arrival-order tile then charges its traffic as one thread block.
  {
    vgpu::KernelScope ks(device, "bucket_chain_pass1");
    const uint64_t n_tiles = bit_util::CeilDiv(n, kPartitionTileElems);
    const auto order =
        bc_internal::ShuffledTiles(n_tiles, device.interleave_seed(), 1);
    {
      std::vector<uint64_t> cursor = coarse_starts;
      std::vector<uint64_t> tile_start(coarse_parts);
      for (uint64_t b = 0; b < n_tiles; ++b) {
        const uint64_t tb = order[b] * kPartitionTileElems;
        const uint64_t te = std::min(n, tb + kPartitionTileElems);
        const uint64_t first_run = out.runs1.size();
        tile_start = cursor;
        for (uint64_t i = tb; i < te; ++i) {
          const uint32_t d = bit_util::RadixDigit(keys_in[i], bits2, bits1);
          const uint64_t pos = cursor[d]++;
          keys_pool1[pos] = keys_in[i];
          out.perm1[pos] = static_cast<RowId>(i);
        }
        // Block-staged flush: one contiguous run per coarse partition per tile.
        for (uint32_t d = 0; d < coarse_parts; ++d) {
          const uint64_t len = cursor[d] - tile_start[d];
          if (len > 0) {
            out.runs1.push_back({tile_start[d], static_cast<uint32_t>(len)});
          }
        }
        out.blocks1.push_back({tb, te - tb, first_run, out.runs1.size()});
      }
    }
    GPUJOIN_RETURN_IF_ERROR(device.ParallelBlocks(
        out.blocks1.size(), [&](uint64_t b, vgpu::BlockContext& ctx) -> Status {
          const ChainBlock& blk = out.blocks1[b];
          ctx.LoadSeq(keys_in.addr(blk.src), blk.len, sizeof(K));
          uint32_t lane_slots[32];
          for (uint64_t i = 0; i < blk.len; i += warp) {
            const uint32_t lanes =
                static_cast<uint32_t>(std::min<uint64_t>(warp, blk.len - i));
            for (uint32_t l = 0; l < lanes; ++l) {
              lane_slots[l] =
                  bit_util::RadixDigit(keys_in[blk.src + i + l], bits2, bits1);
            }
            ctx.SharedAtomic({lane_slots, lanes});
          }
          for (uint64_t r = blk.run_begin; r < blk.run_end; ++r) {
            ctx.StoreSeq(keys_pool1.addr(out.runs1[r].dst), out.runs1[r].len,
                         sizeof(K));
          }
          return Status::OK();
        }));
    // Bucket allocation bookkeeping: a global atomic + next-pointer write
    // per allocated bucket. Allocations for the SAME partition serialize
    // across thread blocks on its chain tail — under a skewed distribution
    // the hottest partition's chain becomes a device-wide critical path
    // (the §5.2.4 bucket-chain collapse).
    device.Compute((pool1 / bucket_elems) * 3);
    // Only the allocations *beyond* a balanced chain length form a blocking
    // chain (balanced allocations proceed in parallel across partitions).
    uint64_t max_chain = 0;
    for (uint32_t c = 0; c < coarse_parts; ++c) {
      max_chain = std::max(
          max_chain,
          bit_util::CeilDiv(std::max<uint64_t>(coarse_sizes[c], 1), bucket_elems));
    }
    const double avg_chain1 =
        static_cast<double>(pool1 / bucket_elems) / coarse_parts;
    device.SerialStall(std::max(0.0, static_cast<double>(max_chain) - avg_chain1) *
                       kBucketAllocSerialCycles);
  }

  // --- Final (pass 2) pool layout.
  std::vector<uint64_t> sizes(num_parts, 0);
  for (uint64_t i = 0; i < n; ++i) {
    ++sizes[bit_util::RadixDigit(keys_in[i], 0, total_bits)];
  }
  out.sizes = sizes;
  out.starts.resize(num_parts);
  uint64_t pool2 = 0;
  for (uint32_t p = 0; p < num_parts; ++p) {
    out.starts[p] = pool2;
    pool2 += bit_util::CeilDiv(std::max<uint64_t>(sizes[p], 1), bucket_elems) *
             bucket_elems;
  }
  out.pool2_elems = pool2;
  out.perm2.assign(pool2, kInvalidRow);
  GPUJOIN_ASSIGN_OR_RETURN(out.keys, vgpu::DeviceBuffer<K>::Allocate(device, pool2));

  // --- Pass 2: per coarse partition, refine by the low bits2 bits. Routing
  // runs functionally first (same arrival-order rule as pass 1), then the
  // recorded blocks charge in parallel.
  {
    vgpu::KernelScope ks(device, "bucket_chain_pass2");
    const uint32_t fine_parts = 1u << bits2;
    {
      std::vector<uint64_t> cursor = out.starts;
      std::vector<uint64_t> tile_start(fine_parts);
      for (uint32_t c = 0; c < coarse_parts; ++c) {
        const uint64_t cb = coarse_starts[c];
        const uint64_t cn = coarse_sizes[c];
        // Final digits of coarse partition c occupy the contiguous id range
        // [c << bits2, (c + 1) << bits2).
        const uint32_t d_base = c << bits2;
        const uint64_t n_tiles = bit_util::CeilDiv(cn, kPartitionTileElems);
        for (uint64_t t : bc_internal::ShuffledTiles(
                 n_tiles, device.interleave_seed(), 1000 + c)) {
          const uint64_t tb = t * kPartitionTileElems;
          const uint64_t te = std::min(cn, tb + kPartitionTileElems);
          const uint64_t first_run = out.runs2.size();
          for (uint32_t f = 0; f < fine_parts; ++f) {
            tile_start[f] = cursor[d_base + f];
          }
          for (uint64_t i = tb; i < te; ++i) {
            const uint64_t p1pos = cb + i;
            const K key = keys_pool1[p1pos];
            const uint32_t d = bit_util::RadixDigit(key, 0, total_bits);
            const uint64_t pos = cursor[d]++;
            out.keys[pos] = key;
            out.perm2[pos] = static_cast<RowId>(p1pos);
          }
          for (uint32_t f = 0; f < fine_parts; ++f) {
            const uint64_t len = cursor[d_base + f] - tile_start[f];
            if (len > 0) {
              out.runs2.push_back({tile_start[f], static_cast<uint32_t>(len)});
            }
          }
          out.blocks2.push_back({cb + tb, te - tb, first_run, out.runs2.size()});
        }
      }
    }
    GPUJOIN_RETURN_IF_ERROR(device.ParallelBlocks(
        out.blocks2.size(), [&](uint64_t b, vgpu::BlockContext& ctx) -> Status {
          const ChainBlock& blk = out.blocks2[b];
          ctx.LoadSeq(keys_pool1.addr(blk.src), blk.len, sizeof(K));
          uint32_t lane_slots[32];
          for (uint64_t i = 0; i < blk.len; i += warp) {
            const uint32_t lanes =
                static_cast<uint32_t>(std::min<uint64_t>(warp, blk.len - i));
            for (uint32_t l = 0; l < lanes; ++l) {
              lane_slots[l] =
                  bit_util::RadixDigit(keys_pool1[blk.src + i + l], 0, bits2);
            }
            ctx.SharedAtomic({lane_slots, lanes});
          }
          for (uint64_t r = blk.run_begin; r < blk.run_end; ++r) {
            ctx.StoreSeq(out.keys.addr(out.runs2[r].dst), out.runs2[r].len,
                         sizeof(K));
          }
          return Status::OK();
        }));
    device.Compute((pool2 / bucket_elems) * 3);
    uint64_t max_chain = 0;
    for (uint32_t p = 0; p < num_parts; ++p) {
      max_chain = std::max(
          max_chain,
          bit_util::CeilDiv(std::max<uint64_t>(sizes[p], 1), bucket_elems));
    }
    const double avg_chain2 =
        static_cast<double>(pool2 / bucket_elems) / num_parts;
    device.SerialStall(std::max(0.0, static_cast<double>(max_chain) - avg_chain2) *
                       kBucketAllocSerialCycles);
  }
  return out;
}

/// Replays the layout's two-pass movement onto a value column (the physical
/// IDs, or a narrow relation's payload). Returns the final-pass value pool
/// (same positions as layout.keys). Charges the same traffic pattern the
/// key column paid (minus the atomics, which were already charged), block
/// for block via the layout's recorded pass decomposition.
template <typename K, typename V>
Result<vgpu::DeviceBuffer<V>> ApplyBucketChainToValues(
    vgpu::Device& device, const BucketChainLayout<K>& layout,
    const vgpu::DeviceBuffer<V>& vals_in) {
  GPUJOIN_ASSIGN_OR_RETURN(
      auto pool1, vgpu::DeviceBuffer<V>::Allocate(device, layout.pool1_elems));
  GPUJOIN_ASSIGN_OR_RETURN(
      auto pool2, vgpu::DeviceBuffer<V>::Allocate(device, layout.pool2_elems));
  {
    vgpu::KernelScope ks(device, "bucket_chain_vals_pass1");
    for (uint64_t pos = 0; pos < layout.pool1_elems; ++pos) {
      if (layout.perm1[pos] != kInvalidRow) pool1[pos] = vals_in[layout.perm1[pos]];
    }
    GPUJOIN_RETURN_IF_ERROR(device.ParallelBlocks(
        layout.blocks1.size(), [&](uint64_t b, vgpu::BlockContext& ctx) -> Status {
          const ChainBlock& blk = layout.blocks1[b];
          ctx.LoadSeq(vals_in.addr(blk.src), blk.len, sizeof(V));
          for (uint64_t r = blk.run_begin; r < blk.run_end; ++r) {
            ctx.StoreSeq(pool1.addr(layout.runs1[r].dst), layout.runs1[r].len,
                         sizeof(V));
          }
          return Status::OK();
        }));
  }
  {
    vgpu::KernelScope ks(device, "bucket_chain_vals_pass2");
    for (uint64_t pos = 0; pos < layout.pool2_elems; ++pos) {
      if (layout.perm2[pos] != kInvalidRow) pool2[pos] = pool1[layout.perm2[pos]];
    }
    GPUJOIN_RETURN_IF_ERROR(device.ParallelBlocks(
        layout.blocks2.size(), [&](uint64_t b, vgpu::BlockContext& ctx) -> Status {
          const ChainBlock& blk = layout.blocks2[b];
          ctx.LoadSeq(pool1.addr(blk.src), blk.len, sizeof(V));
          for (uint64_t r = blk.run_begin; r < blk.run_end; ++r) {
            ctx.StoreSeq(pool2.addr(layout.runs2[r].dst), layout.runs2[r].len,
                         sizeof(V));
          }
          return Status::OK();
        }));
  }
  return pool2;
}

/// Match finding over bucket-chained co-partitions: for every partition,
/// iterate the build side's chain bucket by bucket, build a shared-memory
/// table from the bucket, and probe with the probe side's chain (§3.2's
/// block-nested-loop over build buckets). Positions refer to the final key
/// pools of the respective layouts; an emitted payload (`emit`) is the
/// side's value pool replayed through the same layout. One partition per
/// thread block; count sweep, then a write sweep into precomputed
/// per-partition output ranges.
template <typename K>
Result<MatchResult<K>> HashJoinBucketChains(vgpu::Device& device,
                                            const BucketChainLayout<K>& r,
                                            const BucketChainLayout<K>& s,
                                            uint64_t capacity,
                                            const MatchEmit& emit = {}) {
  if (r.starts.size() != s.starts.size()) {
    return Status::InvalidArgument("HashJoinBucketChains: partition mismatch");
  }
  const size_t num_parts = r.starts.size();
  const int warp = device.config().warp_size;
  const uint64_t chunk_elems = std::min<uint64_t>(capacity, r.bucket_elems);
  const uint64_t table_size = bit_util::NextPowerOfTwo(chunk_elems * 2);
  const uint64_t mask = table_size - 1;

  std::vector<uint64_t> part_matches(num_parts, 0);
  {
    vgpu::KernelScope ks(device, "phj_um_probe_count");
    GPUJOIN_RETURN_IF_ERROR(device.ParallelBlocks(
        num_parts, [&](uint64_t p, vgpu::BlockContext& ctx) -> Status {
          const uint64_t rb = r.starts[p], rn = r.sizes[p];
          const uint64_t sb = s.starts[p], sn = s.sizes[p];
          if (rn == 0 || sn == 0) return Status::OK();
          std::vector<int64_t> slot_keys(table_size, kEmptySlot);
          uint64_t o = 0;
          for (uint64_t chunk = 0; chunk < rn; chunk += chunk_elems) {
            const uint64_t cn = std::min(chunk_elems, rn - chunk);
            ctx.Compute(4);  // Chain header / next-pointer bookkeeping.
            ctx.LoadSeq(r.keys.addr(rb + chunk), cn, sizeof(K));
            ctx.SharedAccess(bit_util::CeilDiv(cn, warp) * 2);
            std::fill(slot_keys.begin(), slot_keys.end(), kEmptySlot);
            for (uint64_t i = 0; i < cn; ++i) {
              const uint64_t pos = rb + chunk + i;
              uint64_t h = HashToSlot(static_cast<int64_t>(r.keys[pos]), mask);
              while (slot_keys[h] != kEmptySlot) h = (h + 1) & mask;
              slot_keys[h] = static_cast<int64_t>(r.keys[pos]);
            }
            for (uint64_t sc = 0; sc < sn; sc += s.bucket_elems) {
              const uint64_t scn = std::min<uint64_t>(s.bucket_elems, sn - sc);
              ctx.Compute(4);
              ctx.LoadSeq(s.keys.addr(sb + sc), scn, sizeof(K));
              ctx.SharedAccess(bit_util::CeilDiv(scn, warp) * 2);
              for (uint64_t j = 0; j < scn; ++j) {
                const uint64_t spos = sb + sc + j;
                uint64_t h = HashToSlot(static_cast<int64_t>(s.keys[spos]), mask);
                while (slot_keys[h] != kEmptySlot) {
                  if (slot_keys[h] == static_cast<int64_t>(s.keys[spos])) ++o;
                  h = (h + 1) & mask;
                }
              }
            }
          }
          part_matches[p] = o;
          return Status::OK();
        }));
  }

  std::vector<uint64_t> out_base(num_parts + 1, 0);
  for (size_t p = 0; p < num_parts; ++p) {
    out_base[p + 1] = out_base[p] + part_matches[p];
  }
  const uint64_t n_matches = out_base[num_parts];
  GPUJOIN_ASSIGN_OR_RETURN(auto out,
                           MatchWriter<K>::Create(device, n_matches, emit));

  {
    vgpu::KernelScope ks(device, "phj_um_probe_write");
    GPUJOIN_RETURN_IF_ERROR(device.ParallelBlocks(
        num_parts, [&](uint64_t p, vgpu::BlockContext& ctx) -> Status {
          const uint64_t rb = r.starts[p], rn = r.sizes[p];
          const uint64_t sb = s.starts[p], sn = s.sizes[p];
          if (rn == 0 || sn == 0) return Status::OK();
          std::vector<int64_t> slot_keys(table_size, kEmptySlot);
          std::vector<RowId> slot_pos(table_size, 0);
          BuildPayloadLoads r_loads(emit.r, ctx, warp);
          uint64_t o = out_base[p];
          for (uint64_t chunk = 0; chunk < rn; chunk += chunk_elems) {
            const uint64_t cn = std::min(chunk_elems, rn - chunk);
            ctx.Compute(4);
            ctx.LoadSeq(r.keys.addr(rb + chunk), cn, sizeof(K));
            ctx.SharedAccess(bit_util::CeilDiv(cn, warp) * 2);
            std::fill(slot_keys.begin(), slot_keys.end(), kEmptySlot);
            for (uint64_t i = 0; i < cn; ++i) {
              const uint64_t pos = rb + chunk + i;
              uint64_t h = HashToSlot(static_cast<int64_t>(r.keys[pos]), mask);
              while (slot_keys[h] != kEmptySlot) h = (h + 1) & mask;
              slot_keys[h] = static_cast<int64_t>(r.keys[pos]);
              slot_pos[h] = static_cast<RowId>(pos);
            }
            for (uint64_t sc = 0; sc < sn; sc += s.bucket_elems) {
              const uint64_t scn = std::min<uint64_t>(s.bucket_elems, sn - sc);
              ctx.Compute(4);
              ctx.LoadSeq(s.keys.addr(sb + sc), scn, sizeof(K));
              out.StreamS(ctx, sb + sc, scn);
              ctx.SharedAccess(bit_util::CeilDiv(scn, warp) * 2);
              for (uint64_t j = 0; j < scn; ++j) {
                const uint64_t spos = sb + sc + j;
                uint64_t h = HashToSlot(static_cast<int64_t>(s.keys[spos]), mask);
                while (slot_keys[h] != kEmptySlot) {
                  if (slot_keys[h] == static_cast<int64_t>(s.keys[spos])) {
                    out.Put(o++, s.keys[spos], slot_pos[h], spos);
                    r_loads.Add(slot_pos[h]);
                  }
                  h = (h + 1) & mask;
                }
              }
            }
            r_loads.Flush();
          }
          out.Flush(ctx, out_base[p], out_base[p + 1] - out_base[p]);
          return Status::OK();
        }));
  }
  return std::move(out).Take();
}

}  // namespace gpujoin::prim

#endif  // GPUJOIN_PRIM_BUCKET_CHAIN_H_
