// Hash-join match finders.
//
// HashJoinCoPartitioned — the partitioned hash join's match-finding phase
// (§3.2/§4.3): for every co-partition, a thread block builds a hash table in
// shared memory from the build-side partition and probes it with the
// probe-side partition streaming from global memory. Build partitions larger
// than the shared-memory capacity are processed in capacity-sized chunks,
// re-streaming the probe partition per chunk (the block-nested-loop scheme
// the paper describes). The simulation runs one partition per thread block
// via Device::ParallelBlocks — the blocks are independent by construction
// (each owns its shared-table image and a precomputed output range).
//
// HashJoinGlobal — the non-partitioned hash join baseline (cuDF-style,
// Figure 8): one global-memory open-addressing table built from R and probed
// by S; every table access is a random global access, which is exactly why
// the paper's Figure 9 shows it losing to the partitioned implementations.
// The build inserts in tuple order (insertion order defines the table
// layout, so it stays sequential); the probe sweeps run one S tile per
// block against the read-only table.
//
// Both run a count sweep + write sweep (deterministic, clustered output).
// NPHJ always emits positions: its materialization gathers through them,
// cuDF-style gather maps.

#ifndef GPUJOIN_PRIM_HASH_JOIN_H_
#define GPUJOIN_PRIM_HASH_JOIN_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/bit_util.h"
#include "common/status.h"
#include "prim/hash.h"
#include "prim/match.h"
#include "storage/types.h"
#include "vgpu/buffer.h"
#include "vgpu/device.h"

namespace gpujoin::prim {

/// Sentinel for empty hash-table slots; all workload keys are non-negative.
inline constexpr int64_t kEmptySlot = -1;

/// S elements per thread-block tile of the non-partitioned probe sweeps.
inline constexpr uint64_t kProbeTileElems = 4096;

/// Shared-memory hash-table capacity (entries) for a build chunk, derived
/// from the device's shared memory budget at load factor 1/2.
template <typename K>
uint64_t SharedHashCapacity(const vgpu::Device& device) {
  const uint64_t slot_bytes = sizeof(K) + sizeof(RowId);
  const uint64_t cap = device.config().shared_mem_per_block_bytes / slot_bytes / 2;
  return std::max<uint64_t>(cap, 64);
}

/// Inner hash join of co-partitioned key arrays. r_offsets/s_offsets are the
/// partition boundaries (size P+1) of r_keys/s_keys. Emits, per side,
/// positions into the partitioned arrays (virtual IDs) or the payload that
/// rode the partitioning (`emit`; the probe side's streams with its keys,
/// the build side's is read at the matched position). Output is probe-major
/// per partition, so positions are clustered. `capacity` is the shared-table
/// entry budget.
template <typename K>
Result<MatchResult<K>> HashJoinCoPartitioned(
    vgpu::Device& device, const vgpu::DeviceBuffer<K>& r_keys,
    const vgpu::DeviceBuffer<K>& s_keys, const std::vector<uint64_t>& r_offsets,
    const std::vector<uint64_t>& s_offsets, uint64_t capacity,
    const MatchEmit& emit = {}) {
  if (r_offsets.size() != s_offsets.size() || r_offsets.empty()) {
    return Status::InvalidArgument("HashJoinCoPartitioned: offset size mismatch");
  }
  const size_t num_parts = r_offsets.size() - 1;
  const int warp = device.config().warp_size;
  const uint64_t table_size = bit_util::NextPowerOfTwo(capacity * 2);
  const uint64_t mask = table_size - 1;

  // --- Count sweep: one partition per block, each with a private
  // shared-table image; per-partition match counts land in disjoint slots.
  std::vector<uint64_t> part_matches(num_parts, 0);
  {
    vgpu::KernelScope ks(device, "phj_probe_count");
    GPUJOIN_RETURN_IF_ERROR(device.ParallelBlocks(
        num_parts, [&](uint64_t p, vgpu::BlockContext& ctx) -> Status {
          const uint64_t rb = r_offsets[p], re = r_offsets[p + 1];
          const uint64_t sb = s_offsets[p], se = s_offsets[p + 1];
          if (rb == re || sb == se) return Status::OK();
          std::vector<int64_t> slot_keys(table_size, kEmptySlot);
          uint64_t o = 0;
          for (uint64_t chunk = rb; chunk < re; chunk += capacity) {
            const uint64_t ce = std::min(re, chunk + capacity);
            // Build: stream the chunk, insert into the shared table.
            ctx.LoadSeq(r_keys.addr(chunk), ce - chunk, sizeof(K));
            ctx.SharedAccess(bit_util::CeilDiv(ce - chunk, warp) * 2);
            std::fill(slot_keys.begin(), slot_keys.end(), kEmptySlot);
            for (uint64_t i = chunk; i < ce; ++i) {
              uint64_t h = HashToSlot(static_cast<int64_t>(r_keys[i]), mask);
              while (slot_keys[h] != kEmptySlot) h = (h + 1) & mask;
              slot_keys[h] = static_cast<int64_t>(r_keys[i]);
            }
            // Probe: stream the S partition.
            ctx.LoadSeq(s_keys.addr(sb), se - sb, sizeof(K));
            ctx.SharedAccess(bit_util::CeilDiv(se - sb, warp) * 2);
            for (uint64_t j = sb; j < se; ++j) {
              uint64_t h = HashToSlot(static_cast<int64_t>(s_keys[j]), mask);
              while (slot_keys[h] != kEmptySlot) {
                if (slot_keys[h] == static_cast<int64_t>(s_keys[j])) ++o;
                h = (h + 1) & mask;
              }
            }
          }
          part_matches[p] = o;
          return Status::OK();
        }));
  }

  // Per-partition output bases (probe-major per partition, so positions are
  // clustered) and the output allocation, on the calling thread.
  std::vector<uint64_t> out_base(num_parts + 1, 0);
  for (size_t p = 0; p < num_parts; ++p) {
    out_base[p + 1] = out_base[p] + part_matches[p];
  }
  const uint64_t n_matches = out_base[num_parts];
  GPUJOIN_ASSIGN_OR_RETURN(auto out,
                           MatchWriter<K>::Create(device, n_matches, emit));

  // --- Write sweep: same block decomposition; each block emits into its
  // precomputed contiguous output range.
  {
    vgpu::KernelScope ks(device, "phj_probe_write");
    GPUJOIN_RETURN_IF_ERROR(device.ParallelBlocks(
        num_parts, [&](uint64_t p, vgpu::BlockContext& ctx) -> Status {
          const uint64_t rb = r_offsets[p], re = r_offsets[p + 1];
          const uint64_t sb = s_offsets[p], se = s_offsets[p + 1];
          if (rb == re || sb == se) return Status::OK();
          std::vector<int64_t> slot_keys(table_size, kEmptySlot);
          std::vector<RowId> slot_pos(table_size, 0);
          BuildPayloadLoads r_loads(emit.r, ctx, warp);
          uint64_t o = out_base[p];
          for (uint64_t chunk = rb; chunk < re; chunk += capacity) {
            const uint64_t ce = std::min(re, chunk + capacity);
            ctx.LoadSeq(r_keys.addr(chunk), ce - chunk, sizeof(K));
            ctx.SharedAccess(bit_util::CeilDiv(ce - chunk, warp) * 2);
            std::fill(slot_keys.begin(), slot_keys.end(), kEmptySlot);
            for (uint64_t i = chunk; i < ce; ++i) {
              uint64_t h = HashToSlot(static_cast<int64_t>(r_keys[i]), mask);
              while (slot_keys[h] != kEmptySlot) h = (h + 1) & mask;
              slot_keys[h] = static_cast<int64_t>(r_keys[i]);
              slot_pos[h] = static_cast<RowId>(i);
            }
            ctx.LoadSeq(s_keys.addr(sb), se - sb, sizeof(K));
            out.StreamS(ctx, sb, se - sb);
            ctx.SharedAccess(bit_util::CeilDiv(se - sb, warp) * 2);
            for (uint64_t j = sb; j < se; ++j) {
              uint64_t h = HashToSlot(static_cast<int64_t>(s_keys[j]), mask);
              while (slot_keys[h] != kEmptySlot) {
                if (slot_keys[h] == static_cast<int64_t>(s_keys[j])) {
                  out.Put(o++, s_keys[j], slot_pos[h], j);
                  r_loads.Add(slot_pos[h]);
                }
                h = (h + 1) & mask;
              }
            }
            r_loads.Flush();
          }
          // The partition's matches flush as one contiguous run per column.
          out.Flush(ctx, out_base[p], out_base[p + 1] - out_base[p]);
          return Status::OK();
        }));
  }
  return std::move(out).Take();
}

/// Non-partitioned hash join: global-memory table, random accesses.
template <typename K>
Result<MatchResult<K>> HashJoinGlobal(vgpu::Device& device,
                                      const vgpu::DeviceBuffer<K>& r_keys,
                                      const vgpu::DeviceBuffer<K>& s_keys) {
  const uint64_t nr = r_keys.size();
  const uint64_t ns = s_keys.size();
  const int warp = device.config().warp_size;
  const uint64_t table_size = bit_util::NextPowerOfTwo(std::max<uint64_t>(nr * 2, 16));
  const uint64_t mask = table_size - 1;

  // The table lives in (simulated) global memory: allocate so accesses have
  // real addresses and the allocator sees the footprint.
  GPUJOIN_ASSIGN_OR_RETURN(auto table_keys,
                           vgpu::DeviceBuffer<int64_t>::Allocate(device, table_size));
  GPUJOIN_ASSIGN_OR_RETURN(auto table_pos,
                           vgpu::DeviceBuffer<RowId>::Allocate(device, table_size));
  std::fill(table_keys.data(), table_keys.data() + table_size, kEmptySlot);

  // --- Build kernel: one random load+store chain per R tuple. Insertion
  // order defines the linear-probe layout, so the build stays sequential.
  {
    vgpu::KernelScope ks(device, "nphj_build");
    device.LoadSeq(r_keys.addr(), nr, sizeof(K));
    uint64_t load_addrs[32];
    uint64_t store_addrs[32];
    for (uint64_t i = 0; i < nr; i += warp) {
      const uint32_t lanes = static_cast<uint32_t>(std::min<uint64_t>(warp, nr - i));
      for (uint32_t l = 0; l < lanes; ++l) {
        const uint64_t idx = i + l;
        uint64_t h = HashToSlot(static_cast<int64_t>(r_keys[idx]), mask);
        uint64_t steps = 1;
        while (table_keys[h] != kEmptySlot) {
          h = (h + 1) & mask;
          ++steps;
        }
        table_keys[h] = static_cast<int64_t>(r_keys[idx]);
        table_pos[h] = static_cast<RowId>(idx);
        load_addrs[l] = table_keys.addr(h);
        store_addrs[l] = table_keys.addr(h);
        // Collision chain steps beyond the first: extra probes, charged as
        // additional warp accesses (approximately batched).
        if (steps > 1) device.Compute(steps - 1);
      }
      device.Load({load_addrs, lanes}, sizeof(int64_t));
      device.Store({store_addrs, lanes}, sizeof(int64_t) + sizeof(RowId));
    }
  }

  // --- Probe kernels: count sweep then write sweep, one S tile per block
  // against the read-only table.
  const uint64_t n_tiles = bit_util::CeilDiv(ns, kProbeTileElems);
  std::vector<uint64_t> tile_matches(n_tiles, 0);
  {
    vgpu::KernelScope ks(device, "nphj_probe_count");
    GPUJOIN_RETURN_IF_ERROR(device.ParallelBlocks(
        n_tiles, [&](uint64_t tile, vgpu::BlockContext& ctx) -> Status {
          const uint64_t begin = tile * kProbeTileElems;
          const uint64_t tile_n = std::min(kProbeTileElems, ns - begin);
          ctx.LoadSeq(s_keys.addr(begin), tile_n, sizeof(K));
          uint64_t o = 0;
          uint64_t addrs[32];
          for (uint64_t j = begin; j < begin + tile_n; j += warp) {
            const uint32_t lanes = static_cast<uint32_t>(
                std::min<uint64_t>(warp, begin + tile_n - j));
            for (uint32_t l = 0; l < lanes; ++l) {
              const uint64_t idx = j + l;
              uint64_t h = HashToSlot(static_cast<int64_t>(s_keys[idx]), mask);
              addrs[l] = table_keys.addr(h);
              uint64_t steps = 1;
              while (table_keys[h] != kEmptySlot) {
                if (table_keys[h] == static_cast<int64_t>(s_keys[idx])) ++o;
                h = (h + 1) & mask;
                ++steps;
              }
              if (steps > 1) ctx.Compute(steps - 1);
            }
            ctx.Load({addrs, lanes}, sizeof(int64_t) + sizeof(RowId));
          }
          tile_matches[tile] = o;
          return Status::OK();
        }));
  }

  std::vector<uint64_t> tile_base(n_tiles + 1, 0);
  for (uint64_t t = 0; t < n_tiles; ++t) {
    tile_base[t + 1] = tile_base[t] + tile_matches[t];
  }
  const uint64_t n_matches = tile_base[n_tiles];
  GPUJOIN_ASSIGN_OR_RETURN(auto out,
                           MatchWriter<K>::Create(device, n_matches, {}));

  {
    vgpu::KernelScope ks(device, "nphj_probe_write");
    GPUJOIN_RETURN_IF_ERROR(device.ParallelBlocks(
        n_tiles, [&](uint64_t tile, vgpu::BlockContext& ctx) -> Status {
          const uint64_t begin = tile * kProbeTileElems;
          const uint64_t tile_n = std::min(kProbeTileElems, ns - begin);
          ctx.LoadSeq(s_keys.addr(begin), tile_n, sizeof(K));
          uint64_t o = tile_base[tile];
          uint64_t addrs[32];
          for (uint64_t j = begin; j < begin + tile_n; j += warp) {
            const uint32_t lanes = static_cast<uint32_t>(
                std::min<uint64_t>(warp, begin + tile_n - j));
            for (uint32_t l = 0; l < lanes; ++l) {
              const uint64_t idx = j + l;
              uint64_t h = HashToSlot(static_cast<int64_t>(s_keys[idx]), mask);
              addrs[l] = table_keys.addr(h);
              uint64_t steps = 1;
              while (table_keys[h] != kEmptySlot) {
                if (table_keys[h] == static_cast<int64_t>(s_keys[idx])) {
                  out.Put(o++, s_keys[idx], table_pos[h], idx);
                }
                h = (h + 1) & mask;
                ++steps;
              }
              if (steps > 1) ctx.Compute(steps - 1);
            }
            ctx.Load({addrs, lanes}, sizeof(int64_t) + sizeof(RowId));
          }
          out.Flush(ctx, tile_base[tile], tile_base[tile + 1] - tile_base[tile]);
          return Status::OK();
        }));
  }
  return std::move(out).Take();
}

}  // namespace gpujoin::prim

#endif  // GPUJOIN_PRIM_HASH_JOIN_H_
