// Merge join over two sorted key arrays, in the style of the GPU Merge Path
// algorithm (§3.1): the inputs are split into balanced, independently
// mergeable segments (charged as the Merge Path binary-search descent), then
// each segment is merged with purely sequential accesses. Handles M:N key
// multiplicity (needed for the TPC-DS self-join J5).
//
// Like the real implementations, match finding runs in two sweeps: a count
// sweep to size the output, an exclusive scan, and a write sweep that emits
// each match's key plus, per side, its position or its payload (match.h)
// sequentially. For PK-FK inputs the paper notes a single Merge Path descent
// suffices; we charge the descent accordingly.
//
// Parallel simulation: the segment decomposition is materialized explicitly
// — S is tiled and each tile boundary snapped forward to the next key-run
// start (so no equal-key run straddles two segments), R is co-partitioned
// by binary search on the segment's first S key. Each segment then merges
// as an independent thread block via Device::ParallelBlocks, emitting into
// a per-segment output range precomputed from the count sweep.
//
// Output ordering: S-major (s_pos strictly ascending), r_pos ascending
// within each S run — i.e., the output position columns are clustered
// whenever the inputs are (the property GFTR relies on, §4.1).

#ifndef GPUJOIN_PRIM_MERGE_JOIN_H_
#define GPUJOIN_PRIM_MERGE_JOIN_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/bit_util.h"
#include "common/status.h"
#include "prim/match.h"
#include "prim/merge_path.h"
#include "storage/types.h"
#include "vgpu/buffer.h"
#include "vgpu/device.h"

namespace gpujoin::prim {

/// Probe-side elements per merge segment (before run snapping).
inline constexpr uint64_t kMergeTileElems = 4096;

/// Inner merge join of sorted r_keys and s_keys.
/// `pk_fk`: R keys are unique (primary keys) — halves the Merge Path setup.
/// `emit`: per side, positions (default), the payload that rode the sort
/// (loaded sequentially with the segment's keys), or nothing.
template <typename K>
Result<MatchResult<K>> MergeJoinSorted(vgpu::Device& device,
                                       const vgpu::DeviceBuffer<K>& r_keys,
                                       const vgpu::DeviceBuffer<K>& s_keys,
                                       bool pk_fk, const MatchEmit& emit = {}) {
  const uint64_t nr = r_keys.size();
  const uint64_t ns = s_keys.size();
  const int warp = device.config().warp_size;

  // --- Merge Path setup: split the merge into balanced segments (one per
  // warp of the probe side); a PK-FK join needs a single descent, general
  // M:N joins apply it twice (lower + upper bounds, §3.1).
  const uint64_t segments = std::max<uint64_t>(1, bit_util::CeilDiv(ns, warp));
  GPUJOIN_RETURN_IF_ERROR(
      MergePathPartition(device, r_keys, s_keys, segments).status());
  if (!pk_fk) {
    GPUJOIN_RETURN_IF_ERROR(
        MergePathPartition(device, r_keys, s_keys, segments).status());
  }

  // --- Segment decomposition (functional; the descent above already paid
  // for it). S tile boundaries snap forward to the next key-run start, so
  // every equal-key run lives in exactly one segment; R is co-partitioned
  // at the lower bound of each segment's first S key. Both partitions are
  // exact covers, so per-segment merges are globally complete and disjoint.
  std::vector<uint64_t> s_bounds;
  if (ns > 0) {
    s_bounds.push_back(0);
    for (uint64_t raw = kMergeTileElems; raw < ns; raw += kMergeTileElems) {
      uint64_t j = raw;
      while (j < ns && s_keys[j] == s_keys[j - 1]) ++j;
      if (j < ns && j > s_bounds.back()) s_bounds.push_back(j);
    }
    s_bounds.push_back(ns);
  }
  const uint64_t n_segs = s_bounds.empty() ? 0 : s_bounds.size() - 1;
  std::vector<uint64_t> r_bounds(n_segs + 1, 0);
  for (uint64_t k = 1; k < n_segs; ++k) {
    r_bounds[k] = static_cast<uint64_t>(
        std::lower_bound(r_keys.data(), r_keys.data() + nr,
                         s_keys[s_bounds[k]]) -
        r_keys.data());
  }
  if (n_segs > 0) r_bounds[n_segs] = nr;

  // Merge walk of one segment; emits via `emit(r, s, key)` for each match.
  auto walk_segment = [&](uint64_t k, auto&& emit) {
    const uint64_t re = r_bounds[k + 1], se = s_bounds[k + 1];
    uint64_t i = r_bounds[k], j = s_bounds[k];
    uint64_t count = 0;
    while (i < re && j < se) {
      if (r_keys[i] < s_keys[j]) {
        ++i;
      } else if (s_keys[j] < r_keys[i]) {
        ++j;
      } else {
        uint64_t ri = i;
        while (ri < nr && r_keys[ri] == r_keys[i]) ++ri;
        uint64_t sj = j;
        while (sj < se && s_keys[sj] == s_keys[j]) ++sj;
        for (uint64_t s = j; s < sj; ++s) {
          for (uint64_t r = i; r < ri; ++r) {
            emit(r, s, s_keys[s]);
            ++count;
          }
        }
        i = ri;
        j = sj;
      }
    }
    return count;
  };

  // --- Sweep 1: count matches per segment (sequential scans per block).
  std::vector<uint64_t> seg_matches(n_segs, 0);
  {
    vgpu::KernelScope ks(device, "merge_join_count");
    GPUJOIN_RETURN_IF_ERROR(device.ParallelBlocks(
        n_segs, [&](uint64_t k, vgpu::BlockContext& ctx) -> Status {
          const uint64_t rn = r_bounds[k + 1] - r_bounds[k];
          const uint64_t sn = s_bounds[k + 1] - s_bounds[k];
          if (rn > 0) ctx.LoadSeq(r_keys.addr(r_bounds[k]), rn, sizeof(K));
          if (sn > 0) ctx.LoadSeq(s_keys.addr(s_bounds[k]), sn, sizeof(K));
          seg_matches[k] = walk_segment(k, [](uint64_t, uint64_t, K) {});
          ctx.Compute(bit_util::CeilDiv(rn + sn, warp));
          return Status::OK();
        }));
  }
  std::vector<uint64_t> out_base(n_segs + 1, 0);
  for (uint64_t k = 0; k < n_segs; ++k) {
    out_base[k + 1] = out_base[k] + seg_matches[k];
  }
  const uint64_t n_matches = out_base[n_segs];

  GPUJOIN_ASSIGN_OR_RETURN(auto out,
                           MatchWriter<K>::Create(device, n_matches, emit));

  // --- Sweep 2: write matches into per-segment output ranges.
  {
    vgpu::KernelScope ks(device, "merge_join_write");
    GPUJOIN_RETURN_IF_ERROR(device.ParallelBlocks(
        n_segs, [&](uint64_t k, vgpu::BlockContext& ctx) -> Status {
          const uint64_t rn = r_bounds[k + 1] - r_bounds[k];
          const uint64_t sn = s_bounds[k + 1] - s_bounds[k];
          if (rn > 0) ctx.LoadSeq(r_keys.addr(r_bounds[k]), rn, sizeof(K));
          if (sn > 0) ctx.LoadSeq(s_keys.addr(s_bounds[k]), sn, sizeof(K));
          out.StreamR(ctx, r_bounds[k], rn);
          out.StreamS(ctx, s_bounds[k], sn);
          uint64_t o = out_base[k];
          walk_segment(k, [&](uint64_t r, uint64_t s, K key) {
            out.Put(o++, key, r, s);
          });
          const uint64_t len = out_base[k + 1] - out_base[k];
          out.Flush(ctx, out_base[k], len);
          ctx.Compute(bit_util::CeilDiv(rn + sn + len, warp));
          return Status::OK();
        }));
  }
  return std::move(out).Take();
}

}  // namespace gpujoin::prim

#endif  // GPUJOIN_PRIM_MERGE_JOIN_H_
