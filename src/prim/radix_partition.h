// RADIX-PARTITION and SORT-PAIRS primitives (§2.3 of the paper), charged
// the way CUB's OneSweep runs them (Adinets & Merrill, arXiv 2206.01784).
//
// RadixPartition is a stable LSD transform of a (key, value) pair of arrays
// by key bits [bit_lo, bit_lo + total_bits), in passes of at most 8 bits
// (the paper's Ampere limit of 256 partitions per invocation); SORT-PAIRS is
// the transform over the full key width (keys must be non-negative):
//   1. radix_histogram: ONE read of the keys fills every pass's 2^bits digit
//      counters (warp-aggregated shared-memory histograms, skew-robust);
//   2. radix_scan: an exclusive prefix sum over all of them (tiny);
//   3. one radix_scatter per pass: each tile ranks its keys in shared memory,
//      which yields its digit counts, finds its run start per digit by a
//      decoupled look-back over its predecessors' counts, and flushes the
//      staged tile per digit in contiguous runs.
// Steps 1-2 produce a RadixHistograms value; a later transform of the same
// key buffer (Algorithm 1's lazy GFTR re-transforms) hands it back and runs
// only the scatters. SORT-PAIRS of a 4-byte key and payload thus moves the
// paper's "about 17 sequential scans" literally: one key read, then 4 passes
// that each read and write both columns. An 8-byte key costs 8 passes.
//
// The kernels run tile by tile through Device::ParallelBlocks. The simulator
// knows every tile's digit counts before the scatter runs, so the look-back
// resolves exactly: blocks write disjoint output ranges, and the result is
// bit-identical to a sequential stable partition at any host thread count.

#ifndef GPUJOIN_PRIM_RADIX_PARTITION_H_
#define GPUJOIN_PRIM_RADIX_PARTITION_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <vector>

#include "common/bit_util.h"
#include "common/status.h"
#include "vgpu/buffer.h"
#include "vgpu/device.h"

namespace gpujoin::prim {

/// Maximum radix bits per RADIX-PARTITION invocation (256 partitions),
/// matching the paper's description of the Ampere-generation primitive.
inline constexpr int kMaxRadixBitsPerPass = 8;

/// Elements staged per thread-block tile in the histogram/scatter phases.
inline constexpr uint64_t kPartitionTileElems = 4096;

/// The digit counts of one key buffer for every pass of a transform: a small
/// device-resident object (passes x 2^widths[0] 4-byte counters, at most
/// 8 KB), allocated and freed like any buffer so that peak memory and the
/// leak audit see it.
struct RadixHistograms {
  uint64_t keys_addr = 0;  // The key buffer, its size and the digit split
  uint64_t n = 0;          // they were counted for.
  int bit_lo = 0;
  std::vector<int> widths;  // Bits per pass, LSD first.
  vgpu::DeviceBuffer<uint32_t> counts;  // Row p: pass p's digit counts.

  bool empty() const { return widths.empty(); }
  uint32_t stride() const { return 1u << widths[0]; }
  uint64_t Count(size_t pass, uint32_t digit) const {
    return counts[pass * stride() + digit];
  }
  void Release() {
    counts.Release();
    widths.clear();
  }
};

/// OneSweep's upfront histogram: one radix_histogram kernel reads the keys
/// once and counts every pass's digits; one radix_scan kernel prefixes them.
template <typename K>
Result<RadixHistograms> BuildRadixHistograms(vgpu::Device& device,
                                             const vgpu::DeviceBuffer<K>& keys,
                                             int bit_lo, std::vector<int> widths) {
  RadixHistograms h{keys.addr(), keys.size(), bit_lo, std::move(widths), {}};
  const uint64_t n = h.n, passes = h.widths.size(), stride = h.stride();
  GPUJOIN_ASSIGN_OR_RETURN(h.counts, vgpu::DeviceBuffer<uint32_t>::Allocate(
                                         device, passes * stride,
                                         "radix_histograms"));
  const int warp = device.config().warp_size;
  std::vector<uint64_t> totals(passes * stride, 0);
  {
    vgpu::KernelScope ks(device, "radix_histogram");
    GPUJOIN_RETURN_IF_ERROR(device.ParallelBlocks(
        bit_util::CeilDiv(n, kPartitionTileElems),
        [&](uint64_t tile, vgpu::BlockContext& ctx) -> Status {
          const uint64_t begin = tile * kPartitionTileElems;
          const uint64_t tile_n = std::min(kPartitionTileElems, n - begin);
          ctx.LoadSeq(keys.addr(begin), tile_n, sizeof(K));
          std::vector<uint32_t> mine(passes * stride, 0);
          for (uint64_t i = begin; i < begin + tile_n; ++i) {
            for (uint64_t p = 0, lo = bit_lo; p < passes; lo += h.widths[p++]) {
              ++mine[p * stride + bit_util::RadixDigit(keys[i], lo, h.widths[p])];
            }
          }
          // Sums do not depend on the block order or the host thread count.
          for (uint64_t j = 0; j < mine.size(); ++j) {
            std::atomic_ref<uint64_t>(totals[j]).fetch_add(
                mine[j], std::memory_order_relaxed);
          }
          // One warp-aggregated shared-memory update per warp and pass.
          ctx.SharedAccess(bit_util::CeilDiv(tile_n, warp) * passes);
          ctx.Compute(bit_util::CeilDiv(tile_n, warp) * passes);
          return Status::OK();
        }));
    // The blocks' atomicAdd flush of their shared bins into the object.
    device.StoreSeq(h.counts.addr(), passes * stride, sizeof(uint32_t));
  }
  std::copy(totals.begin(), totals.end(), h.counts.data());
  {
    vgpu::KernelScope ks(device, "radix_scan");
    device.Compute(bit_util::CeilDiv(passes * stride, warp) * 2);
  }
  return h;
}

/// One OneSweep scatter: stably partitions (keys_in, *vals_in) by pass
/// `pass`'s digit, key bits [bit_lo, bit_lo + hist.widths[pass]).
/// keys_out == nullptr skips the key stores; null value buffers are the
/// keys-only mode.
template <typename K, typename V>
Status RadixScatterPass(vgpu::Device& device, const RadixHistograms& hist,
                        size_t pass, int bit_lo,
                        const vgpu::DeviceBuffer<K>& keys_in,
                        const vgpu::DeviceBuffer<V>* vals_in,
                        vgpu::DeviceBuffer<K>* keys_out,
                        vgpu::DeviceBuffer<V>* vals_out) {
  const int bits = hist.widths[pass];
  const uint32_t fanout = 1u << bits;
  const uint64_t n = keys_in.size();
  const int warp = device.config().warp_size;
  const uint64_t n_tiles = bit_util::CeilDiv(n, kPartitionTileElems);
  vgpu::KernelScope ks(device, "radix_scatter");

  // Functional half of the rank step (the blocks below pay for it): each
  // tile's digit counts, then its run start per digit. The recount also
  // catches a key buffer rewritten since its histograms were built.
  std::vector<uint64_t> tile_cursor(n_tiles * fanout, 0);
  GPUJOIN_RETURN_IF_ERROR(device.ParallelBlocks(
      n_tiles, [&](uint64_t tile, vgpu::BlockContext&) -> Status {
        const uint64_t begin = tile * kPartitionTileElems;
        const uint64_t end = std::min(begin + kPartitionTileElems, n);
        for (uint64_t i = begin; i < end; ++i) {
          ++tile_cursor[tile * fanout +
                        bit_util::RadixDigit(keys_in[i], bit_lo, bits)];
        }
        return Status::OK();
      }));
  for (uint64_t d = 0, run = 0; d < fanout; ++d) {
    const uint64_t digit_start = run;
    for (uint64_t tile = 0; tile < n_tiles; ++tile) {
      std::swap(tile_cursor[tile * fanout + d], run);
      run += tile_cursor[tile * fanout + d];
    }
    if (run - digit_start != hist.Count(pass, d)) {
      return Status::InvalidArgument("radix_scatter: histograms do not match");
    }
  }

  GPUJOIN_RETURN_IF_ERROR(device.ParallelBlocks(
      n_tiles, [&](uint64_t tile, vgpu::BlockContext& ctx) -> Status {
        const uint64_t begin = tile * kPartitionTileElems;
        const uint64_t tile_n = std::min(kPartitionTileElems, n - begin);
        ctx.LoadSeq(keys_in.addr(begin), tile_n, sizeof(K));
        if (vals_in != nullptr) ctx.LoadSeq(vals_in->addr(begin), tile_n, sizeof(V));
        // Stage + rank within the tile: ~2 shared accesses per warp.
        ctx.SharedAccess(bit_util::CeilDiv(tile_n, warp) * 2);
        ctx.Compute(bit_util::CeilDiv(tile_n, warp));

        const uint64_t* first = tile_cursor.data() + tile * fanout;
        std::vector<uint64_t> cursor(first, first + fanout);
        for (uint64_t i = begin; i < begin + tile_n; ++i) {
          const uint64_t pos =
              cursor[bit_util::RadixDigit(keys_in[i], bit_lo, bits)]++;
          if (keys_out != nullptr) (*keys_out)[pos] = keys_in[i];
          if (vals_out != nullptr) (*vals_out)[pos] = (*vals_in)[i];
        }
        // The tile is staged in shared memory, so elements headed to the
        // same partition flush together: one contiguous run per digit.
        for (uint32_t d = 0; d < fanout; ++d) {
          const uint64_t len = cursor[d] - first[d];
          if (len > 0 && keys_out != nullptr) {
            ctx.StoreSeq(keys_out->addr(first[d]), len, sizeof(K));
          }
          if (len > 0 && vals_out != nullptr) {
            ctx.StoreSeq(vals_out->addr(first[d]), len, sizeof(V));
          }
        }
        return Status::OK();
      }));
  // Decoupled look-back: each tile reads its predecessor's 2^bits descriptors
  // (the first tile reads the scanned bins) and publishes its own. These
  // lines live in the L2 between a publish and its read, so they are charged
  // against the pass's L2-resident histogram row, not against per-tile
  // addresses that a cold block shard would price as DRAM traffic.
  const uint64_t row = hist.counts.addr(pass * hist.stride());
  for (uint64_t tile = 0; tile < n_tiles; ++tile) {
    device.LoadSeq(row, fanout, sizeof(uint32_t));
    device.StoreSeq(row, fanout, sizeof(uint32_t));
  }
  return Status::OK();
}

/// Stable LSD radix transform of (keys, *vals) by key bits
/// [bit_lo, bit_lo + total_bits) into freshly allocated (*keys_out,
/// *vals_out); the inputs stay untouched. Elements end up grouped by their
/// full digit, in input order within each group.
///   vals == nullptr: keys-only mode, no value stream (*vals_out unused).
///   discard_keys: the caller never reads the transformed keys (Algorithm 1's
///     re-transforms): the last pass skips the key stores, *keys_out stays
///     empty.
///   hist: nullptr builds the histograms and frees them on return; an empty
///     object receives them; a filled one must describe these keys and this
///     digit split (InvalidArgument otherwise), and no histogram kernel runs.
/// Besides the outputs, more than one pass allocates one ping-pong pair (the
/// paper's M_t). Passes alternate so that the last lands in the outputs, and
/// a key buffer exists only where a pass writes keys: a two-pass transform
/// that discards its keys never allocates *keys_out.
template <typename K, typename V>
Status RadixPartition(vgpu::Device& device, const vgpu::DeviceBuffer<K>& keys,
                      const vgpu::DeviceBuffer<V>* vals,
                      vgpu::DeviceBuffer<K>* keys_out,
                      vgpu::DeviceBuffer<V>* vals_out, int bit_lo,
                      int total_bits, bool discard_keys = false,
                      RadixHistograms* hist = nullptr) {
  const uint64_t n = keys.size();
  if (total_bits < 1 || bit_lo < 0 ||
      bit_lo + total_bits > static_cast<int>(sizeof(K)) * 8 ||
      (vals != nullptr ? vals->size() != n : discard_keys)) {
    return Status::InvalidArgument(
        "RadixPartition: bad bit range, size mismatch, or keys-only with "
        "discarded keys");
  }
  // Balanced passes of at most 8 bits, the wider ones first.
  const int passes = (total_bits + kMaxRadixBitsPerPass - 1) / kMaxRadixBitsPerPass;
  std::vector<int> widths(passes, total_bits / passes);
  for (int i = 0; i < total_bits % passes; ++i) ++widths[i];
  RadixHistograms local;
  if (hist == nullptr) hist = &local;
  if (hist->empty()) {
    GPUJOIN_ASSIGN_OR_RETURN(*hist,
                             BuildRadixHistograms(device, keys, bit_lo, widths));
  } else if (hist->keys_addr != keys.addr() || hist->n != n ||
             hist->bit_lo != bit_lo || hist->widths != widths) {
    return Status::InvalidArgument(
        "RadixPartition: histograms of another key buffer or digit split");
  }

  vgpu::DeviceBuffer<K> keys_tmp;
  vgpu::DeviceBuffer<V> vals_tmp;
  if (vals != nullptr) {
    GPUJOIN_ASSIGN_OR_RETURN(*vals_out, vgpu::DeviceBuffer<V>::Allocate(device, n));
  }
  if (!discard_keys || passes >= 3) {
    GPUJOIN_ASSIGN_OR_RETURN(*keys_out, vgpu::DeviceBuffer<K>::Allocate(device, n));
  }
  if (passes > 1) {
    GPUJOIN_ASSIGN_OR_RETURN(keys_tmp, vgpu::DeviceBuffer<K>::Allocate(device, n));
  }
  if (passes > 1 && vals != nullptr) {
    GPUJOIN_ASSIGN_OR_RETURN(vals_tmp, vgpu::DeviceBuffer<V>::Allocate(device, n));
  }
  const vgpu::DeviceBuffer<K>* k_in = &keys;
  const vgpu::DeviceBuffer<V>* v_in = vals;
  for (int p = 0, lo = bit_lo; p < passes; lo += widths[p++]) {
    // Pass p writes to the outputs when an even number of passes follow it.
    const bool to_out = (passes - 1 - p) % 2 == 0;
    vgpu::DeviceBuffer<K>* k_to = to_out ? keys_out : &keys_tmp;
    vgpu::DeviceBuffer<V>* v_to = vals == nullptr ? nullptr
                                  : to_out        ? vals_out
                                                  : &vals_tmp;
    const bool last_discards = discard_keys && p == passes - 1;
    GPUJOIN_RETURN_IF_ERROR(RadixScatterPass(device, *hist, p, lo, *k_in, v_in,
                                             last_discards ? nullptr : k_to,
                                             v_to));
    k_in = k_to;
    v_in = v_to;
  }
  if (discard_keys) keys_out->Release();
  return Status::OK();
}

/// Computes the partition boundaries of an array already grouped by bits
/// [0, bits): one sequential read + histogram + prefix sum (the explicit
/// "extra histogram" step of §4.3). offsets gets 2^bits + 1 entries.
template <typename K>
Status ComputePartitionOffsets(vgpu::Device& device,
                               const vgpu::DeviceBuffer<K>& keys, int bits,
                               std::vector<uint64_t>* offsets) {
  const uint32_t fanout = 1u << bits;
  const uint64_t n = keys.size();
  const int warp = device.config().warp_size;
  const uint64_t n_tiles = bit_util::CeilDiv(n, kPartitionTileElems);
  std::vector<uint64_t> tile_counts(n_tiles * fanout, 0);
  {
    vgpu::KernelScope ks(device, "partition_offsets");
    GPUJOIN_RETURN_IF_ERROR(device.ParallelBlocks(
        n_tiles, [&](uint64_t tile, vgpu::BlockContext& ctx) -> Status {
          const uint64_t begin = tile * kPartitionTileElems;
          const uint64_t tile_n = std::min(kPartitionTileElems, n - begin);
          ctx.LoadSeq(keys.addr(begin), tile_n, sizeof(K));
          uint64_t* mine = tile_counts.data() + tile * fanout;
          for (uint64_t i = begin; i < begin + tile_n; ++i) {
            ++mine[bit_util::RadixDigit(keys[i], 0, bits)];
          }
          ctx.SharedAccess(bit_util::CeilDiv(tile_n, warp));
          return Status::OK();
        }));
    device.Compute(bit_util::CeilDiv(fanout, 32) * 2);
  }
  offsets->assign(fanout + 1, 0);
  for (uint32_t p = 0; p < fanout; ++p) {
    uint64_t count = 0;
    for (uint64_t tile = 0; tile < n_tiles; ++tile) {
      count += tile_counts[tile * fanout + p];
    }
    (*offsets)[p + 1] = (*offsets)[p] + count;
  }
  return Status::OK();
}

}  // namespace gpujoin::prim

#endif  // GPUJOIN_PRIM_RADIX_PARTITION_H_
