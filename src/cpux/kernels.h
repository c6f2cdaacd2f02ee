// Vectorized (batch-at-a-time) CPU kernels for the cpux backend, in the
// style of SIMD database operator libraries: every primitive processes a
// fixed-size batch of keys through tight, branch-light loops over plain
// arrays so the compiler can auto-vectorize (hashing, slot-key compares,
// gathers), with a selection vector carrying the still-active lanes of a
// linear-probe chain between steps.
//
// Parallel decomposition is by FIXED-SIZE chunks (kChunkRows) whose output
// ranges are a pure function of the input size — never of the worker
// count — so every kernel is bit-identical at any TaskPool size, matching
// the determinism contract of the simulator's ParallelBlocks path.
//
// Keys follow the library convention (join.h): non-negative int64 values,
// so -1 is the universal empty-slot sentinel.

#ifndef GPUJOIN_CPUX_KERNELS_H_
#define GPUJOIN_CPUX_KERNELS_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/bit_util.h"
#include "prim/hash.h"

namespace gpujoin::cpux {

/// Lanes processed per batch step. Large enough to amortize the batch loop,
/// small enough that the working arrays live in L1.
inline constexpr uint64_t kBatchSize = 1024;

/// Rows per parallel chunk. Fixed (thread-count independent) so per-chunk
/// counts, offsets, and output ranges are stable for every pool size.
inline constexpr uint64_t kChunkRows = uint64_t{1} << 16;

inline uint64_t NumChunks(uint64_t rows) {
  return rows == 0 ? 0 : (rows + kChunkRows - 1) / kChunkRows;
}

/// A (key, original row id) pair — the unit the partition and sort kernels
/// move around, mirroring the device kernels' key/rid columns.
struct KeyId {
  int64_t key;
  uint32_t id;
};

inline bool KeyIdLess(const KeyId& a, const KeyId& b) {
  return a.key != b.key ? a.key < b.key : a.id < b.id;
}

/// Hashes a batch of keys into `out` (tight loop, auto-vectorizable).
inline void HashBatch(const int64_t* keys, uint64_t n, uint64_t mask,
                      uint64_t* out) {
  for (uint64_t i = 0; i < n; ++i) {
    out[i] = prim::HashToSlot(keys[i], mask);
  }
}

/// An open-addressing linear-probe table over pre-allocated slabs. Slots
/// hold the build key and its row id; empty slots carry key -1. Duplicate
/// build keys occupy distinct slots, so probes walk their chain to the
/// first empty slot to find every match (M:N correct).
struct ProbeTable {
  int64_t* slot_keys = nullptr;
  uint32_t* slot_ids = nullptr;
  uint64_t mask = 0;  // capacity - 1 (capacity is a power of two)

  uint64_t capacity() const { return mask + 1; }

  void Clear() {
    std::fill(slot_keys, slot_keys + capacity(), int64_t{-1});
  }

  /// Sequential build (insertion order = input order, deterministic).
  /// Hashing is batched; the probe-to-empty insert is scalar per lane.
  /// Build row ids come from `ids` when non-null, else base_id + i.
  void Build(const int64_t* keys, const uint32_t* ids, uint64_t n,
             uint32_t base_id = 0) {
    uint64_t hashes[kBatchSize];
    for (uint64_t base = 0; base < n; base += kBatchSize) {
      const uint64_t m = std::min(kBatchSize, n - base);
      HashBatch(keys + base, m, mask, hashes);
      for (uint64_t i = 0; i < m; ++i) {
        uint64_t h = hashes[i];
        while (slot_keys[h] != -1) h = (h + 1) & mask;
        slot_keys[h] = keys[base + i];
        slot_ids[h] = ids != nullptr
                          ? ids[base + i]
                          : base_id + static_cast<uint32_t>(base + i);
      }
    }
  }

  /// Counts matches for probe keys [0, n). Batch-at-a-time: hash the whole
  /// batch, then walk the probe chains step-synchronously with a selection
  /// vector of still-active lanes (lanes retire at their first empty slot).
  uint64_t CountMatches(const int64_t* keys, uint64_t n) const {
    uint64_t total = 0;
    uint64_t hashes[kBatchSize];
    uint32_t active[kBatchSize];
    uint64_t pos[kBatchSize];
    for (uint64_t base = 0; base < n; base += kBatchSize) {
      const uint64_t m = std::min(kBatchSize, n - base);
      HashBatch(keys + base, m, mask, hashes);
      uint32_t n_active = 0;
      for (uint64_t i = 0; i < m; ++i) {
        active[n_active] = static_cast<uint32_t>(i);
        pos[i] = hashes[i];
        ++n_active;
      }
      while (n_active > 0) {
        uint32_t n_next = 0;
        for (uint32_t a = 0; a < n_active; ++a) {
          const uint32_t lane = active[a];
          const int64_t slot = slot_keys[pos[lane]];
          if (slot == -1) continue;  // Chain end: lane retires.
          total += (slot == keys[base + lane]) ? 1 : 0;
          pos[lane] = (pos[lane] + 1) & mask;
          active[n_next++] = lane;
        }
        n_active = n_next;
      }
    }
    return total;
  }

  /// Emits (build id, probe row id) pairs for probe keys [0, n), writing
  /// sequentially from out_r/out_s (sized by a prior CountMatches). The
  /// probe row id is probe_ids[i] when probe_ids is non-null, else
  /// base_row + i. Emission order: probe-row order, chain order within a
  /// row — a fixed function of the inputs.
  void FillMatches(const int64_t* keys, const uint32_t* probe_ids, uint64_t n,
                   uint32_t base_row, uint32_t* out_r, uint32_t* out_s) const {
    uint64_t hashes[kBatchSize];
    uint64_t out = 0;
    for (uint64_t batch = 0; batch < n; batch += kBatchSize) {
      const uint64_t m = std::min(kBatchSize, n - batch);
      HashBatch(keys + batch, m, mask, hashes);
      for (uint64_t i = 0; i < m; ++i) {
        const int64_t key = keys[batch + i];
        const uint32_t row = probe_ids != nullptr
                                 ? probe_ids[batch + i]
                                 : base_row + static_cast<uint32_t>(batch + i);
        uint64_t h = hashes[i];
        while (slot_keys[h] != -1) {
          if (slot_keys[h] == key) {
            out_r[out] = slot_ids[h];
            out_s[out] = row;
            ++out;
          }
          h = (h + 1) & mask;
        }
      }
    }
  }
};

/// Gathers src[ids[i]] into dst[i] (tight loop; the compiler turns this
/// into vector gathers where profitable).
inline void GatherI64(const int64_t* src, const uint32_t* ids, uint64_t n,
                      int64_t* dst) {
  for (uint64_t i = 0; i < n; ++i) dst[i] = src[ids[i]];
}

/// Radix digit of a key for partitioning (low `bits` key bits, matching
/// the device partitioners).
inline uint32_t PartitionDigit(int64_t key, int bits) {
  return bit_util::RadixDigit(key, 0, bits);
}

/// Derives the partition-bit count for an n-row build side: partitions
/// sized to stay cache-resident (~kPartitionTargetRows each), clamped to
/// [1, kMaxPartitionBits].
inline constexpr uint64_t kPartitionTargetRows = 2048;
inline constexpr int kMaxPartitionBits = 12;

inline int DerivePartitionBits(uint64_t build_rows) {
  int bits = 1;
  while (bits < kMaxPartitionBits &&
         (build_rows >> bits) > kPartitionTargetRows) {
    ++bits;
  }
  return bits;
}

}  // namespace gpujoin::cpux

#endif  // GPUJOIN_CPUX_KERNELS_H_
