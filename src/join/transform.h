// Transformation-phase helpers shared by the join drivers: out-of-place
// sort/partition of a (key, value) column pair, leaving the source relation
// untouched (it is still needed by GFUR materialization), plus typed
// column gather utilities.

#ifndef GPUJOIN_JOIN_TRANSFORM_H_
#define GPUJOIN_JOIN_TRANSFORM_H_

#include <algorithm>
#include <utility>
#include <vector>

#include "common/bit_util.h"
#include "common/status.h"
#include "prim/gather.h"
#include "prim/hash_join.h"
#include "prim/radix_partition.h"
#include "storage/column.h"
#include "vgpu/buffer.h"
#include "vgpu/device.h"

namespace gpujoin::join {

/// How a relation is transformed before match finding.
enum class TransformKind {
  kSort,       // SORT-PAIRS: full-key-width LSD radix sort (SMJ).
  kPartition,  // RADIX-PARTITION: low `radix_bits` only (PHJ-OM).
};

/// Key bits a transform groups by: the full key width (kSort) or the low
/// radix_bits (kPartition).
template <typename K>
int TransformBits(TransformKind kind, int radix_bits) {
  return kind == TransformKind::kSort ? static_cast<int>(sizeof(K)) * 8
                                      : radix_bits;
}

/// Out-of-place stable radix transform of (src_keys, src_vals) into
/// (*out_keys, *out_vals), leaving the source relation untouched (GFUR
/// materialization still reads it). discard_keys and hist are
/// prim::RadixPartition's: re-transforms of the same key column pass back
/// the histograms of the first one.
template <typename K, typename V>
Status TransformPairOutOfPlace(vgpu::Device& device,
                               const vgpu::DeviceBuffer<K>& src_keys,
                               const vgpu::DeviceBuffer<V>& src_vals,
                               vgpu::DeviceBuffer<K>* out_keys,
                               vgpu::DeviceBuffer<V>* out_vals,
                               TransformKind kind, int radix_bits,
                               bool discard_keys = false,
                               prim::RadixHistograms* hist = nullptr) {
  return prim::RadixPartition(device, src_keys, &src_vals, out_keys, out_vals,
                              0, TransformBits<K>(kind, radix_bits),
                              discard_keys, hist);
}

/// Keys-only transform: the same order, with no value stream.
template <typename K>
Status TransformKeysOutOfPlace(vgpu::Device& device,
                               const vgpu::DeviceBuffer<K>& src_keys,
                               vgpu::DeviceBuffer<K>* out_keys,
                               TransformKind kind, int radix_bits,
                               prim::RadixHistograms* hist = nullptr) {
  return prim::RadixPartition<K, K>(device, src_keys, nullptr, out_keys,
                                    nullptr, 0,
                                    TransformBits<K>(kind, radix_bits),
                                    /*discard_keys=*/false, hist);
}

/// Visits the typed buffer inside a DeviceColumn.
template <typename Fn>
auto VisitColumn(const DeviceColumn& col, Fn&& fn) {
  if (col.type() == DataType::kInt32) return fn(col.i32());
  return fn(col.i64());
}
template <typename Fn>
auto VisitColumnMut(DeviceColumn& col, Fn&& fn) {
  if (col.type() == DataType::kInt32) return fn(col.i32());
  return fn(col.i64());
}

/// Transforms (src_keys, payload column) out of place. The transformed
/// payload is returned as a DeviceColumn of the same type; *t_keys gets the
/// transformed keys.
template <typename K>
Result<DeviceColumn> TransformKeyPayload(vgpu::Device& device,
                                         const vgpu::DeviceBuffer<K>& src_keys,
                                         const DeviceColumn& payload,
                                         vgpu::DeviceBuffer<K>* t_keys,
                                         TransformKind kind, int radix_bits,
                                         bool discard_keys = false,
                                         prim::RadixHistograms* hist = nullptr) {
  if (payload.type() == DataType::kInt32) {
    vgpu::DeviceBuffer<int32_t> t_payload;
    GPUJOIN_RETURN_IF_ERROR(TransformPairOutOfPlace(
        device, src_keys, payload.i32(), t_keys, &t_payload, kind, radix_bits,
        discard_keys, hist));
    return DeviceColumn::WrapI32(std::move(t_payload));
  }
  vgpu::DeviceBuffer<int64_t> t_payload;
  GPUJOIN_RETURN_IF_ERROR(TransformPairOutOfPlace(
      device, src_keys, payload.i64(), t_keys, &t_payload, kind, radix_bits,
      discard_keys, hist));
  return DeviceColumn::WrapI64(std::move(t_payload));
}

/// Gathers src[map[i]] into an existing column (same type, size == map size).
inline Status GatherColumnInto(vgpu::Device& device, const DeviceColumn& src,
                               const vgpu::DeviceBuffer<RowId>& map,
                               DeviceColumn* out) {
  if (out->type() != src.type() || out->size() != map.size()) {
    return Status::InvalidArgument("GatherColumnInto: shape mismatch");
  }
  if (src.type() == DataType::kInt32) {
    return prim::Gather(device, src.i32(), map, &out->i32());
  }
  return prim::Gather(device, src.i64(), map, &out->i64());
}

/// Gathers src[map[i]] into a fresh column of src's type.
inline Result<DeviceColumn> GatherColumn(vgpu::Device& device,
                                         const DeviceColumn& src,
                                         const vgpu::DeviceBuffer<RowId>& map) {
  if (src.type() == DataType::kInt32) {
    GPUJOIN_ASSIGN_OR_RETURN(
        auto out, vgpu::DeviceBuffer<int32_t>::Allocate(device, map.size()));
    GPUJOIN_RETURN_IF_ERROR(prim::Gather(device, src.i32(), map, &out));
    return DeviceColumn::WrapI32(std::move(out));
  }
  GPUJOIN_ASSIGN_OR_RETURN(
      auto out, vgpu::DeviceBuffer<int64_t>::Allocate(device, map.size()));
  GPUJOIN_RETURN_IF_ERROR(prim::Gather(device, src.i64(), map, &out));
  return DeviceColumn::WrapI64(std::move(out));
}

/// Number of radix bits for the partitioned hash joins: enough bits that the
/// average build partition fits the shared-memory hash table, clamped to the
/// paper's 16-bit two-invocation budget.
template <typename K>
int ChoosePartitionBits(uint64_t build_rows, uint64_t capacity) {
  if (build_rows <= capacity) return 1;
  int bits = bit_util::Log2Ceil(bit_util::CeilDiv(build_rows, capacity));
  return std::clamp(bits, 1, 16);
}

/// How the partitioned joins partition: the shared-memory hash-table
/// capacity, the total radix bits (ChoosePartitionBits unless overridden,
/// at most 16), their split over the two passes (at most 8 bits each), and
/// PHJ-UM's chain bucket size.
struct PartitionSizing {
  uint64_t capacity = 0;
  int radix_bits = 0;
  int bits1 = 0;
  int bits2 = 0;
  uint32_t bucket_elems = 0;
};

/// `radix_bits_override` > 0 replaces the derived total bits.
template <typename K>
PartitionSizing SizePartitions(const vgpu::Device& device, uint64_t build_rows,
                               int radix_bits_override) {
  PartitionSizing p;
  p.capacity = prim::SharedHashCapacity<K>(device);
  p.radix_bits = std::min(radix_bits_override > 0
                              ? radix_bits_override
                              : ChoosePartitionBits<K>(build_rows, p.capacity),
                          16);
  p.bits1 = std::min(8, std::max(1, (p.radix_bits + 1) / 2));
  p.bits2 = std::min(8, p.radix_bits - p.bits1);
  p.bucket_elems = static_cast<uint32_t>(std::min<uint64_t>(p.capacity, 4096));
  return p;
}

}  // namespace gpujoin::join

#endif  // GPUJOIN_JOIN_TRANSFORM_H_
