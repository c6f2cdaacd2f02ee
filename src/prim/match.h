// Common output of the match-finding phase, and the emitter every match
// finder's write sweep goes through.
//
// Besides the matched key, each output row carries, per input side, what the
// join pattern needs downstream:
//  * its *position* in the (transformed) relation the finder consumed — a
//    virtual tuple identifier in the sense of §4.1. Wide joins translate
//    positions into physical IDs (GFUR) or gather with them directly (GFTR);
//    NPHJ keeps them as cuDF-style gather maps; semi joins flag with them.
//  * its *payload value*, for a narrow join whose single payload rode the
//    transform: the write sweep reads pay[pos] and emits the value, so there
//    is no position buffer and no gather (the paper's narrow path, Fig. 9).
//  * nothing, for a side without payload columns.

#ifndef GPUJOIN_PRIM_MATCH_H_
#define GPUJOIN_PRIM_MATCH_H_

#include <cstdint>
#include <utility>

#include "common/status.h"
#include "storage/column.h"
#include "storage/types.h"
#include "vgpu/buffer.h"
#include "vgpu/device.h"

namespace gpujoin::prim {

/// What a match finder's write sweep emits for one input side.
struct SideEmit {
  enum class Kind { kPositions, kPayload, kNothing };
  Kind kind = Kind::kPositions;
  /// kPayload: the side's payload, index-aligned with the side's key array
  /// (not owned; it must outlive the finder call).
  const DeviceColumn* payload = nullptr;

  static SideEmit Positions() { return {}; }
  static SideEmit Payload(const DeviceColumn& pay) {
    return {Kind::kPayload, &pay};
  }
  static SideEmit Nothing() { return {Kind::kNothing, nullptr}; }
};

/// Per-side requests of one match-finder call (default: positions for both).
struct MatchEmit {
  SideEmit r;
  SideEmit s;
};

template <typename K>
struct MatchResult {
  /// Matched key values, in output order.
  vgpu::DeviceBuffer<K> keys;
  /// Position of the R-/S-side match in the transformed relation (kPositions).
  vgpu::DeviceBuffer<RowId> r_pos;
  vgpu::DeviceBuffer<RowId> s_pos;
  /// The R-/S-side payload value of each match (kPayload).
  DeviceColumn r_pay;
  DeviceColumn s_pay;

  uint64_t count() const { return keys.size(); }
};

/// The write sweep's output: allocates the result, writes rows functionally
/// (disjoint ranges per thread block) and charges each block's output as
/// sequential store runs at each column's width.
template <typename K>
class MatchWriter {
 public:
  /// Allocates n output rows: keys, then R's column, then S's.
  static Result<MatchWriter> Create(vgpu::Device& device, uint64_t n,
                                    const MatchEmit& emit) {
    MatchWriter w(emit);
    GPUJOIN_ASSIGN_OR_RETURN(w.out_.keys,
                             vgpu::DeviceBuffer<K>::Allocate(device, n));
    GPUJOIN_RETURN_IF_ERROR(
        AllocateSide(device, n, emit.r, &w.out_.r_pos, &w.out_.r_pay));
    GPUJOIN_RETURN_IF_ERROR(
        AllocateSide(device, n, emit.s, &w.out_.s_pos, &w.out_.s_pay));
    return w;
  }

  /// Writes output row o: the key and, per side, position or payload value.
  void Put(uint64_t o, K key, uint64_t r, uint64_t s) {
    out_.keys[o] = key;
    PutSide(emit_.r, o, r, &out_.r_pos, &out_.r_pay);
    PutSide(emit_.s, o, s, &out_.s_pos, &out_.s_pay);
  }

  /// A streamed range of one side's keys [begin, begin + n): an emitted
  /// payload streams with them.
  void StreamR(vgpu::BlockContext& ctx, uint64_t begin, uint64_t n) const {
    Stream(ctx, emit_.r, begin, n);
  }
  void StreamS(vgpu::BlockContext& ctx, uint64_t begin, uint64_t n) const {
    Stream(ctx, emit_.s, begin, n);
  }

  /// Stores of output rows [begin, begin + len): one run per column.
  void Flush(vgpu::BlockContext& ctx, uint64_t begin, uint64_t len) const {
    if (len == 0) return;
    ctx.StoreSeq(out_.keys.addr(begin), len, sizeof(K));
    FlushSide(ctx, emit_.r, out_.r_pos, out_.r_pay, begin, len);
    FlushSide(ctx, emit_.s, out_.s_pos, out_.s_pay, begin, len);
  }

  MatchResult<K> Take() && { return std::move(out_); }

 private:
  explicit MatchWriter(const MatchEmit& emit) : emit_(emit) {}

  static Status AllocateSide(vgpu::Device& device, uint64_t n,
                             const SideEmit& e, vgpu::DeviceBuffer<RowId>* pos,
                             DeviceColumn* pay) {
    if (e.kind == SideEmit::Kind::kPositions) {
      GPUJOIN_ASSIGN_OR_RETURN(*pos,
                               vgpu::DeviceBuffer<RowId>::Allocate(device, n));
    } else if (e.kind == SideEmit::Kind::kPayload) {
      GPUJOIN_ASSIGN_OR_RETURN(
          *pay, DeviceColumn::Allocate(device, e.payload->type(), n));
    }
    return Status::OK();
  }

  static void PutSide(const SideEmit& e, uint64_t o, uint64_t p,
                      vgpu::DeviceBuffer<RowId>* pos, DeviceColumn* pay) {
    if (e.kind == SideEmit::Kind::kPositions) {
      (*pos)[o] = static_cast<RowId>(p);
    } else if (e.kind == SideEmit::Kind::kPayload) {
      if (pay->type() == DataType::kInt32) {
        pay->i32()[o] = e.payload->i32()[p];
      } else {
        pay->i64()[o] = e.payload->i64()[p];
      }
    }
  }

  static void Stream(vgpu::BlockContext& ctx, const SideEmit& e,
                     uint64_t begin, uint64_t n) {
    if (e.kind != SideEmit::Kind::kPayload || n == 0) return;
    ctx.LoadSeq(e.payload->addr(begin), n,
                static_cast<uint32_t>(DataTypeSize(e.payload->type())));
  }

  static void FlushSide(vgpu::BlockContext& ctx, const SideEmit& e,
                        const vgpu::DeviceBuffer<RowId>& pos,
                        const DeviceColumn& pay, uint64_t begin, uint64_t len) {
    if (e.kind == SideEmit::Kind::kPositions) {
      ctx.StoreSeq(pos.addr(begin), len, sizeof(RowId));
    } else if (e.kind == SideEmit::Kind::kPayload) {
      ctx.StoreSeq(pay.addr(begin), len,
                   static_cast<uint32_t>(DataTypeSize(pay.type())));
    }
  }

  MatchEmit emit_;
  MatchResult<K> out_;
};

/// Build-side payload reads of a hash join's write sweep: the value is read
/// where the match's build position was, one warp-level load of pay[pos] per
/// 32 emitted rows. The caller flushes at the end of every build chunk, so
/// each load's lanes stay clustered within the chunk.
class BuildPayloadLoads {
 public:
  BuildPayloadLoads(const SideEmit& e, vgpu::BlockContext& ctx, int warp)
      : pay_(e.kind == SideEmit::Kind::kPayload ? e.payload : nullptr),
        ctx_(ctx),
        warp_(static_cast<uint32_t>(warp)) {}

  void Add(uint64_t pos) {
    if (pay_ == nullptr) return;
    addrs_[lanes_++] = pay_->addr(pos);
    if (lanes_ == warp_) Flush();
  }

  void Flush() {
    if (lanes_ == 0) return;
    ctx_.Load({addrs_, lanes_},
              static_cast<uint32_t>(DataTypeSize(pay_->type())));
    lanes_ = 0;
  }

 private:
  const DeviceColumn* pay_;
  vgpu::BlockContext& ctx_;
  uint32_t warp_;
  uint32_t lanes_ = 0;
  uint64_t addrs_[32] = {};
};

}  // namespace gpujoin::prim

#endif  // GPUJOIN_PRIM_MATCH_H_
