#include "join/semi.h"

#include <vector>

#include "common/bit_util.h"
#include "join/transform.h"
#include "prim/bucket_chain.h"
#include "prim/gather.h"
#include "prim/hash_join.h"
#include "prim/match.h"
#include "prim/merge_join.h"

namespace gpujoin::join {

namespace {

template <typename K>
Result<SemiJoinRunResult> SemiJoinDriver(vgpu::Device& device, JoinAlgo algo,
                                         const Table& r, const Table& s,
                                         SemiJoinType type,
                                         const JoinOptions& opts) {
  const vgpu::DeviceBuffer<K>* r_keys_ptr;
  const vgpu::DeviceBuffer<K>* s_keys_ptr;
  if constexpr (sizeof(K) == 4) {
    r_keys_ptr = &r.column(0).i32();
    s_keys_ptr = &s.column(0).i32();
  } else {
    r_keys_ptr = &r.column(0).i64();
    s_keys_ptr = &s.column(0).i64();
  }
  const vgpu::DeviceBuffer<K>& r_keys = *r_keys_ptr;
  const vgpu::DeviceBuffer<K>& s_keys = *s_keys_ptr;

  const auto [capacity, radix_bits, bits1, bits2, bucket_elems] =
      SizePartitions<K>(device, r.num_rows(), opts.radix_bits_override);

  SemiJoinRunResult res;
  const double t0 = device.ElapsedSeconds();

  // --- Transform (match-finding machinery only; S carries its row ids) ---
  vgpu::DeviceBuffer<K> tr_keys, ts_keys;
  vgpu::DeviceBuffer<RowId> ts_ids;
  std::vector<uint64_t> r_off, s_off;
  std::optional<prim::BucketChainLayout<K>> r_bc, s_bc;
  vgpu::DeviceBuffer<RowId> r_bc_ids, s_bc_ids;
  const bool is_smj = algo == JoinAlgo::kSmjUm || algo == JoinAlgo::kSmjOm;

  if (algo == JoinAlgo::kPhjUm) {
    GPUJOIN_ASSIGN_OR_RETURN(auto rl, prim::BuildBucketChainLayout(
                                          device, r_keys, bits1, bits2,
                                          bucket_elems));
    GPUJOIN_ASSIGN_OR_RETURN(auto sl, prim::BuildBucketChainLayout(
                                          device, s_keys, bits1, bits2,
                                          bucket_elems));
    GPUJOIN_ASSIGN_OR_RETURN(
        auto ids, vgpu::DeviceBuffer<RowId>::Allocate(device, s.num_rows()));
    GPUJOIN_RETURN_IF_ERROR(prim::Iota(device, &ids));
    GPUJOIN_ASSIGN_OR_RETURN(s_bc_ids,
                             prim::ApplyBucketChainToValues(device, sl, ids));
    r_bc.emplace(std::move(rl));
    s_bc.emplace(std::move(sl));
  } else if (algo != JoinAlgo::kNphj) {
    const TransformKind tkind =
        is_smj ? TransformKind::kSort : TransformKind::kPartition;
    GPUJOIN_RETURN_IF_ERROR(
        TransformKeysOutOfPlace(device, r_keys, &tr_keys, tkind, radix_bits));
    GPUJOIN_ASSIGN_OR_RETURN(
        auto s_ids, vgpu::DeviceBuffer<RowId>::Allocate(device, s.num_rows()));
    GPUJOIN_RETURN_IF_ERROR(prim::Iota(device, &s_ids));
    GPUJOIN_RETURN_IF_ERROR(TransformPairOutOfPlace(
        device, s_keys, s_ids, &ts_keys, &ts_ids, tkind, radix_bits));
    if (algo == JoinAlgo::kPhjOm) {
      GPUJOIN_RETURN_IF_ERROR(
          prim::ComputePartitionOffsets(device, tr_keys, radix_bits, &r_off));
      GPUJOIN_RETURN_IF_ERROR(
          prim::ComputePartitionOffsets(device, ts_keys, radix_bits, &s_off));
    }
  }
  const double t1 = device.ElapsedSeconds();
  res.phases.transform_s = t1 - t0;

  // --- Match finding + flag construction over original S row ids ---
  prim::MatchResult<K> match;
  switch (algo) {
    case JoinAlgo::kSmjUm:
    case JoinAlgo::kSmjOm: {
      GPUJOIN_ASSIGN_OR_RETURN(
          match, prim::MergeJoinSorted(device, tr_keys, ts_keys, opts.pk_fk));
      break;
    }
    case JoinAlgo::kPhjOm: {
      GPUJOIN_ASSIGN_OR_RETURN(
          match, prim::HashJoinCoPartitioned(device, tr_keys, ts_keys, r_off,
                                             s_off, capacity));
      break;
    }
    case JoinAlgo::kPhjUm: {
      GPUJOIN_ASSIGN_OR_RETURN(
          match, prim::HashJoinBucketChains(device, *r_bc, *s_bc, capacity));
      break;
    }
    case JoinAlgo::kNphj: {
      GPUJOIN_ASSIGN_OR_RETURN(match,
                               prim::HashJoinGlobal(device, r_keys, s_keys));
      break;
    }
  }

  // Scatter match flags into an |S|-sized vector indexed by ORIGINAL row id.
  GPUJOIN_ASSIGN_OR_RETURN(
      auto flags, vgpu::DeviceBuffer<uint8_t>::Allocate(device, s.num_rows()));
  {
    vgpu::KernelScope ks(device, "semi_flag_scatter");
    const int warp = device.config().warp_size;
    uint64_t addrs[32];
    uint64_t id_addrs[32];
    const uint64_t m = match.count();
    device.LoadSeq(match.s_pos.addr(), m, sizeof(RowId));
    // NPHJ emits original positions; the others map a match position back
    // to the original row id through the transformed id column.
    const vgpu::DeviceBuffer<RowId>* ids =
        algo == JoinAlgo::kNphj  ? nullptr
        : algo == JoinAlgo::kPhjUm ? &s_bc_ids
                                   : &ts_ids;
    for (uint64_t i = 0; i < m; i += warp) {
      const uint32_t lanes = static_cast<uint32_t>(std::min<uint64_t>(warp, m - i));
      for (uint32_t l = 0; l < lanes; ++l) {
        const RowId pos = match.s_pos[i + l];
        const RowId orig = ids == nullptr ? pos : (*ids)[pos];
        if (ids != nullptr) id_addrs[l] = ids->addr(pos);
        flags[orig] = 1;
        addrs[l] = flags.addr(orig);
      }
      if (ids != nullptr) device.Load({id_addrs, lanes}, sizeof(RowId));
      device.Store({addrs, lanes}, 1);
    }
  }
  match.keys.Release();
  match.r_pos.Release();
  match.s_pos.Release();
  tr_keys.Release();
  ts_keys.Release();
  ts_ids.Release();
  s_bc_ids.Release();
  if (r_bc.has_value()) r_bc->keys.Release();
  if (s_bc.has_value()) s_bc->keys.Release();
  const double t2 = device.ElapsedSeconds();
  res.phases.match_s = t2 - t1;

  // --- Compaction: ascending surviving row ids, then clustered gathers ---
  const uint8_t want = type == SemiJoinType::kSemi ? 1 : 0;
  std::vector<RowId> survivors;
  {
    vgpu::KernelScope ks(device, "semi_compact");
    device.LoadSeq(flags.addr(), flags.size(), 1);
    for (uint64_t i = 0; i < flags.size(); ++i) {
      if (flags[i] == want) survivors.push_back(static_cast<RowId>(i));
    }
    device.Compute(bit_util::CeilDiv(flags.size(), device.config().warp_size));
  }
  GPUJOIN_ASSIGN_OR_RETURN(
      auto map, vgpu::DeviceBuffer<RowId>::FromHost(device, survivors));
  {
    vgpu::KernelScope ks(device, "semi_write_map");
    device.StoreSeq(map.addr(), map.size(), sizeof(RowId));
  }
  std::vector<std::string> names;
  std::vector<DeviceColumn> cols;
  for (int c = 0; c < s.num_columns(); ++c) {
    GPUJOIN_ASSIGN_OR_RETURN(DeviceColumn col,
                             GatherColumn(device, s.column(c), map));
    names.push_back(s.column_name(c));
    cols.push_back(std::move(col));
  }
  res.output = Table::FromColumns(
      type == SemiJoinType::kSemi ? "semi_join_result" : "anti_join_result",
      std::move(names), std::move(cols));
  res.output_rows = survivors.size();
  res.phases.materialize_s = device.ElapsedSeconds() - t2;
  return res;
}

}  // namespace

Result<SemiJoinRunResult> RunSemiJoin(vgpu::Device& device, JoinAlgo algo,
                                      const Table& r, const Table& s,
                                      SemiJoinType type,
                                      const JoinOptions& options) {
  if (r.num_columns() < 1 || s.num_columns() < 1 || r.num_rows() == 0 ||
      s.num_rows() == 0) {
    return Status::InvalidArgument("RunSemiJoin: bad inputs");
  }
  if (r.column(0).type() != s.column(0).type()) {
    return Status::InvalidArgument("RunSemiJoin: key types differ");
  }
  if (r.column(0).type() == DataType::kInt32) {
    return SemiJoinDriver<int32_t>(device, algo, r, s, type, options);
  }
  return SemiJoinDriver<int64_t>(device, algo, r, s, type, options);
}

}  // namespace gpujoin::join
