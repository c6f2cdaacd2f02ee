#include "groupby/groupby.h"

#include <algorithm>
#include <bit>
#include <limits>
#include <map>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/bit_util.h"
#include "join/transform.h"
#include "obs/trace.h"
#include "prim/hash.h"
#include "prim/radix_partition.h"

namespace gpujoin::groupby {

const char* GroupByAlgoName(GroupByAlgo algo) {
  switch (algo) {
    case GroupByAlgo::kHashGlobal:
      return "GB-HASH-GLOBAL";
    case GroupByAlgo::kHashPartitioned:
      return "GB-HASH-PART";
    case GroupByAlgo::kSortBased:
      return "GB-SORT";
  }
  return "?";
}

const char* AggOpName(AggOp op) {
  switch (op) {
    case AggOp::kSum:
      return "sum";
    case AggOp::kCount:
      return "count";
    case AggOp::kMin:
      return "min";
    case AggOp::kMax:
      return "max";
    case AggOp::kAvg:
      return "avg";
  }
  return "?";
}

uint64_t HashGlobalSlots(uint64_t estimated_groups) {
  return bit_util::NextPowerOfTwo(std::max<uint64_t>(estimated_groups * 3, 64));
}

uint64_t DirectMapSlots(const stats::KeyStats& keys) {
  if (keys.min > keys.max) return 0;
  // Unsigned difference: exact even where max - min overflows int64.
  const uint64_t span =
      static_cast<uint64_t>(keys.max) - static_cast<uint64_t>(keys.min);
  const uint64_t slots = HashGlobalSlots(keys.distinct);
  return span < slots ? span + 1 : 0;
}

namespace {

/// Functional accumulator for one group.
struct GroupAcc {
  int64_t count = 0;
  std::vector<int64_t> sum;  // Per aggregate (sum semantics; min/max in place).
  bool initialized = false;
};

void UpdateAcc(GroupAcc* acc, const GroupBySpec& spec,
               const std::vector<int64_t>& agg_values) {
  if (!acc->initialized) {
    acc->sum.assign(spec.aggregates.size(), 0);
    for (size_t a = 0; a < spec.aggregates.size(); ++a) {
      switch (spec.aggregates[a].op) {
        case AggOp::kMin:
          acc->sum[a] = std::numeric_limits<int64_t>::max();
          break;
        case AggOp::kMax:
          acc->sum[a] = std::numeric_limits<int64_t>::min();
          break;
        default:
          acc->sum[a] = 0;
      }
    }
    acc->initialized = true;
  }
  ++acc->count;
  for (size_t a = 0; a < spec.aggregates.size(); ++a) {
    const int64_t v = agg_values[a];
    switch (spec.aggregates[a].op) {
      case AggOp::kSum:
      case AggOp::kAvg:
        acc->sum[a] += v;
        break;
      case AggOp::kCount:
        break;  // Count tracked separately.
      case AggOp::kMin:
        acc->sum[a] = std::min(acc->sum[a], v);
        break;
      case AggOp::kMax:
        acc->sum[a] = std::max(acc->sum[a], v);
        break;
    }
  }
}

int64_t FinalizeAcc(const GroupAcc& acc, const GroupBySpec& spec, size_t a) {
  switch (spec.aggregates[a].op) {
    case AggOp::kCount:
      return acc.count;
    case AggOp::kAvg:
      return acc.count == 0 ? 0 : acc.sum[a] / acc.count;
    default:
      return acc.sum[a];
  }
}

/// Bytes of one hash-table slot: key + one 8-byte accumulator per aggregate
/// (+ a count cell when any aggregate needs it).
uint64_t SlotBytes(DataType key_type, const GroupBySpec& spec) {
  bool needs_count = false;
  for (const AggSpec& a : spec.aggregates) {
    if (a.op == AggOp::kCount || a.op == AggOp::kAvg) needs_count = true;
  }
  return DataTypeSize(key_type) + 8 * spec.aggregates.size() +
         (needs_count ? 8 : 0);
}

Status ValidateSpec(const Table& input, const GroupBySpec& spec) {
  for (const AggSpec& a : spec.aggregates) {
    if (a.op == AggOp::kCount) continue;
    if (a.column < 1 || a.column >= input.num_columns()) {
      return Status::InvalidArgument("aggregate references column " +
                                     std::to_string(a.column) +
                                     " out of range");
    }
  }
  return Status::OK();
}

/// Groups as (key, accumulator) in output order.
using Groups = std::vector<std::pair<int64_t, GroupAcc>>;

/// Emits the final output table from an ordered list of (key, acc).
Result<Table> EmitOutput(vgpu::Device& device, const Table& input,
                         const GroupBySpec& spec,
                         const Groups& groups) {
  const uint64_t g = groups.size();
  vgpu::AllocTagScope tag(device, "groupby:emit");
  std::vector<std::string> names;
  std::vector<DeviceColumn> cols;
  GPUJOIN_ASSIGN_OR_RETURN(
      DeviceColumn key_col,
      DeviceColumn::Allocate(device, input.column(0).type(), g));
  for (uint64_t i = 0; i < g; ++i) key_col.Set(i, groups[i].first);
  {
    vgpu::KernelScope ks(device, "groupby_emit");
    device.StoreSeq(key_col.addr(), g, DataTypeSize(key_col.type()));
  }
  names.push_back(input.column_name(0));
  cols.push_back(std::move(key_col));
  for (size_t a = 0; a < spec.aggregates.size(); ++a) {
    GPUJOIN_ASSIGN_OR_RETURN(DeviceColumn col,
                             DeviceColumn::Allocate(device, DataType::kInt64, g));
    for (uint64_t i = 0; i < g; ++i) {
      col.Set(i, FinalizeAcc(groups[i].second, spec, a));
    }
    {
      vgpu::KernelScope ks(device, "groupby_emit");
      device.StoreSeq(col.addr(), g, 8);
    }
    std::string name = AggOpName(spec.aggregates[a].op);
    if (spec.aggregates[a].op != AggOp::kCount) {
      name += "_" + input.column_name(spec.aggregates[a].column);
    }
    names.push_back(std::move(name));
    cols.push_back(std::move(col));
  }
  return Table::FromColumns("groupby_result", std::move(names), std::move(cols));
}

/// Distinct input columns the aggregates read (count-only needs none).
std::vector<int> NeededColumns(const GroupBySpec& spec) {
  std::vector<int> cols;
  for (const AggSpec& a : spec.aggregates) {
    if (a.op == AggOp::kCount) continue;
    if (std::find(cols.begin(), cols.end(), a.column) == cols.end()) {
      cols.push_back(a.column);
    }
  }
  return cols;
}

/// Reads row i's aggregate inputs from the transformed columns (parallel to
/// `needed`); count aggregates read 0.
void ReadAggValues(const GroupBySpec& spec, const std::vector<int>& needed,
                   const std::vector<DeviceColumn>& t_cols, uint64_t i,
                   std::vector<int64_t>* agg_values) {
  for (size_t a = 0; a < spec.aggregates.size(); ++a) {
    const AggSpec& as = spec.aggregates[a];
    if (as.op == AggOp::kCount) {
      (*agg_values)[a] = 0;
      continue;
    }
    const auto it = std::find(needed.begin(), needed.end(), as.column);
    (*agg_values)[a] = t_cols[it - needed.begin()].Get(i);
  }
}

/// Transform (GFTR style): reorders the key together with every aggregate
/// column in `needed`; stability keeps all transformed columns aligned, and
/// columns 2..n reuse the first transform's key histograms. A count-only
/// spec transforms the key alone.
template <typename K>
Status TransformInput(vgpu::Device& device, const Table& input,
                      const std::vector<int>& needed, join::TransformKind kind,
                      int bits, vgpu::DeviceBuffer<K>* t_keys,
                      std::vector<DeviceColumn>* t_cols) {
  const vgpu::DeviceBuffer<K>* key_buf;
  if constexpr (sizeof(K) == 4) {
    key_buf = &input.column(0).i32();
  } else {
    key_buf = &input.column(0).i64();
  }
  if (needed.empty()) {
    return join::TransformKeysOutOfPlace(device, *key_buf, t_keys, kind, bits);
  }
  prim::RadixHistograms hist;
  for (size_t c = 0; c < needed.size(); ++c) {
    vgpu::DeviceBuffer<K> t_keys_c;
    GPUJOIN_ASSIGN_OR_RETURN(
        DeviceColumn t_col,
        join::TransformKeyPayload(device, *key_buf, input.column(needed[c]),
                                  &t_keys_c, kind, bits,
                                  /*discard_keys=*/false, &hist));
    t_cols->push_back(std::move(t_col));
    if (c == 0) {
      *t_keys = std::move(t_keys_c);
    } else {
      t_keys_c.Release();
    }
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// HASH-GLOBAL
// ---------------------------------------------------------------------------

Result<Groups> HashGlobalAggregate(vgpu::Device& device, const Table& input,
                                   const GroupBySpec& spec,
                                   const stats::KeyStats& keys) {
  vgpu::AllocTagScope tag(device, "groupby:hash_global");
  obs::TraceSpan aggregate_span(device, "phase", "aggregate");
  const uint64_t n = input.num_rows();
  const int warp = device.config().warp_size;
  // A dense key range indexes the accumulators directly (slot = key - min):
  // no key array, no probing, and the slot of every row is a function of its
  // key alone. Otherwise a linear-probe table sized from the distinct
  // estimate.
  const uint64_t direct_slots = DirectMapSlots(keys);
  const bool direct = direct_slots > 0;
  const uint64_t table_size =
      direct ? direct_slots : HashGlobalSlots(keys.distinct);
  const uint64_t mask = table_size - 1;
  const uint64_t n_acc = spec.aggregates.size() + 1;  // + count cell.
  aggregate_span.Annotate("table", direct ? "direct" : "hashed");
  aggregate_span.Annotate("slots", std::to_string(table_size));

  vgpu::DeviceBuffer<int64_t> slot_keys;
  if (!direct) {
    GPUJOIN_ASSIGN_OR_RETURN(
        slot_keys, vgpu::DeviceBuffer<int64_t>::Allocate(device, table_size));
  }
  GPUJOIN_ASSIGN_OR_RETURN(
      auto slot_accs,
      vgpu::DeviceBuffer<int64_t>::Allocate(device, table_size * n_acc));
  // Functional accumulators; a slot is live once initialized.
  std::vector<GroupAcc> accs(table_size);

  std::vector<int64_t> agg_values(spec.aggregates.size(), 0);
  // Updates to the SAME group's accumulators serialize at the L2 atomic
  // unit across the whole device; the hottest group is a critical path.
  uint64_t max_group_freq = 0;
  {
    std::unordered_map<int64_t, uint64_t> freq;
    for (uint64_t i = 0; i < n; ++i) ++freq[input.column(0).Get(i)];
    for (const auto& [k, c] : freq) max_group_freq = std::max(max_group_freq, c);
  }
  {
    // This kernel stays on the sequential simulation path even under
    // GPUJOIN_SIM_THREADS > 1, so its accesses see the whole device L2. The
    // hashed table's linear-probe layout (and therefore every probe's
    // address trace) also depends on insertion order, so its tuples cannot
    // be re-sharded without changing the simulated stats.
    vgpu::KernelScope ks(device, "gb_hash_global_update");
    // Warp-aggregated atomics (the compiler combines same-address atomicAdds
    // within a warp): the device-wide serialization chain on the hottest
    // group is one aggregated atomic per warp that touches it.
    constexpr double kSameAddressAtomicCycles = 4.0;
    device.SerialStall(static_cast<double>(max_group_freq) /
                       device.config().warp_size *
                       static_cast<double>(n_acc) * kSameAddressAtomicCycles);
    // Key and aggregate-input columns are fully coalesced sequential
    // streams: charge them as bulk runs up front. Only the probe/update
    // traffic depends on each key and stays per-warp.
    device.LoadSeq(input.column(0).addr(), n,
                   static_cast<uint32_t>(DataTypeSize(input.column(0).type())));
    for (int c : NeededColumns(spec)) {
      device.LoadSeq(input.column(c).addr(), n,
                     static_cast<uint32_t>(DataTypeSize(input.column(c).type())));
    }
    uint64_t probe_addrs[32];
    uint64_t acc_addrs[32];
    for (uint64_t i = 0; i < n; i += warp) {
      const uint32_t lanes = static_cast<uint32_t>(std::min<uint64_t>(warp, n - i));
      for (uint32_t l = 0; l < lanes; ++l) {
        const int64_t key = input.column(0).Get(i + l);
        uint64_t h;
        if (direct) {
          h = static_cast<uint64_t>(key) - static_cast<uint64_t>(keys.min);
        } else {
          h = prim::HashToSlot(key, mask);
          uint64_t steps = 1;
          while (accs[h].initialized && slot_keys[h] != key) {
            h = (h + 1) & mask;
            if (++steps > table_size) {
              return Status::Internal(
                  "hash group-by table overflow (cardinality estimate too low)");
            }
          }
          slot_keys[h] = key;
          probe_addrs[l] = slot_keys.addr(h);
          if (steps > 1) device.Compute(steps - 1);
        }
        acc_addrs[l] = slot_accs.addr(h * n_acc);
        for (size_t a = 0; a < spec.aggregates.size(); ++a) {
          const AggSpec& as = spec.aggregates[a];
          agg_values[a] = as.op == AggOp::kCount ? 0 : input.column(as.column).Get(i + l);
        }
        UpdateAcc(&accs[h], spec, agg_values);
      }
      // Probe loads (hashed table only) + one warp-aggregated atomic RMW per
      // aggregate cell.
      if (!direct) device.Load({probe_addrs, lanes}, sizeof(int64_t));
      for (uint64_t a = 0; a < n_acc; ++a) {
        device.Store({acc_addrs, lanes}, sizeof(int64_t));
        device.Compute(1);
      }
    }
  }

  // Compact: scan the table, gather live slots (a direct-mapped table's are
  // those with count > 0, already in key order).
  Groups groups;
  groups.reserve(keys.distinct);
  {
    vgpu::KernelScope ks(device, "gb_hash_global_compact");
    if (!direct) device.LoadSeq(slot_keys.addr(), table_size, sizeof(int64_t));
    device.LoadSeq(slot_accs.addr(), table_size * n_acc, sizeof(int64_t));
    for (uint64_t h = 0; h < table_size; ++h) {
      if (!accs[h].initialized) continue;
      const int64_t key =
          direct ? static_cast<int64_t>(static_cast<uint64_t>(keys.min) + h)
                 : slot_keys[h];
      groups.emplace_back(key, std::move(accs[h]));
    }
    device.Compute(bit_util::CeilDiv(table_size, warp));
  }
  return groups;
}

// ---------------------------------------------------------------------------
// HASH-PARTITIONED (GFTR applied to aggregation)
// ---------------------------------------------------------------------------

template <typename K>
Result<Groups> HashPartitionedAggregate(vgpu::Device& device,
                                        const Table& input,
                                        const GroupBySpec& spec,
                                        const GroupByOptions& opts,
                                        const stats::KeyStats& keys,
                                        double* transform_seconds) {
  vgpu::AllocTagScope tag(device, "groupby:hash_part");
  const int warp = device.config().warp_size;
  const uint64_t slot_bytes = SlotBytes(input.column(0).type(), spec);
  const uint64_t capacity = std::max<uint64_t>(
      device.config().shared_mem_per_block_bytes / slot_bytes / 2, 16);
  const uint64_t g = keys.distinct;
  int bits = opts.radix_bits_override > 0
                 ? opts.radix_bits_override
                 : std::clamp(bit_util::Log2Ceil(bit_util::CeilDiv(g, capacity)),
                              1, 16);

  const double t0 = device.ElapsedSeconds();
  const std::vector<int> needed = NeededColumns(spec);
  vgpu::DeviceBuffer<K> t_keys;
  std::vector<DeviceColumn> t_cols;  // Parallel to `needed`.
  std::vector<uint64_t> offsets;
  {
    obs::TraceSpan transform_span(device, "phase", "transform");
    GPUJOIN_RETURN_IF_ERROR(TransformInput<K>(device, input, needed,
                                              join::TransformKind::kPartition,
                                              bits, &t_keys, &t_cols));
    GPUJOIN_RETURN_IF_ERROR(
        prim::ComputePartitionOffsets(device, t_keys, bits, &offsets));
  }
  *transform_seconds = device.ElapsedSeconds() - t0;

  // Aggregate each partition in a shared-memory table. Partitions whose
  // distinct-group count exceeds the capacity are processed in extra passes
  // (charged below); functionally a map per partition keeps it exact.
  Groups groups;
  groups.reserve(g);
  obs::TraceSpan aggregate_span(device, "phase", "aggregate");
  {
    // One partition per thread block: each block owns its shared-memory
    // table image and emits into its own slot of part_groups, so the blocks
    // are independent and the concatenation (partition order, key order
    // within a partition) is deterministic.
    vgpu::KernelScope ks(device, "gb_hash_part_aggregate");
    const uint32_t fanout = 1u << bits;
    std::vector<Groups> part_groups(fanout);
    GPUJOIN_RETURN_IF_ERROR(device.ParallelBlocks(
        fanout, [&](uint64_t p, vgpu::BlockContext& ctx) -> Status {
          const uint64_t pb = offsets[p], pe = offsets[p + 1];
          if (pb == pe) return Status::OK();
          std::unordered_map<int64_t, GroupAcc> local;
          std::vector<int64_t> agg_values(spec.aggregates.size(), 0);
          ctx.LoadSeq(t_keys.addr(pb), pe - pb, sizeof(K));
          for (const DeviceColumn& col : t_cols) {
            ctx.LoadSeq(col.addr(pb), pe - pb,
                        static_cast<uint32_t>(DataTypeSize(col.type())));
          }
          ctx.SharedAccess(bit_util::CeilDiv(pe - pb, warp) *
                           (1 + spec.aggregates.size()));
          for (uint64_t i = pb; i < pe; ++i) {
            ReadAggValues(spec, needed, t_cols, i, &agg_values);
            UpdateAcc(&local[static_cast<int64_t>(t_keys[i])], spec, agg_values);
          }
          // Overflow passes: every extra capacity-chunk of distinct groups
          // re-streams this partition (block-nested-loop analog).
          const uint64_t passes = bit_util::CeilDiv(
              std::max<uint64_t>(local.size(), 1), capacity);
          for (uint64_t extra = 1; extra < passes; ++extra) {
            ctx.LoadSeq(t_keys.addr(pb), pe - pb, sizeof(K));
            for (const DeviceColumn& col : t_cols) {
              ctx.LoadSeq(col.addr(pb), pe - pb,
                          static_cast<uint32_t>(DataTypeSize(col.type())));
            }
          }
          // Emit this partition's groups in key order (deterministic).
          std::map<int64_t, GroupAcc> ordered;
          for (auto& [key, acc] : local) ordered.emplace(key, std::move(acc));
          for (auto& [key, acc] : ordered) {
            part_groups[p].emplace_back(key, std::move(acc));
          }
          return Status::OK();
        }));
    for (auto& pg : part_groups) {
      for (auto& kv : pg) groups.emplace_back(kv.first, std::move(kv.second));
    }
  }
  return groups;
}

// ---------------------------------------------------------------------------
// SORT-BASED
// ---------------------------------------------------------------------------

template <typename K>
Result<Groups> SortAggregate(vgpu::Device& device, const Table& input,
                             const GroupBySpec& spec,
                             const stats::KeyStats& keys,
                             double* transform_seconds) {
  vgpu::AllocTagScope tag(device, "groupby:sort");
  const uint64_t n = input.num_rows();
  const int warp = device.config().warp_size;
  // Non-negative keys below 2^b are fully ordered by a stable LSD partition
  // over their low b bits: the bounded sort returns the full-width sort's
  // rows in the same order. Negative keys keep the full-width SORT-PAIRS.
  const bool bounded = keys.min >= 0;
  const int sort_bits =
      bounded ? std::max(1, static_cast<int>(std::bit_width(
                                 static_cast<uint64_t>(keys.max))))
              : static_cast<int>(sizeof(K)) * 8;

  const double t0 = device.ElapsedSeconds();
  const std::vector<int> needed = NeededColumns(spec);
  vgpu::DeviceBuffer<K> t_keys;
  std::vector<DeviceColumn> t_cols;
  {
    obs::TraceSpan transform_span(device, "phase", "transform");
    transform_span.Annotate("sort_bits", std::to_string(sort_bits));
    GPUJOIN_RETURN_IF_ERROR(TransformInput<K>(
        device, input, needed,
        bounded ? join::TransformKind::kPartition : join::TransformKind::kSort,
        sort_bits, &t_keys, &t_cols));
  }
  *transform_seconds = device.ElapsedSeconds() - t0;

  // Segmented reduction over equal-key runs (purely sequential).
  Groups groups;
  std::vector<int64_t> agg_values(spec.aggregates.size(), 0);
  obs::TraceSpan aggregate_span(device, "phase", "aggregate");
  {
    vgpu::KernelScope ks(device, "gb_sort_reduce");
    // The streaming (loads + per-warp reduction work) is tile-parallel;
    // the run detection below is functional only (carries across tiles),
    // so it runs on the calling thread and charges nothing.
    const uint64_t kTile = 4096;
    const uint64_t n_tiles = bit_util::CeilDiv(n, kTile);
    GPUJOIN_RETURN_IF_ERROR(device.ParallelBlocks(
        n_tiles, [&](uint64_t tile, vgpu::BlockContext& ctx) -> Status {
          const uint64_t begin = tile * kTile;
          const uint64_t tile_n = std::min(kTile, n - begin);
          ctx.LoadSeq(t_keys.addr(begin), tile_n, sizeof(K));
          for (const DeviceColumn& col : t_cols) {
            ctx.LoadSeq(col.addr(begin), tile_n,
                        static_cast<uint32_t>(DataTypeSize(col.type())));
          }
          ctx.Compute(bit_util::CeilDiv(tile_n, warp) *
                      (1 + spec.aggregates.size()));
          return Status::OK();
        }));
    uint64_t run_start = 0;
    for (uint64_t i = 0; i <= n; ++i) {
      if (i == n || (i > 0 && t_keys[i] != t_keys[run_start])) {
        GroupAcc acc;
        for (uint64_t j = run_start; j < i; ++j) {
          ReadAggValues(spec, needed, t_cols, j, &agg_values);
          UpdateAcc(&acc, spec, agg_values);
        }
        groups.emplace_back(static_cast<int64_t>(t_keys[run_start]),
                            std::move(acc));
        run_start = i;
      }
    }
  }
  return groups;
}

template <typename K>
Result<GroupByRunResult> GroupByDriver(vgpu::Device& device, GroupByAlgo algo,
                                       const Table& input, const GroupBySpec& spec,
                                       const GroupByOptions& opts) {
  device.ResetPeakMemory();
  GroupByRunResult res;
  const vgpu::KernelStats stats_before = device.total_stats();
  obs::TraceSpan query_span(device, "query",
                            std::string("groupby:") + GroupByAlgoName(algo));
  query_span.Annotate("algo", GroupByAlgoName(algo));
  query_span.Annotate("rows", std::to_string(input.num_rows()));
  const double t0 = device.ElapsedSeconds();
  double transform_s = 0;

  // One key scan sizes every strategy: distinct count and key range.
  stats::KeyStats keys;
  {
    obs::TraceSpan estimate_span(device, "phase", "estimate");
    GPUJOIN_ASSIGN_OR_RETURN(keys,
                             stats::EstimateKeyStats(device, input.column(0)));
  }
  Groups groups;
  switch (algo) {
    case GroupByAlgo::kHashGlobal: {
      GPUJOIN_ASSIGN_OR_RETURN(groups,
                               HashGlobalAggregate(device, input, spec, keys));
      break;
    }
    case GroupByAlgo::kHashPartitioned: {
      GPUJOIN_ASSIGN_OR_RETURN(
          groups, HashPartitionedAggregate<K>(device, input, spec, opts, keys,
                                              &transform_s));
      break;
    }
    case GroupByAlgo::kSortBased: {
      GPUJOIN_ASSIGN_OR_RETURN(
          groups, SortAggregate<K>(device, input, spec, keys, &transform_s));
      break;
    }
  }
  const double t1 = device.ElapsedSeconds();
  GPUJOIN_RETURN_IF_ERROR(obs::CheckLifecycle(device));
  {
    obs::TraceSpan emit_span(device, "phase", "emit");
    GPUJOIN_ASSIGN_OR_RETURN(res.output,
                             EmitOutput(device, input, spec, groups));
  }
  const double t2 = device.ElapsedSeconds();
  GPUJOIN_RETURN_IF_ERROR(obs::CheckLifecycle(device));

  res.phases.transform_s = transform_s;
  res.phases.match_s = (t1 - t0) - transform_s;
  res.phases.materialize_s = t2 - t1;
  res.num_groups = groups.size();
  res.peak_mem_bytes = device.memory_stats().peak_bytes;
  res.stats = device.total_stats();
  res.stats.Sub(stats_before);
  const double total = t2 - t0;
  res.throughput_tuples_per_sec =
      total > 0 ? static_cast<double>(input.num_rows()) / total : 0;
  return res;
}

}  // namespace

Result<GroupByRunResult> RunGroupBy(vgpu::Device& device, GroupByAlgo algo,
                                    const Table& input, const GroupBySpec& spec,
                                    const GroupByOptions& options) {
  if (input.num_columns() < 1 || input.num_rows() == 0) {
    return Status::InvalidArgument("RunGroupBy: empty input");
  }
  GPUJOIN_RETURN_IF_ERROR(ValidateSpec(input, spec));
  GPUJOIN_RETURN_IF_ERROR(obs::CheckLifecycle(device));
  if (input.column(0).type() == DataType::kInt32) {
    return GroupByDriver<int32_t>(device, algo, input, spec, options);
  }
  return GroupByDriver<int64_t>(device, algo, input, spec, options);
}

}  // namespace gpujoin::groupby
