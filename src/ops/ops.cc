#include "ops/ops.h"

#include <algorithm>

#include "common/bit_util.h"
#include "join/transform.h"
#include "prim/gather.h"

namespace gpujoin::ops {

const char* CmpOpName(CmpOp op) {
  switch (op) {
    case CmpOp::kEq:
      return "==";
    case CmpOp::kNe:
      return "!=";
    case CmpOp::kLt:
      return "<";
    case CmpOp::kLe:
      return "<=";
    case CmpOp::kGt:
      return ">";
    case CmpOp::kGe:
      return ">=";
  }
  return "?";
}

bool EvalPredicate(const Predicate& pred, int64_t value) {
  switch (pred.op) {
    case CmpOp::kEq:
      return value == pred.literal;
    case CmpOp::kNe:
      return value != pred.literal;
    case CmpOp::kLt:
      return value < pred.literal;
    case CmpOp::kLe:
      return value <= pred.literal;
    case CmpOp::kGt:
      return value > pred.literal;
    case CmpOp::kGe:
      return value >= pred.literal;
  }
  return false;
}

Result<Table> Filter(vgpu::Device& device, const Table& input,
                     const std::vector<Predicate>& predicates) {
  const uint64_t n = input.num_rows();
  for (const Predicate& p : predicates) {
    if (p.column < 0 || p.column >= input.num_columns()) {
      return Status::InvalidArgument("Filter: predicate column out of range");
    }
  }

  // Kernel 1: evaluate the conjunction, building the selection map.
  std::vector<RowId> selected;
  {
    vgpu::KernelScope ks(device, "filter_eval");
    for (const Predicate& p : predicates) {
      device.LoadSeq(input.column(p.column).addr(), n,
                     static_cast<uint32_t>(DataTypeSize(input.column(p.column).type())));
    }
    device.Compute(bit_util::CeilDiv(n, device.config().warp_size) *
                   std::max<size_t>(predicates.size(), 1));
    for (uint64_t i = 0; i < n; ++i) {
      bool keep = true;
      for (const Predicate& p : predicates) {
        if (!EvalPredicate(p, input.column(p.column).Get(i))) {
          keep = false;
          break;
        }
      }
      if (keep) selected.push_back(static_cast<RowId>(i));
    }
  }

  // Kernel(s) 2: compact every column through the (clustered) map. The map
  // itself is written once (ascending, compacted).
  GPUJOIN_ASSIGN_OR_RETURN(
      auto map, vgpu::DeviceBuffer<RowId>::FromHost(device, selected));
  {
    vgpu::KernelScope ks(device, "filter_write_map");
    device.StoreSeq(map.addr(), map.size(), sizeof(RowId));
  }
  std::vector<std::string> names;
  std::vector<DeviceColumn> cols;
  for (int c = 0; c < input.num_columns(); ++c) {
    GPUJOIN_ASSIGN_OR_RETURN(DeviceColumn col,
                             join::GatherColumn(device, input.column(c), map));
    names.push_back(input.column_name(c));
    cols.push_back(std::move(col));
  }
  return Table::FromColumns(input.name() + "_filtered", std::move(names),
                            std::move(cols));
}

Result<Table> Project(vgpu::Device& device, const Table& input,
                      const std::vector<int>& columns) {
  if (columns.empty()) {
    return Status::InvalidArgument("Project: no columns selected");
  }
  std::vector<std::string> names;
  std::vector<DeviceColumn> cols;
  for (int c : columns) {
    if (c < 0 || c >= input.num_columns()) {
      return Status::InvalidArgument("Project: column out of range");
    }
    const DeviceColumn& src = input.column(c);
    GPUJOIN_ASSIGN_OR_RETURN(DeviceColumn col,
                             DeviceColumn::Allocate(device, src.type(), src.size()));
    {
      vgpu::KernelScope ks(device, "project_copy");
      const uint32_t width = static_cast<uint32_t>(DataTypeSize(src.type()));
      device.LoadSeq(src.addr(), src.size(), width);
      device.StoreSeq(col.addr(), src.size(), width);
    }
    for (uint64_t i = 0; i < src.size(); ++i) col.Set(i, src.Get(i));
    names.push_back(input.column_name(c));
    cols.push_back(std::move(col));
  }
  return Table::FromColumns(input.name() + "_projected", std::move(names),
                            std::move(cols));
}

namespace {

template <typename K>
Result<Table> OrderByTyped(vgpu::Device& device, const Table& input,
                           int key_column) {
  const vgpu::DeviceBuffer<K>* key_buf;
  if constexpr (sizeof(K) == 4) {
    key_buf = &input.column(key_column).i32();
  } else {
    key_buf = &input.column(key_column).i64();
  }
  std::vector<std::string> names(input.num_columns());
  std::vector<DeviceColumn> cols(input.num_columns());
  vgpu::DeviceBuffer<K> t_keys;
  prim::RadixHistograms hist;
  bool have_keys = false;
  for (int c = 0; c < input.num_columns(); ++c) {
    names[c] = input.column_name(c);
    if (c == key_column) continue;
    // Each column rides its own stable (key, column) sort — the GFTR
    // schedule — and every sort after the first reuses its histograms. The
    // sorted keys from the first transform are kept for the key column's
    // output.
    vgpu::DeviceBuffer<K> keys_out;
    GPUJOIN_ASSIGN_OR_RETURN(
        cols[c], join::TransformKeyPayload(device, *key_buf, input.column(c),
                                           &keys_out, join::TransformKind::kSort,
                                           0, /*discard_keys=*/have_keys, &hist));
    if (!have_keys) {
      t_keys = std::move(keys_out);
      have_keys = true;
    } else {
      keys_out.Release();
    }
  }
  hist.Release();
  // Key column: materialize from the kept transformed keys (or sort the
  // keys alone when the table has a single column).
  if (!have_keys) {
    GPUJOIN_RETURN_IF_ERROR(join::TransformKeysOutOfPlace(
        device, *key_buf, &t_keys, join::TransformKind::kSort, 0));
  }
  GPUJOIN_ASSIGN_OR_RETURN(
      DeviceColumn key_col,
      DeviceColumn::Allocate(device, input.column(key_column).type(),
                             t_keys.size()));
  {
    vgpu::KernelScope ks(device, "orderby_emit_keys");
    for (uint64_t i = 0; i < t_keys.size(); ++i) {
      key_col.Set(i, static_cast<int64_t>(t_keys[i]));
    }
    device.StoreSeq(key_col.addr(), t_keys.size(),
                    static_cast<uint32_t>(DataTypeSize(key_col.type())));
  }
  cols[key_column] = std::move(key_col);
  return Table::FromColumns(input.name() + "_ordered", std::move(names),
                            std::move(cols));
}

}  // namespace

Result<Table> OrderBy(vgpu::Device& device, const Table& input, int key_column) {
  if (key_column < 0 || key_column >= input.num_columns()) {
    return Status::InvalidArgument("OrderBy: key column out of range");
  }
  if (input.num_rows() == 0) {
    return Status::InvalidArgument("OrderBy: empty input");
  }
  if (input.column(key_column).type() == DataType::kInt32) {
    return OrderByTyped<int32_t>(device, input, key_column);
  }
  return OrderByTyped<int64_t>(device, input, key_column);
}

}  // namespace gpujoin::ops
