// Device-resident columnar table. Column 0 is by convention the join key
// unless a JoinSpec says otherwise; remaining columns are payload ("non-key")
// attributes, matching the paper's R(k, r1, ..., rn) notation.

#ifndef GPUJOIN_STORAGE_TABLE_H_
#define GPUJOIN_STORAGE_TABLE_H_

#include <cstdint>
#include <string>
#include <vector>

#include <memory>

#include "common/status.h"
#include "storage/column.h"
#include "storage/dictionary.h"

namespace gpujoin {

/// Host-side staging representation of a column (used by generators).
/// String data is staged in `strings` and dictionary-encoded into int64
/// codes on upload (§5.3 of the paper); integer data is staged widened in
/// `values`.
struct HostColumn {
  std::string name;
  DataType type = DataType::kInt32;
  std::vector<int64_t> values;  // Widened integer data.
  /// Non-empty marks a string column: encoded on upload, `values` ignored.
  std::vector<std::string> strings;

  bool is_string() const { return !strings.empty(); }
  uint64_t size() const { return is_string() ? strings.size() : values.size(); }
};

/// Host-side staging table.
struct HostTable {
  std::string name;
  std::vector<HostColumn> columns;

  uint64_t num_rows() const { return columns.empty() ? 0 : columns.front().size(); }

  /// Bytes Table::FromHost allocates for this table, and so the bytes one
  /// host <-> device transfer of it moves: rows x declared width for every
  /// column (string columns upload as dictionary codes of that width).
  uint64_t device_bytes() const;
};

/// Appends `part`'s rows (values and strings) to `into`; an empty `into`
/// takes `part`'s schema first. Merges fragment results in fragment order.
void AppendRows(HostTable& into, const HostTable& part);

class Table {
 public:
  Table() = default;
  Table(Table&&) = default;
  Table& operator=(Table&&) = default;
  Table(const Table&) = delete;
  Table& operator=(const Table&) = delete;

  /// Uploads a host table to the device.
  static Result<Table> FromHost(vgpu::Device& device, const HostTable& host);

  /// Creates a table from already-built device columns.
  static Table FromColumns(std::string name, std::vector<std::string> col_names,
                           std::vector<DeviceColumn> cols);

  const std::string& name() const { return name_; }
  uint64_t num_rows() const { return columns_.empty() ? 0 : columns_[0].size(); }
  int num_columns() const { return static_cast<int>(columns_.size()); }

  DeviceColumn& column(int i) { return columns_[i]; }
  const DeviceColumn& column(int i) const { return columns_[i]; }
  const std::string& column_name(int i) const { return column_names_[i]; }

  /// Sum of column byte sizes (the paper's "relation size in GB").
  uint64_t total_bytes() const;

  /// Copies back to host (for verification and display).
  HostTable ToHost() const;

  /// Appends a column; must match num_rows() unless the table is empty.
  Status AddColumn(std::string name, DeviceColumn col);

  /// Moves column i out of the table (the table keeps an empty placeholder;
  /// callers typically discard the table afterwards).
  DeviceColumn TakeColumn(int i) { return std::move(columns_[i]); }

  /// Dictionary of a string column uploaded via FromHost (nullptr for plain
  /// integer columns). Operator outputs do not carry dictionaries; decode
  /// joined/aggregated codes through the *input* table's dictionary.
  const DictionaryEncoder* dictionary(int i) const {
    return i < static_cast<int>(dicts_.size()) ? dicts_[i].get() : nullptr;
  }

 private:
  std::string name_;
  std::vector<std::string> column_names_;
  std::vector<DeviceColumn> columns_;
  std::vector<std::shared_ptr<DictionaryEncoder>> dicts_;
};

}  // namespace gpujoin

#endif  // GPUJOIN_STORAGE_TABLE_H_
