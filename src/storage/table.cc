#include "storage/table.h"

namespace gpujoin {

Result<Table> Table::FromHost(vgpu::Device& device, const HostTable& host) {
  Table t;
  t.name_ = host.name;
  const uint64_t rows = host.num_rows();
  // Every uploaded column is attributed to the host table it came from.
  vgpu::AllocTagScope tag_scope(device, "upload:" + host.name);
  for (const HostColumn& hc : host.columns) {
    if (hc.size() != rows) {
      return Status::InvalidArgument("column " + hc.name +
                                     " has mismatched row count");
    }
    if (hc.is_string()) {
      // Dictionary-encode on upload (§5.3); the dictionary stays attached
      // to the table for decoding results.
      auto dict = std::make_shared<DictionaryEncoder>();
      std::vector<int64_t> codes(rows);
      for (uint64_t i = 0; i < rows; ++i) codes[i] = dict->Encode(hc.strings[i]);
      GPUJOIN_ASSIGN_OR_RETURN(
          DeviceColumn col,
          DeviceColumn::FromHost(device, hc.type, codes, hc.name.c_str()));
      t.column_names_.push_back(hc.name);
      t.columns_.push_back(std::move(col));
      t.dicts_.push_back(std::move(dict));
      continue;
    }
    GPUJOIN_ASSIGN_OR_RETURN(DeviceColumn col,
                             DeviceColumn::FromHost(device, hc.type, hc.values,
                                                    hc.name.c_str()));
    t.column_names_.push_back(hc.name);
    t.columns_.push_back(std::move(col));
    t.dicts_.push_back(nullptr);
  }
  return t;
}

uint64_t HostTable::device_bytes() const {
  uint64_t bytes = 0;
  for (const HostColumn& c : columns) bytes += c.size() * DataTypeSize(c.type);
  return bytes;
}

void AppendRows(HostTable& into, const HostTable& part) {
  if (into.columns.empty()) {
    for (const HostColumn& c : part.columns) {
      into.columns.push_back(HostColumn{c.name, c.type, {}, {}});
    }
  }
  for (size_t c = 0; c < part.columns.size(); ++c) {
    HostColumn& dst = into.columns[c];
    const HostColumn& src = part.columns[c];
    dst.values.insert(dst.values.end(), src.values.begin(), src.values.end());
    dst.strings.insert(dst.strings.end(), src.strings.begin(),
                       src.strings.end());
  }
}

Table Table::FromColumns(std::string name, std::vector<std::string> col_names,
                         std::vector<DeviceColumn> cols) {
  Table t;
  t.name_ = std::move(name);
  t.column_names_ = std::move(col_names);
  t.columns_ = std::move(cols);
  return t;
}

uint64_t Table::total_bytes() const {
  uint64_t total = 0;
  for (const DeviceColumn& c : columns_) total += c.size_bytes();
  return total;
}

HostTable Table::ToHost() const {
  HostTable host;
  host.name = name_;
  for (int i = 0; i < num_columns(); ++i) {
    HostColumn hc;
    hc.name = column_names_[i];
    hc.type = columns_[i].type();
    hc.values = columns_[i].ToHost();
    if (const DictionaryEncoder* dict = dictionary(i)) {
      hc.strings.reserve(hc.values.size());
      for (int64_t code : hc.values) {
        auto str = dict->Decode(code);
        hc.strings.push_back(str.ok() ? *str : "<bad code>");
      }
    }
    host.columns.push_back(std::move(hc));
  }
  return host;
}

Status Table::AddColumn(std::string name, DeviceColumn col) {
  if (!columns_.empty() && col.size() != num_rows()) {
    return Status::InvalidArgument("AddColumn row-count mismatch for " + name);
  }
  column_names_.push_back(std::move(name));
  columns_.push_back(std::move(col));
  return Status::OK();
}

}  // namespace gpujoin
