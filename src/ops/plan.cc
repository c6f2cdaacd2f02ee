#include "ops/plan.h"

#include <optional>
#include <utility>

#include "groupby/planner.h"
#include "join/planner.h"
#include "stats/estimator.h"

namespace gpujoin::ops {

namespace {

std::string Indent(int n) { return std::string(static_cast<size_t>(n) * 2, ' '); }

class ScanNodeImpl final : public PlanNode {
 public:
  explicit ScanNodeImpl(const Table* table) : table_(table) {}

  Result<Table> Execute(vgpu::Device& device) const override {
    if (table_ == nullptr) return Status::InvalidArgument("Scan: null table");
    // Materialize a copy so parents can consume their input tables.
    std::vector<std::string> names;
    std::vector<DeviceColumn> cols;
    for (int c = 0; c < table_->num_columns(); ++c) {
      const DeviceColumn& src = table_->column(c);
      GPUJOIN_ASSIGN_OR_RETURN(
          DeviceColumn col, DeviceColumn::Allocate(device, src.type(), src.size()));
      {
        vgpu::KernelScope ks(device, "scan_copy");
        const uint32_t width = static_cast<uint32_t>(DataTypeSize(src.type()));
        device.LoadSeq(src.addr(), src.size(), width);
        device.StoreSeq(col.addr(), src.size(), width);
      }
      for (uint64_t i = 0; i < src.size(); ++i) col.Set(i, src.Get(i));
      names.push_back(table_->column_name(c));
      cols.push_back(std::move(col));
    }
    return Table::FromColumns(table_->name(), std::move(names), std::move(cols));
  }

  std::string Describe(int indent) const override {
    return Indent(indent) + "Scan(" + table_->name() + ", " +
           std::to_string(table_->num_rows()) + " rows)\n";
  }

 private:
  const Table* table_;
};

class FilterNodeImpl final : public PlanNode {
 public:
  FilterNodeImpl(PlanPtr child, std::vector<Predicate> preds)
      : child_(std::move(child)), preds_(std::move(preds)) {}

  Result<Table> Execute(vgpu::Device& device) const override {
    GPUJOIN_ASSIGN_OR_RETURN(Table in, child_->Execute(device));
    return Filter(device, in, preds_);
  }

  std::string Describe(int indent) const override {
    std::string out = Indent(indent) + "Filter(";
    for (size_t i = 0; i < preds_.size(); ++i) {
      if (i > 0) out += " AND ";
      out += "col" + std::to_string(preds_[i].column) + " " +
             CmpOpName(preds_[i].op) + " " + std::to_string(preds_[i].literal);
    }
    out += ")\n" + child_->Describe(indent + 1);
    return out;
  }

 private:
  PlanPtr child_;
  std::vector<Predicate> preds_;
};

class ProjectNodeImpl final : public PlanNode {
 public:
  ProjectNodeImpl(PlanPtr child, std::vector<int> columns)
      : child_(std::move(child)), columns_(std::move(columns)) {}

  Result<Table> Execute(vgpu::Device& device) const override {
    GPUJOIN_ASSIGN_OR_RETURN(Table in, child_->Execute(device));
    return Project(device, in, columns_);
  }

  std::string Describe(int indent) const override {
    std::string out = Indent(indent) + "Project(";
    for (size_t i = 0; i < columns_.size(); ++i) {
      if (i > 0) out += ", ";
      out += "col" + std::to_string(columns_[i]);
    }
    return out + ")\n" + child_->Describe(indent + 1);
  }

 private:
  PlanPtr child_;
  std::vector<int> columns_;
};

class JoinNodeImpl final : public PlanNode {
 public:
  JoinNodeImpl(PlanPtr build, PlanPtr probe, JoinNodeOptions options)
      : build_(std::move(build)),
        probe_(std::move(probe)),
        options_(std::move(options)) {}

  Result<Table> Execute(vgpu::Device& device) const override {
    GPUJOIN_ASSIGN_OR_RETURN(Table r, build_->Execute(device));
    GPUJOIN_ASSIGN_OR_RETURN(Table s, probe_->Execute(device));
    join::JoinAlgo algo;
    if (options_.algo.has_value()) {
      algo = *options_.algo;
    } else {
      join::JoinFeatures f = options_.features_hint.has_value()
                                 ? *options_.features_hint
                                 : join::JoinFeatures::FromTables(r, s);
      algo = ChooseJoinAlgo(f);
    }
    GPUJOIN_ASSIGN_OR_RETURN(join::JoinRunResult res,
                             RunJoin(device, algo, r, s, options_.join));
    return std::move(res.output);
  }

  std::string Describe(int indent) const override {
    std::string out = Indent(indent) + "Join(";
    out += options_.algo.has_value() ? join::JoinAlgoName(*options_.algo)
                                     : "planner-selected";
    out += ")\n" + build_->Describe(indent + 1) + probe_->Describe(indent + 1);
    return out;
  }

 private:
  PlanPtr build_;
  PlanPtr probe_;
  JoinNodeOptions options_;
};

class GroupByNodeImpl final : public PlanNode {
 public:
  GroupByNodeImpl(PlanPtr child, groupby::GroupBySpec spec,
                  GroupByNodeOptions options)
      : child_(std::move(child)), spec_(std::move(spec)), options_(options) {}

  Result<Table> Execute(vgpu::Device& device) const override {
    GPUJOIN_ASSIGN_OR_RETURN(Table in, child_->Execute(device));
    groupby::GroupByAlgo algo;
    if (options_.algo.has_value()) {
      algo = *options_.algo;
    } else {
      groupby::GroupByFeatures f;
      f.rows = in.num_rows();
      GPUJOIN_ASSIGN_OR_RETURN(stats::KeyStats keys,
                               stats::EstimateKeyStats(device, in.column(0)));
      f.estimated_groups = keys.distinct;
      f.key_min = keys.min;
      f.key_max = keys.max;
      f.num_aggregates = static_cast<int>(spec_.aggregates.size());
      algo = ChooseGroupByAlgo(device, f);
    }
    GPUJOIN_ASSIGN_OR_RETURN(groupby::GroupByRunResult res,
                             RunGroupBy(device, algo, in, spec_));
    return std::move(res.output);
  }

  std::string Describe(int indent) const override {
    std::string out = Indent(indent) + "GroupBy(";
    for (size_t i = 0; i < spec_.aggregates.size(); ++i) {
      if (i > 0) out += ", ";
      out += groupby::AggOpName(spec_.aggregates[i].op);
      out += "(col" + std::to_string(spec_.aggregates[i].column) + ")";
    }
    return out + ")\n" + child_->Describe(indent + 1);
  }

 private:
  PlanPtr child_;
  groupby::GroupBySpec spec_;
  GroupByNodeOptions options_;
};

class OrderByNodeImpl final : public PlanNode {
 public:
  OrderByNodeImpl(PlanPtr child, int key_column)
      : child_(std::move(child)), key_column_(key_column) {}

  Result<Table> Execute(vgpu::Device& device) const override {
    GPUJOIN_ASSIGN_OR_RETURN(Table in, child_->Execute(device));
    return OrderBy(device, in, key_column_);
  }

  std::string Describe(int indent) const override {
    return Indent(indent) + "OrderBy(col" + std::to_string(key_column_) +
           ")\n" + child_->Describe(indent + 1);
  }

 private:
  PlanPtr child_;
  int key_column_;
};

}  // namespace

PlanPtr ScanNode(const Table* table) {
  return std::make_unique<ScanNodeImpl>(table);
}

PlanPtr FilterNode(PlanPtr child, std::vector<Predicate> predicates) {
  return std::make_unique<FilterNodeImpl>(std::move(child), std::move(predicates));
}

PlanPtr ProjectNode(PlanPtr child, std::vector<int> columns) {
  return std::make_unique<ProjectNodeImpl>(std::move(child), std::move(columns));
}

PlanPtr JoinNode(PlanPtr build, PlanPtr probe, JoinNodeOptions options) {
  return std::make_unique<JoinNodeImpl>(std::move(build), std::move(probe),
                                        std::move(options));
}

PlanPtr GroupByNode(PlanPtr child, groupby::GroupBySpec spec,
                    GroupByNodeOptions options) {
  return std::make_unique<GroupByNodeImpl>(std::move(child), std::move(spec),
                                           options);
}

PlanPtr OrderByNode(PlanPtr child, int key_column) {
  return std::make_unique<OrderByNodeImpl>(std::move(child), key_column);
}

}  // namespace gpujoin::ops
