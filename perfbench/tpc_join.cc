// tpc-join: a closed loop, one query at a time, over the Table 6 joins
// J1-J5 in both type regimes. Each join runs on all five vgpu algorithms
// over uploaded tables and on cpux PHJ-OM, NPHJ and SMJ-OM over the same
// host tables; one Figure 16 star pipeline and one fused join+aggregate
// follow. The simulated L2 is flushed before every vgpu query.

#include <optional>

#include "common/status.h"
#include "cpux/join.h"
#include "groupby/reference.h"
#include "harness/harness.h"
#include "join/join.h"
#include "join/join_aggregate.h"
#include "join/pipeline.h"
#include "join/reference.h"
#include "query_util.h"
#include "stats/estimator.h"
#include "workload/generator.h"
#include "workload/tpc.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace gpujoin;  // NOLINT(build/namespaces)

constexpr join::JoinAlgo kCpuxAlgos[] = {join::JoinAlgo::kPhjOm,
                                         join::JoinAlgo::kNphj,
                                         join::JoinAlgo::kSmjOm};

struct JoinInput {
  std::string name;
  bool pk_fk = true;
  workload::JoinWorkload host;
  std::unique_ptr<vgpu::Device> device;
  std::optional<harness::DeviceWorkload> tables;
};

struct StarInput {
  workload::StarSchema host;
  std::unique_ptr<vgpu::Device> device;
  std::optional<Table> fact;
  std::vector<Table> dims;
};

/// Expected rows of join::RunJoinPipeline(fact, dims): the stages joined
/// one by one with join::ReferenceJoinRows, in the pipeline's output order
/// (last key, P_N .. P_1, fact row id).
std::vector<std::vector<int64_t>> PipelineOracleRows(
    const workload::StarSchema& star) {
  const size_t n_dims = star.dims.size();
  // Row layout while joining: FK_1..FK_N, fact id, then P_1..P_i.
  std::vector<std::vector<int64_t>> rows(star.fact.num_rows());
  for (uint64_t i = 0; i < rows.size(); ++i) {
    for (size_t d = 0; d < n_dims; ++d) {
      rows[i].push_back(star.fact.columns[d].values[i]);
    }
    rows[i].push_back(static_cast<int64_t>(i));
  }
  for (size_t d = 0; d < n_dims; ++d) {
    HostTable s;
    s.columns.resize(rows.empty() ? 1 : rows[0].size() + 1);
    for (const auto& row : rows) {
      s.columns[0].values.push_back(row[d]);
      for (size_t c = 0; c < row.size(); ++c) {
        s.columns[c + 1].values.push_back(row[c]);
      }
    }
    rows.clear();
    // Joined rows are [FK_d, P_d, row...]; keep row and append P_d.
    for (auto& joined : join::ReferenceJoinRows(star.dims[d], s)) {
      std::vector<int64_t> next(joined.begin() + 2, joined.end());
      next.push_back(joined[1]);
      rows.push_back(std::move(next));
    }
  }
  for (auto& row : rows) {
    std::vector<int64_t> out;
    out.push_back(row[n_dims - 1]);
    for (size_t d = n_dims; d-- > 0;) out.push_back(row[n_dims + 1 + d]);
    out.push_back(row[n_dims]);
    row = std::move(out);
  }
  return rows;
}

/// The fused query: GROUP BY R.1, SUM(S.1), COUNT(*) over R JOIN S.
join::JoinAggregateSpec FusedSpec() {
  join::JoinAggregateSpec spec;
  spec.group_by = {join::JoinColumnRef::Side::kR, 1};
  spec.aggregates = {
      {{join::JoinColumnRef::Side::kS, 1}, groupby::AggOp::kSum},
      {{join::JoinColumnRef::Side::kS, 0}, groupby::AggOp::kCount}};
  return spec;
}

std::vector<std::vector<int64_t>> FusedOracleRows(const workload::JoinWorkload& w) {
  // Project the joined rows [k, r_1.., s_1..] onto (R.1, S.1).
  const size_t s1 = w.r.columns.size();
  HostTable projected;
  projected.columns.resize(2);
  for (const auto& row : join::ReferenceJoinRows(w.r, w.s)) {
    projected.columns[0].values.push_back(row[1]);
    projected.columns[1].values.push_back(row[s1]);
  }
  groupby::GroupBySpec spec;
  spec.aggregates = {{1, groupby::AggOp::kSum}, {1, groupby::AggOp::kCount}};
  return groupby::ReferenceGroupByRows(projected, spec);
}

class TpcJoin : public Workload {
 public:
  void Setup(Meter& meter, uint64_t seed) override {
    inputs_.clear();
    star_.reset();
    fused_.reset();
    cpux_.reset();
    const uint64_t n = harness::ScaleTuples();
    struct Regime {
      const char* label;
      DataType key;
    };
    uint64_t stream = 0;
    for (Regime regime : {Regime{"4B+8B", DataType::kInt32},
                          Regime{"8B", DataType::kInt64}}) {
      for (const workload::TpcJoinSpec& spec : workload::TpcJoinSpecs()) {
        JoinInput in;
        in.name = spec.id + "/" + regime.label;
        in.pk_fk = spec.pk_fk;
        workload::TpcGenOptions gen;
        gen.scale_tuples = n;
        gen.key_type = regime.key;
        gen.nonkey_type = DataType::kInt64;
        gen.seed = Mix64(seed + ++stream);
        in.host = MustOk(meter.Call("workload", "workload::GenerateTpcJoin", -1,
                                    nullptr, nullptr, [&] {
                                      return workload::GenerateTpcJoin(spec, gen);
                                    }));
        in.device = NewDeviceMetered(meter);
        in.tables = MustOk(meter.Call("upload", "harness::Upload", -1,
                                      in.device.get(), nullptr, [&] {
                                        return harness::Upload(*in.device, in.host);
                                      }));
        inputs_.push_back(std::move(in));
      }
    }

    star_.emplace();
    workload::StarSchemaSpec star_spec;
    star_spec.fact_rows = n;
    star_spec.num_dims = 4;
    star_spec.dim_rows = n / 4;
    star_spec.seed = Mix64(seed + ++stream);
    star_->host = MustOk(meter.Call(
        "workload", "workload::GenerateStarSchema", -1, nullptr, nullptr,
        [&] { return workload::GenerateStarSchema(star_spec); }));
    star_->device = NewDeviceMetered(meter);
    meter.Do("upload", "Table::FromHost", -1, star_->device.get(), nullptr, [&] {
      star_->fact.emplace(MustOk(Table::FromHost(*star_->device, star_->host.fact)));
      for (const HostTable& d : star_->host.dims) {
        star_->dims.push_back(MustOk(Table::FromHost(*star_->device, d)));
      }
    });

    fused_.emplace();
    workload::JoinWorkloadSpec fused_spec;
    fused_spec.r_rows = n / 2;
    fused_spec.s_rows = n;
    fused_spec.r_payload_cols = 2;
    fused_spec.s_payload_cols = 2;
    fused_spec.seed = Mix64(seed + ++stream);
    fused_->name = "fused";
    fused_->host = MustOk(meter.Call("workload", "workload::GenerateJoinInput", -1,
                                     nullptr, nullptr, [&] {
                                       return workload::GenerateJoinInput(fused_spec);
                                     }));
    fused_->device = NewDeviceMetered(meter);
    fused_->tables = MustOk(meter.Call("upload", "harness::Upload", -1,
                                       fused_->device.get(), nullptr, [&] {
                                         return harness::Upload(*fused_->device,
                                                                fused_->host);
                                       }));

    cpux_ = NewCpuxMetered(meter);
    WarmUp(meter, *cpux_, seed);
  }

  PassResult Pass(Meter& meter) override {
    PassResult pr;
    SimDigest sd;
    int q = 0;
    for (size_t i = 0; i < inputs_.size(); ++i) {
      JoinInput& in = inputs_[i];
      join::JoinOptions opts;
      opts.pk_fk = in.pk_fk;
      for (join::JoinAlgo algo : join::kAllJoinAlgos) {
        QueryRecord rec = NewRecord(in.name + " " + join::JoinAlgoName(algo),
                                    static_cast<int>(i),
                                    in.host.r.num_rows() + in.host.s.num_rows());
        rec.estimate_bytes = EstimateJoin(meter, q, in.host);
        CallCost cost;
        auto res = meter.Call("join", "harness::RunJoinCold", q, in.device.get(),
                              &cost, [&] {
                                return harness::RunJoinCold(*in.device, algo,
                                                            in.tables->r,
                                                            in.tables->s, opts);
                              });
        if (res.ok()) {
          rec.peak_bytes = res->peak_mem_bytes;
          rec.output = Download(meter, q, res->output);
          AddJoinPhases(meter.acc(), res->phases);
          sd.Add(res->phases.transform_s);
          sd.Add(res->phases.match_s);
          sd.Add(res->phases.materialize_s);
        }
        AddSimQuery(pr, sd, std::move(rec), cost, res.ok());
        ++q;
      }
      for (join::JoinAlgo algo : kCpuxAlgos) {
        QueryRecord rec = NewRecord(in.name + " cpux " + join::JoinAlgoName(algo),
                                    static_cast<int>(i),
                                    in.host.r.num_rows() + in.host.s.num_rows());
        auto res = meter.Call("cpux", "cpux::RunJoin", q, nullptr, nullptr, [&] {
          return cpux::RunJoin(*cpux_, algo, in.host.r, in.host.s);
        });
        AddCpuxQuery(meter, pr, sd, std::move(rec), res);
        ++q;
      }
    }

    {
      QueryRecord rec = NewRecord("star pipeline PHJ-OM", StarOracle(), 0);
      rec.input_tuples = star_->host.fact.num_rows();
      for (const HostTable& d : star_->host.dims) rec.input_tuples += d.num_rows();
      vgpu::Device& dev = *star_->device;
      dev.ResetPeakMemory();
      CallCost cost;
      auto res = meter.Call("join", "join::RunJoinPipeline", q, &dev, &cost, [&] {
        dev.FlushL2();
        return join::RunJoinPipeline(dev, join::JoinAlgo::kPhjOm, *star_->fact,
                                     star_->dims);
      });
      if (res.ok()) {
        rec.peak_bytes = dev.memory_stats().peak_bytes;
        rec.output = Download(meter, q, res->output);
        for (const join::PhaseBreakdown& p : res->per_join) {
          AddJoinPhases(meter.acc(), p);
        }
      }
      AddSimQuery(pr, sd, std::move(rec), cost, res.ok());
      ++q;
    }

    {
      QueryRecord rec = NewRecord("fused join+aggregate PHJ-OM/HASH-PART",
                                  FusedOracle(),
                                  fused_->host.r.num_rows() + fused_->host.s.num_rows());
      vgpu::Device& dev = *fused_->device;
      dev.ResetPeakMemory();
      CallCost cost;
      auto res = meter.Call("join", "join::RunJoinAggregate", q, &dev, &cost, [&] {
        dev.FlushL2();
        return join::RunJoinAggregate(dev, join::JoinAlgo::kPhjOm,
                                      groupby::GroupByAlgo::kHashPartitioned,
                                      fused_->tables->r, fused_->tables->s,
                                      FusedSpec());
      });
      if (res.ok()) {
        rec.peak_bytes = dev.memory_stats().peak_bytes;
        rec.output = Download(meter, q, res->output);
      }
      AddSimQuery(pr, sd, std::move(rec), cost, res.ok());
    }
    pr.sim_digest = sd.value();
    return pr;
  }

  std::vector<RowDigest> Oracles() override {
    return ParallelOracles(inputs_.size() + 2, [&](size_t i) {
      if (i < inputs_.size()) {
        return join::ReferenceJoinRows(inputs_[i].host.r, inputs_[i].host.s);
      }
      return i == inputs_.size() ? PipelineOracleRows(star_->host)
                                 : FusedOracleRows(fused_->host);
    });
  }

  std::vector<vgpu::Device*> Devices() override {
    std::vector<vgpu::Device*> out;
    for (JoinInput& in : inputs_) out.push_back(in.device.get());
    out.push_back(star_->device.get());
    out.push_back(fused_->device.get());
    return out;
  }

 private:
  int StarOracle() const { return static_cast<int>(inputs_.size()); }
  int FusedOracle() const { return static_cast<int>(inputs_.size()) + 1; }

  static uint64_t EstimateJoin(Meter& meter, int q, const workload::JoinWorkload& w) {
    return meter.Call("stats", "stats::EstimateJoinMemory", q, nullptr, nullptr,
                      [&] { return stats::EstimateJoinMemory(w.r, w.s); })
        .total_bytes();
  }

  std::vector<JoinInput> inputs_;
  std::optional<StarInput> star_;
  std::optional<JoinInput> fused_;
  std::unique_ptr<cpux::Context> cpux_;
};

}  // namespace

std::unique_ptr<Workload> MakeTpcJoin() { return std::make_unique<TpcJoin>(); }

}  // namespace perfbench
