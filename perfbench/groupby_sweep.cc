// groupby-sweep: a closed loop over 2^GPUJOIN_SCALE rows whose group count
// runs from 2^4 to 2^20 (the table fits modelled shared memory at the low
// end, then the scaled L2, then only DRAM), plus one Zipf-skewed point with
// SUM, COUNT, MIN and MAX. Every input runs on the three vgpu strategies
// and on the same strategies in cpux. The simulated L2 is flushed before
// every vgpu query.

#include <algorithm>
#include <optional>

#include "cpux/groupby.h"
#include "groupby/groupby.h"
#include "groupby/reference.h"
#include "harness/harness.h"
#include "query_util.h"
#include "stats/estimator.h"
#include "workload/generator.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace gpujoin;  // NOLINT(build/namespaces)

struct GroupByInput {
  std::string name;
  groupby::GroupBySpec spec;
  HostTable host;
  std::unique_ptr<vgpu::Device> device;
  std::optional<Table> table;
};

class GroupBySweep : public Workload {
 public:
  void Setup(Meter& meter, uint64_t seed) override {
    inputs_.clear();
    cpux_.reset();
    const uint64_t n = harness::ScaleTuples();
    uint64_t stream = 0;
    auto add = [&](std::string name, workload::GroupByWorkloadSpec gen,
                   groupby::GroupBySpec spec) {
      GroupByInput in;
      in.name = std::move(name);
      in.spec = std::move(spec);
      gen.rows = n;
      gen.seed = Mix64(seed + ++stream);
      in.host = MustOk(meter.Call("workload", "workload::GenerateGroupByInput", -1,
                                  nullptr, nullptr, [&] {
                                    return workload::GenerateGroupByInput(gen);
                                  }));
      in.device = NewDeviceMetered(meter);
      in.table = MustOk(meter.Call("upload", "Table::FromHost", -1,
                                   in.device.get(), nullptr, [&] {
                                     return Table::FromHost(*in.device, in.host);
                                   }));
      inputs_.push_back(std::move(in));
    };
    for (int g_log2 = 4; g_log2 <= 20; g_log2 += 2) {
      workload::GroupByWorkloadSpec gen;
      gen.num_groups = std::min(n, uint64_t{1} << g_log2);
      groupby::GroupBySpec spec;
      spec.aggregates = {{1, groupby::AggOp::kSum}};
      add("groups=2^" + std::to_string(g_log2), gen, spec);
    }
    workload::GroupByWorkloadSpec zipf;
    zipf.num_groups = std::min(n, uint64_t{1} << 16);
    zipf.payload_cols = 2;
    zipf.zipf_theta = 1.0;
    groupby::GroupBySpec multi;
    multi.aggregates = {{1, groupby::AggOp::kSum},
                        {1, groupby::AggOp::kCount},
                        {2, groupby::AggOp::kMin},
                        {1, groupby::AggOp::kMax}};
    add("zipf=1.0 groups=2^16 sum,count,min,max", zipf, multi);

    cpux_ = NewCpuxMetered(meter);
    WarmUp(meter, *cpux_, seed);
  }

  PassResult Pass(Meter& meter) override {
    PassResult pr;
    SimDigest sd;
    int q = 0;
    for (size_t i = 0; i < inputs_.size(); ++i) {
      GroupByInput& in = inputs_[i];
      const uint64_t rows = in.host.num_rows();
      for (groupby::GroupByAlgo algo : groupby::kAllGroupByAlgos) {
        QueryRecord rec = NewRecord(in.name + " " + groupby::GroupByAlgoName(algo),
                                    static_cast<int>(i), rows);
        rec.estimate_bytes =
            meter.Call("stats", "stats::EstimateGroupByMemory", q, nullptr,
                       nullptr, [&] {
                         return stats::EstimateGroupByMemory(
                             in.host, static_cast<int>(in.spec.aggregates.size()));
                       })
                .total_bytes();
        CallCost cost;
        auto res = meter.Call("groupby", "groupby::RunGroupBy", q, in.device.get(),
                              &cost, [&] {
                                in.device->FlushL2();
                                return groupby::RunGroupBy(*in.device, algo,
                                                           *in.table, in.spec);
                              });
        if (res.ok()) {
          rec.peak_bytes = res->peak_mem_bytes;
          rec.output = Download(meter, q, res->output);
          AddGroupByPhases(meter.acc(), res->phases);
          sd.Add(res->phases.transform_s);
          sd.Add(res->phases.match_s);
          sd.Add(res->phases.materialize_s);
        }
        AddSimQuery(pr, sd, std::move(rec), cost, res.ok());
        ++q;
      }
      for (groupby::GroupByAlgo algo : groupby::kAllGroupByAlgos) {
        QueryRecord rec =
            NewRecord(in.name + " cpux " + groupby::GroupByAlgoName(algo),
                      static_cast<int>(i), rows);
        auto res = meter.Call("cpux", "cpux::RunGroupBy", q, nullptr, nullptr, [&] {
          return cpux::RunGroupBy(*cpux_, algo, in.host, in.spec);
        });
        AddCpuxQuery(meter, pr, sd, std::move(rec), res);
        ++q;
      }
    }
    pr.sim_digest = sd.value();
    return pr;
  }

  std::vector<RowDigest> Oracles() override {
    return ParallelOracles(inputs_.size(), [&](size_t i) {
      return groupby::ReferenceGroupByRows(inputs_[i].host, inputs_[i].spec);
    });
  }

  std::vector<vgpu::Device*> Devices() override {
    std::vector<vgpu::Device*> out;
    for (GroupByInput& in : inputs_) out.push_back(in.device.get());
    return out;
  }

 private:
  std::vector<GroupByInput> inputs_;
  std::unique_ptr<cpux::Context> cpux_;
};

}  // namespace

std::unique_ptr<Workload> MakeGroupBySweep() {
  return std::make_unique<GroupBySweep>();
}

}  // namespace perfbench
