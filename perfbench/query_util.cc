#include "query_util.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <thread>

#include "harness/harness.h"
#include "workload/generator.h"

namespace perfbench {

using namespace gpujoin;  // NOLINT(build/namespaces)

std::unique_ptr<vgpu::Device> NewDeviceMetered(Meter& meter) {
  return meter.Call("setup", "vgpu::Device", -1, nullptr, nullptr,
                    [] { return NewDevice(); });
}

std::unique_ptr<cpux::Context> NewCpuxMetered(Meter& meter) {
  return meter.Call("setup", "cpux::Context", -1, nullptr, nullptr,
                    [] { return std::make_unique<cpux::Context>(kCpuxThreads); });
}

void WarmUp(Meter& meter, cpux::Context& cpux, uint64_t seed) {
  workload::JoinWorkloadSpec spec;
  spec.r_rows = 1 << 14;
  spec.s_rows = 1 << 15;
  spec.seed = Mix64(seed ^ 0x77a1);
  const workload::JoinWorkload w =
      MustOk(meter.Call("workload", "workload::GenerateJoinInput", -1, nullptr,
                        nullptr, [&] { return workload::GenerateJoinInput(spec); }));
  std::unique_ptr<vgpu::Device> device = NewDeviceMetered(meter);
  {
    harness::DeviceWorkload t =
        MustOk(meter.Call("upload", "harness::Upload", -1, device.get(), nullptr,
                          [&] { return harness::Upload(*device, w); }));
    MustOk(meter.Call("join", "join::RunJoin", -1, device.get(), nullptr, [&] {
      return join::RunJoin(*device, join::JoinAlgo::kPhjOm, t.r, t.s);
    }));
  }
  MustOk(meter.Call("cpux", "cpux::RunJoin", -1, nullptr, nullptr, [&] {
    return cpux::RunJoin(cpux, join::JoinAlgo::kPhjOm, w.r, w.s);
  }));
}

RowDigest Download(Meter& meter, int query, const Table& output) {
  const HostTable host = meter.Call("download", "Table::ToHost", query, nullptr,
                                    nullptr, [&] { return output.ToHost(); });
  return CheckedDigest(meter, host);
}

std::vector<RowDigest> ParallelOracles(
    size_t n, const std::function<std::vector<std::vector<int64_t>>(size_t)>& fn) {
  std::vector<RowDigest> out(n);
  std::atomic<size_t> next{0};
  std::atomic<bool> failed{false};
  std::vector<std::thread> workers;
  for (int t = 0; t < kCpuxThreads; ++t) {
    workers.emplace_back([&] {
      try {
        for (size_t i; (i = next.fetch_add(1)) < n;) out[i] = DigestRows(fn(i));
      } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: oracle failed: %s\n", e.what());
        failed = true;
      }
    });
  }
  for (std::thread& w : workers) w.join();
  if (failed) std::exit(2);
  return out;
}

void AddJoinPhases(Acc& acc, const join::PhaseBreakdown& p) {
  acc["join.transform_sim_ms"] += p.transform_s * 1e3;
  acc["join.match_sim_ms"] += p.match_s * 1e3;
  acc["join.materialize_sim_ms"] += p.materialize_s * 1e3;
}

void AddGroupByPhases(Acc& acc, const join::PhaseBreakdown& p) {
  acc["groupby.transform_sim_ms"] += p.transform_s * 1e3;
  acc["groupby.aggregate_sim_ms"] += p.match_s * 1e3;
  acc["groupby.emit_sim_ms"] += p.materialize_s * 1e3;
}

void AddSimQuery(PassResult& pr, SimDigest& sd, QueryRecord rec,
                 const CallCost& cost, bool ok) {
  rec.ok = ok;
  rec.latency_sample = true;
  rec.sim_cycles = cost.sim_cycles;
  rec.latency_cycles = cost.sim_cycles;
  pr.stats.Add(cost.stats);
  pr.sim_total_cycles += cost.sim_cycles;
  sd.Add(static_cast<uint64_t>(ok));
  sd.Add(cost.sim_cycles);
  sd.Add(cost.stats);
  sd.Add(rec.peak_bytes);
  sd.Add(rec.output);
  pr.queries.push_back(std::move(rec));
}

void AddCpuxQuery(Meter& meter, PassResult& pr, SimDigest& sd, QueryRecord rec,
                  const Result<cpux::CpuxRunResult>& res) {
  rec.vgpu = false;
  rec.ok = res.ok();
  if (res.ok()) {
    Acc& acc = meter.acc();
    rec.peak_bytes = res->peak_bytes;
    acc["cpux.transform_s"] += res->phases.transform_wall_s;
    acc["cpux.match_s"] += res->phases.match_wall_s;
    acc["cpux.materialize_s"] += res->phases.materialize_wall_s;
    acc["cpux.wall_s"] += res->wall_seconds;
    acc["cpux.cpu_s"] += res->cpu_seconds;
    acc["cpux.tuples"] += static_cast<double>(rec.input_tuples);
    acc["cpux.peak_mb"] = std::max(acc["cpux.peak_mb"],
                                   static_cast<double>(res->peak_bytes) / 1e6);
    rec.output = CheckedDigest(meter, res->output);
  }
  sd.Add(static_cast<uint64_t>(rec.ok));
  sd.Add(rec.output);
  pr.queries.push_back(std::move(rec));
}

}  // namespace perfbench
