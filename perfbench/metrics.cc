#include "metrics.h"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <iterator>
#include <map>

namespace perfbench {
namespace {

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  /// "sim", "host", or "-" for ratios of counts.
  std::string clock;
  std::string note;
};

/// Kernels whose host seconds and simulated ms the traced run always
/// reports (0 on workloads that do not launch them): every kernel that took
/// at least 1% of the kernel host time of some workload in traced runs at
/// seeds 1 and 7, scale 20. The report also lists the kernels at or above
/// 1% on the current run, and flags any of them missing here.
const char* const kTrackedKernels[] = {
    "radix_histogram",       "radix_scatter",          "partition_offsets",
    "nphj_build",            "nphj_probe_count",       "nphj_probe_write",
    "phj_probe_count",       "phj_probe_write",        "phj_um_probe_count",
    "phj_um_probe_write",    "bucket_chain_pass1",     "bucket_chain_pass2",
    "merge_join_write",      "gather",                 "gb_hash_global_update",
    "gb_hash_global_compact", "gb_hash_part_aggregate", "gb_sort_reduce",
    "groupby_emit",          "hll_sketch",
};

/// Per-layer metrics in the order the traced run reports them. The first
/// two time the traced run's untraced pass on the host (EndToEndPrintOnly
/// says why they are not end-to-end metrics).
const char* const kPerLayer[] = {
    "host_s", "cpux_mtuples_s",
    "workload.gen_s", "storage.upload_s", "storage.download_s",
    "vgpu.kernel_host_s", "vgpu.kernel_cpu_s", "vgpu.parallel_eff",
    "vgpu.host_ns_per_sector", "vgpu.host_ns_per_warp_inst", "vgpu.l2_hit_rate",
    "vgpu.sectors_per_request", "vgpu.dram_sectors", "vgpu.dram_row_misses",
    "vgpu.atomic_serializations", "vgpu.kernels", "vgpu.nonkernel_sim_ms",
    "join.transform_sim_ms", "join.match_sim_ms", "join.materialize_sim_ms",
    "join.call_host_s", "join.host_outside_kernels_s",
    "groupby.transform_sim_ms", "groupby.aggregate_sim_ms",
    "groupby.emit_sim_ms", "groupby.call_host_s",
    "groupby.host_outside_kernels_s", "cpux.transform_s", "cpux.match_s",
    "cpux.materialize_s", "cpux.cpu_over_wall", "cpux.peak_mb",
    "ops.route_cpux_frac", "ops.route_host_us", "ops.backend_fallbacks",
    "stats.estimate_over_peak", "service.submit_host_s",
    "service.drain_host_s", "service.sched_host_s",
    "service.wait_sim_ms_p50.batch", "service.wait_sim_ms_p50.interactive",
    "service.run_sim_ms_p50.batch", "service.run_sim_ms_p50.interactive",
    "service.preemptions", "service.turns_per_fragment",
    "service.queued_frac", "service.rejected_frac",
    "resilience.attempts_per_query", "obs.trace_overhead_frac",
    "setup.construct_s", "cpux.call_host_s", "stats.estimate_host_s",
    "ops.route_host_s", "ledger.host_total_s", "ledger.host_remainder_s",
    "ledger.sim_total_ms", "ledger.sim_remainder_ms",
    "ops.entry_sim_ms.run_join", "ops.entry_sim_ms.resilient",
    "ops.entry_sim_ms.provider", "ops.entry_sim_ms.service_1frag",
    "ops.entry_sim_ms.service_default",
};

double Get(const Acc& acc, const std::string& key) {
  auto it = acc.find(key);
  return it == acc.end() ? 0.0 : it->second;
}

double Ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

/// Unit and clock of a per-layer metric, derived from its name.
std::pair<std::string, std::string> UnitOf(const std::string& name) {
  auto ends = [&](const char* suffix) {
    const std::string s = suffix;
    return name.size() >= s.size() &&
           name.compare(name.size() - s.size(), s.size(), s) == 0;
  };
  if (name.find("sim_ms") != std::string::npos || ends("_ms")) return {"ms", "sim"};
  if (name == "cpux_mtuples_s") return {"Mtuples/s", "host"};
  if (ends("_s")) return {"s", "host"};
  if (ends("_us")) return {"us", "host"};
  if (ends("_mb")) return {"MB", "host"};
  if (ends("host_ns_per_sector") || ends("host_ns_per_warp_inst")) {
    return {"ns", "host"};
  }
  if (ends("parallel_eff") || ends("cpu_over_wall") || ends("overhead_frac")) {
    return {"ratio", "host"};
  }
  if (ends("_frac") || ends("_rate") || ends("estimate_over_peak") ||
      ends("per_request") || ends("per_fragment") || ends("per_query")) {
    return {"ratio", "sim"};
  }
  return {"count", "sim"};
}

/// Passes whose host figures count: all of them, or the untraced first
/// pass of a traced run.
size_t UntracedPasses(const RunData& run) {
  return run.header.trace ? 1 : run.passes.size();
}

/// Input tuples of the pass's cpux executions per wall second, in millions.
double CpuxWallRate(const PassResult& p) {
  return Ratio(Get(p.acc, "cpux.tuples"), Get(p.acc, "cpux.wall_s")) / 1e6;
}

std::vector<Metric> EndToEnd(const RunData& run) {
  const PassResult& p0 = run.passes.front();
  const double ms_per_cycle = 1e3 / run.clock_hz;
  std::vector<double> latency_ms;
  double tuples = 0;
  double cycles = 0;
  uint64_t peak = 0;
  for (const QueryRecord& q : p0.queries) {
    if (!q.ok) continue;
    if (q.latency_sample) latency_ms.push_back(q.latency_cycles * ms_per_cycle);
    if (q.vgpu) {
      tuples += static_cast<double>(q.input_tuples);
      cycles += q.sim_cycles;
      peak = std::max(peak, q.peak_bytes);
    }
  }
  auto extra = [&](const char* key, double fallback) {
    auto it = p0.extra.find(key);
    return it == p0.extra.end() ? fallback : it->second;
  };
  const auto [tail, tail_pct] = Tail(latency_ms);

  char tail_note[64];
  std::snprintf(tail_note, sizeof(tail_note), "p%.2f of %zu queries", tail_pct,
                latency_ms.size());
  std::vector<Metric> m = {
      {"sim_mtuples_s", Ratio(tuples, cycles / run.clock_hz) / 1e6, "Mtuples/s",
       "sim", ""},
      {"query_sim_ms_p50", Median(latency_ms), "ms", "sim",
       std::to_string(latency_ms.size()) + " queries"},
      {"query_sim_ms_tail", tail, "ms", "sim", tail_note},
      {"makespan_sim_ms",
       extra("makespan_sim_ms", p0.sim_total_cycles * ms_per_cycle), "ms", "sim",
       ""},
      {"setup_s", Median(run.setup_walls), "s", "host",
       "median of " + std::to_string(run.setup_walls.size()) + " set-ups"},
      {"peak_rss_mb", run.peak_rss_mb, "MB", "host", ""},
      {"peak_device_mb", extra("peak_device_mb", static_cast<double>(peak) / 1e6),
       "MB", "sim", ""},
  };
  return m;
}

/// Metrics printed with the end-to-end set but left out of the JSON line:
/// they are 0 in a healthy run, exist on one workload only, or time the
/// measured passes on the host. On a shared machine the host's speed
/// drifts by a third within minutes, in CPU seconds as much as in wall
/// seconds, so pass times cannot hold an end-to-end bound; the traced run
/// reports them as per-layer figures instead.
std::vector<Metric> EndToEndPrintOnly(const RunData& run) {
  std::vector<double> host_s;
  std::vector<double> cpux_rate;
  for (size_t i = 0; i < UntracedPasses(run); ++i) {
    host_s.push_back(run.passes[i].host_s);
    cpux_rate.push_back(CpuxWallRate(run.passes[i]));
  }
  std::vector<Metric> m = {
      {"failed_frac", Ratio(static_cast<double>(run.failed),
                            static_cast<double>(run.attempted)),
       "ratio", "-", ""},
      {"host_s", Median(host_s), "s", "host",
       "median of " + std::to_string(host_s.size()) + " passes"},
      {"cpux_mtuples_s", Median(cpux_rate), "Mtuples/s", "host", ""}};
  const PassResult& p0 = run.passes.front();
  if (auto it = p0.extra.find("sustained_qps_sim"); it != p0.extra.end()) {
    m.push_back({"sustained_qps_sim", it->second, "1/s", "sim",
                 "latency limit " +
                     std::to_string(Get(p0.extra, "latency_limit_sim_ms")) + " ms"});
  }
  return m;
}

/// The sum-back ledger of a traced run. The host parts add up to the wall
/// seconds of the traced set-up plus the traced pass less
/// ledger.host_remainder_s; the sim parts add up to the traced pass's
/// simulated total less ledger.sim_remainder_ms.
const char* const kLedgerHostParts[] = {
    "workload.gen_s",      "storage.upload_s",
    "storage.download_s",  "setup.construct_s",
    "vgpu.kernel_host_s",  "join.host_outside_kernels_s",
    "groupby.host_outside_kernels_s", "cpux.call_host_s",
    "stats.estimate_host_s", "ops.route_host_s",
    "service.submit_host_s", "service.sched_host_s",
};
const char* const kLedgerSimParts[] = {
    "join.transform_sim_ms",    "join.match_sim_ms",
    "join.materialize_sim_ms",  "groupby.transform_sim_ms",
    "groupby.aggregate_sim_ms", "groupby.emit_sim_ms",
    "vgpu.nonkernel_sim_ms",
};

/// Every per-layer figure of a traced run, keyed by metric name.
Acc PerLayer(const RunData& run) {
  const PassResult& u = run.passes.front();
  const PassResult& t = run.passes.back();
  const Acc& setup = run.setup_acc;
  const double ms_per_cycle = 1e3 / run.clock_hz;
  // Host seconds cover the traced set-up plus the traced pass.
  auto both = [&](const std::string& key) { return Get(setup, key) + Get(t.acc, key); };
  auto outside = [&](const std::string& layer) {
    return both(layer + ".call_host_s") - both(layer + ".kernel_host_s");
  };
  Acc m;
  m["host_s"] = u.host_s;
  m["cpux_mtuples_s"] = CpuxWallRate(u);
  m["workload.gen_s"] = both("workload.call_host_s");
  m["storage.upload_s"] = outside("upload");
  m["storage.download_s"] = outside("download");
  m["setup.construct_s"] = outside("setup");
  m["vgpu.kernel_host_s"] = both("vgpu.kernel_host_s");
  m["vgpu.kernel_cpu_s"] = both("vgpu.kernel_cpu_s");
  m["vgpu.parallel_eff"] = Ratio(m["vgpu.kernel_cpu_s"],
                                 m["vgpu.kernel_host_s"] * run.header.sim_threads);

  const gpujoin::vgpu::KernelStats& s = t.stats;
  const double pass_kernel_host = Get(t.acc, "vgpu.kernel_host_s");
  m["vgpu.host_ns_per_sector"] =
      Ratio(pass_kernel_host * 1e9, static_cast<double>(s.sectors));
  m["vgpu.host_ns_per_warp_inst"] =
      Ratio(pass_kernel_host * 1e9, static_cast<double>(s.warp_instructions));
  m["vgpu.l2_hit_rate"] = s.L2HitRate();
  m["vgpu.sectors_per_request"] = s.AvgSectorsPerRequest();
  m["vgpu.dram_sectors"] = static_cast<double>(s.dram_sectors);
  m["vgpu.dram_row_misses"] = static_cast<double>(s.dram_row_misses);
  m["vgpu.atomic_serializations"] = static_cast<double>(s.atomic_serializations);
  m["vgpu.kernels"] = Get(t.acc, "vgpu.kernels");
  m["vgpu.nonkernel_sim_ms"] = (t.sim_total_cycles - s.cycles) * ms_per_cycle;

  for (const char* k : kTrackedKernels) {
    m[std::string("kernel.") + k + ".host_s"] = 0;
    m[std::string("kernel.") + k + ".sim_ms"] = 0;
  }
  for (const auto& [name, k] : t.kernels) {
    m["kernel." + name + ".host_s"] = k.host_s;
    m["kernel." + name + ".sim_ms"] = k.cycles * ms_per_cycle;
  }

  for (const char* key :
       {"join.transform_sim_ms", "join.match_sim_ms", "join.materialize_sim_ms",
        "groupby.transform_sim_ms", "groupby.aggregate_sim_ms",
        "groupby.emit_sim_ms", "cpux.transform_s", "cpux.match_s",
        "cpux.materialize_s", "cpux.peak_mb", "ops.backend_fallbacks"}) {
    m[key] = Get(t.acc, key);
  }
  for (const char* layer : {"join", "groupby"}) {
    const std::string l = layer;
    m[l + ".call_host_s"] = both(l + ".call_host_s");
    m[l + ".host_outside_kernels_s"] = outside(l);
  }
  m["cpux.cpu_over_wall"] = Ratio(Get(t.acc, "cpux.cpu_s"), Get(t.acc, "cpux.wall_s"));
  m["cpux.call_host_s"] = both("cpux.call_host_s") + both("service.drain.cpux_s");
  m["stats.estimate_host_s"] = outside("stats");
  m["ops.route_host_s"] = outside("ops");
  m["ops.route_host_us"] =
      Ratio(Get(t.acc, "ops.call_host_s") * 1e6, Get(t.acc, "ops.route_calls"));
  m["ops.route_cpux_frac"] =
      Ratio(Get(t.acc, "ops.routed_cpux"), Get(t.acc, "ops.routed"));

  std::vector<double> over;
  for (const QueryRecord& q : t.queries) {
    if (q.vgpu && q.ok && q.estimate_bytes > 0 && q.peak_bytes > 0) {
      over.push_back(static_cast<double>(q.estimate_bytes) /
                     static_cast<double>(q.peak_bytes));
    }
  }
  m["stats.estimate_over_peak"] = Median(over);

  m["service.submit_host_s"] = outside("service.submit");
  m["service.drain_host_s"] = both("service.drain.call_host_s");
  m["service.sched_host_s"] = both("service.drain.call_host_s") -
                              both("service.drain.kernel_host_s") -
                              both("service.drain.cpux_s");
  for (const char* key :
       {"service.wait_sim_ms_p50.batch", "service.wait_sim_ms_p50.interactive",
        "service.run_sim_ms_p50.batch", "service.run_sim_ms_p50.interactive",
        "service.preemptions", "service.turns_per_fragment", "service.queued_frac",
        "service.rejected_frac", "resilience.attempts_per_query"}) {
    m[key] = Get(t.acc, key);
  }
  m["obs.trace_overhead_frac"] = Ratio(t.host_s, u.host_s) - 1.0;
  for (const auto& [name, v] : run.entry_probe) m["ops.entry_sim_ms." + name] = v;

  m["ledger.host_total_s"] = run.setup_walls.back() + t.host_s;
  m["ledger.host_remainder_s"] = m["ledger.host_total_s"];
  for (const char* part : kLedgerHostParts) m["ledger.host_remainder_s"] -= m[part];
  m["ledger.sim_total_ms"] = t.sim_total_cycles * ms_per_cycle;
  m["ledger.sim_remainder_ms"] = m["ledger.sim_total_ms"];
  for (const char* part : kLedgerSimParts) m["ledger.sim_remainder_ms"] -= m[part];
  return m;
}

std::string Num(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string Escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

std::string MetricsJson(const std::vector<Metric>& ms, bool with_clock) {
  std::string out = "{";
  for (size_t i = 0; i < ms.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + ms[i].name + "\": {\"value\": " + Num(ms[i].value) +
           ", \"unit\": \"" + ms[i].unit + "\"";
    if (with_clock) {
      out += ", \"clock\": \"" + ms[i].clock + "\"";
      if (!ms[i].note.empty()) out += ", \"note\": \"" + Escape(ms[i].note) + "\"";
    }
    out += "}";
  }
  return out + "}";
}

void PrintMetrics(const char* tag, const std::vector<Metric>& ms) {
  for (const Metric& m : ms) {
    std::printf("[%s] %-40s %16.6f %-10s clock=%-4s %s\n", tag, m.name.c_str(),
                m.value, m.unit.c_str(), m.clock.c_str(), m.note.c_str());
  }
}

}  // namespace

void CheckOutputs(const std::vector<RowDigest>& oracles, RunData* run) {
  for (size_t p = 0; p < run->passes.size(); ++p) {
    const PassResult& pass = run->passes[p];
    for (const QueryRecord& q : pass.queries) {
      ++run->attempted;
      const bool match = q.oracle < 0 || (q.oracle < static_cast<int>(oracles.size()) &&
                                          q.output == oracles[q.oracle]);
      if (q.ok && match) continue;
      ++run->failed;
      if (run->failures.size() < 20) {
        run->failures.push_back("pass " + std::to_string(p) + ": " + q.name +
                                (q.ok ? " (output differs from oracle)" : " (failed)"));
      }
    }
  }
}

int Report(const RunData& run, const std::string& results_path) {
  const RunHeader& h = run.header;
  char header[512];
  std::snprintf(header, sizeof(header),
                "{\"workload\": \"%s\", \"seed\": %" PRIu64
                ", \"trace\": %d, \"nproc\": %d, \"sim_threads\": %d, "
                "\"cpux_threads\": %d, \"gpujoin_scale\": %d, \"build_type\": "
                "\"%s\", \"compiler\": \"%s\", \"passes\": %zu}",
                h.workload.c_str(), h.seed, h.trace ? 1 : 0, h.nproc, h.sim_threads,
                h.cpux_threads, h.scale_log2, h.build_type.c_str(),
                h.compiler.c_str(), run.passes.size());
  std::printf("[header] %s\n", header);

  std::printf("[setup]");
  for (double w : run.setup_walls) std::printf(" %.6f", w);
  std::printf(" s\n");
  for (size_t i = 0; i < run.passes.size(); ++i) {
    const PassResult& p = run.passes[i];
    std::printf("[pass] %zu host_s %.6f cpux_mtuples_s %.6f kernel_host_s %.6f\n", i,
                p.host_s, CpuxWallRate(p), Get(p.acc, "vgpu.kernel_host_s"));
  }
  std::vector<Metric> e2e = EndToEnd(run);
  const std::vector<Metric> print_only = EndToEndPrintOnly(run);
  PrintMetrics("e2e", e2e);
  PrintMetrics("e2e", print_only);

  std::vector<Metric> layers;
  std::vector<Metric> hot_kernels;
  if (h.trace) {
    const Acc all = PerLayer(run);
    auto add = [&](const std::string& name) {
      const auto [unit, clock] = UnitOf(name);
      layers.push_back({name, Get(all, name), unit, clock, ""});
    };
    for (const char* name : kPerLayer) add(name);
    for (const char* k : kTrackedKernels) {
      add(std::string("kernel.") + k + ".host_s");
      add(std::string("kernel.") + k + ".sim_ms");
    }
    PrintMetrics("layer", layers);

    const PassResult& t = run.passes.back();
    const double kernel_host = Get(t.acc, "vgpu.kernel_host_s");
    for (const auto& [name, k] : t.kernels) {
      if (k.host_s < 0.01 * kernel_host) continue;
      hot_kernels.push_back({"kernel." + name + ".host_s", k.host_s, "s", "host",
                             std::to_string(k.invocations) + " launches"});
      hot_kernels.push_back({"kernel." + name + ".sim_ms",
                             k.cycles * 1e3 / run.clock_hz, "ms", "sim", ""});
    }
    PrintMetrics("hot-kernel", hot_kernels);
    for (const auto& [name, k] : t.kernels) {
      if (k.host_s >= 0.01 * kernel_host &&
          std::find(std::begin(kTrackedKernels), std::end(kTrackedKernels), name) ==
              std::end(kTrackedKernels)) {
        std::printf("[hot-kernel] %s takes >= 1%% of kernel host time but is not "
                    "tracked in the JSON line\n",
                    name.c_str());
      }
    }

    std::printf("[ledger] host: %.6f s = sum of %zu layer parts + remainder %.6f s\n",
                all.at("ledger.host_total_s"), std::size(kLedgerHostParts),
                all.at("ledger.host_remainder_s"));
    std::printf("[ledger] sim: %.6f ms = sum of %zu phase parts + remainder %.6f ms\n",
                all.at("ledger.sim_total_ms"), std::size(kLedgerSimParts),
                all.at("ledger.sim_remainder_ms"));
  }

  char digest[32];
  std::snprintf(digest, sizeof(digest), "%016" PRIx64, run.passes.front().sim_digest);
  std::printf("[check] sim_digest %s\n", digest);
  std::printf("[check] attempted %" PRIu64 " failed %" PRIu64 " oracle_s %.3f\n",
              run.attempted, run.failed, run.oracle_s);
  for (const std::string& f : run.failures) std::printf("[check] FAIL %s\n", f.c_str());

  if (FILE* f = std::fopen(results_path.c_str(), "w")) {
    std::vector<Metric> all_e2e = e2e;
    all_e2e.insert(all_e2e.end(), print_only.begin(), print_only.end());
    std::fprintf(f,
                 "{\"header\": %s,\n \"sim_digest\": \"%s\",\n \"attempted\": %" PRIu64
                 ", \"failed\": %" PRIu64 ",\n \"end_to_end\": %s,\n \"per_layer\": "
                 "%s,\n \"hot_kernels\": %s}\n",
                 header, digest, run.attempted, run.failed,
                 MetricsJson(all_e2e, true).c_str(), MetricsJson(layers, true).c_str(),
                 MetricsJson(hot_kernels, true).c_str());
    std::fclose(f);
  }

  const bool correct = run.failed == 0;
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
              ", \"metrics\": %s}\n",
              correct ? "true" : "false", run.attempted, run.failed,
              MetricsJson(h.trace ? layers : e2e, false).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace perfbench
