// Adversarial multi-tenant soak for the query scheduler (DESIGN.md §13).
//
// Each round drives one hog tenant (large, fragmented, low-priority joins)
// against several interactive tenants (small, high-priority queries that
// arrive mid-round and run nested at the hog's seams) through a
// QueryService whose budget shrinks round over round. Cancel-at-kernel
// trips, tight deadlines, and arrival times are salted from a seed
// (GPUJOIN_SOAK_SEED or --seed; printed on failure so any run reproduces).
//
// After every round the soak asserts the scheduler's invariants:
//   * reserved_bytes() returns to 0 whatever the mix of outcomes,
//   * the device has zero outstanding allocations (CheckNoLeaks),
//   * every outcome is structured (OK / Cancelled / DeadlineExceeded /
//     ResourceExhausted / OutOfMemory / TenantOverQuota) — never Internal,
//   * preemption discards nothing: no query takes more fragment turns than
//     its plan has fragments, and over the completed queries
//     Σ fragment_turns == Σ fragments_total,
//   * the obs::MetricsRegistry telemetry reconciles with ground truth:
//     admissions == terminal outcomes == submissions, scheduler turns ==
//     the sum of per-query fragment turns == backend resolutions, and each
//     tenant's service_wait_cycles histogram has exactly one sample per
//     outcome with the exact p95 inside the histogram's quantile bracket,
//   * latency fairness: interactive p95 wait stays a small fraction of the
//     hog's round makespan even though the hog was submitted first.
// A post-round phase routes a few operators through ops::Router and checks
// the router telemetry reconciles too (decisions == routed ops).
//
// When GPUJOIN_JSON_DIR is non-empty (default bench/results) the soak also
// emits BENCH_scheduler_soak.json (one row per round) plus
// METRICS_scheduler_soak.json/.prom written WITHOUT host-timing samples,
// so the exported bytes are identical at every GPUJOIN_SIM_THREADS — the
// replay-stability diff scripts/reproduce.sh --metrics performs.
//
// Exits 0 on success, 1 with a report (and the seed) on the first
// violated invariant.
//
// --chaos switches to the transient-fault soak: each round re-runs a fixed
// query mix three times on fresh devices — a fault-free reference pass, a
// chaos pass with seeded kernel faults (probabilistic injector on even
// rounds, an always-tripping watchdog on every third round), and a replay
// of the chaos pass. Invariants per round:
//   * every outcome is terminal and structured (kUnavailable now included),
//   * every OK chaos outcome's rows are bit-identical to the fault-free
//     reference — retried and hedged fragments change nothing,
//   * reserved_bytes() == 0 and CheckNoLeaks() after every pass,
//   * breaker/hedge double-entry reconciles: health().trips() ==
//     service_breaker_trips_total == transitions{to="open"}, and hedge
//     decisions == hedged fragment turns == the outcomes' hedged counts,
//   * the replay pass is bit-identical to the chaos pass (statuses, rows,
//     clock, breaker history).
//
// Run via `scripts/reproduce.sh --scheduler` / `--chaos` or directly:
//   ./build/tools/lifecycle_soak [rounds] [--seed N] [--chaos]

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "groupby/groupby.h"
#include "harness/harness.h"
#include "join/join.h"
#include "join/reference.h"
#include "obs/metrics.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "ops/operator.h"
#include "ops/router.h"
#include "service/query_service.h"
#include "storage/table.h"
#include "vgpu/device.h"
#include "workload/generator.h"

namespace gpujoin {
namespace {

uint64_t SplitMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

uint64_t g_seed = 0;

int Fail(const std::string& what) {
  std::fprintf(stderr,
               "lifecycle_soak: FAIL (reproduce with --seed %llu): %s\n",
               static_cast<unsigned long long>(g_seed), what.c_str());
  return 1;
}

bool IsStructuredOutcome(const Status& s) {
  return s.ok() || s.IsLifecycleStop() || s.IsResourceExhausted() ||
         s.IsTenantOverQuota() || s.code() == StatusCode::kOutOfMemory ||
         s.code() == StatusCode::kInvalidArgument || s.IsUnavailable();
}

/// Sum of all counter cells named `name` whose label set contains
/// (label_key, label_value) — e.g. every transitions{..., to="open"} cell
/// across backends and fault kinds.
uint64_t SumCounterWithLabel(const obs::MetricsSnapshot& snap,
                             const std::string& name,
                             const std::string& label_key,
                             const std::string& label_value) {
  uint64_t total = 0;
  for (const auto& [key, cell] : snap.cells) {
    if (key.name != name || cell.type != obs::MetricType::kCounter) continue;
    for (const auto& [k, v] : key.labels) {
      if (k == label_key && v == label_value) {
        total += cell.counter;
        break;
      }
    }
  }
  return total;
}

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t idx = static_cast<size_t>(p * static_cast<double>(v.size() - 1));
  return v[idx];
}

/// Nearest-rank order statistic, matching the rank convention the
/// registry's HistogramData::QuantileUpperBound/LowerBound bracket: the
/// ceil(q*n)-th smallest sample (1-based).
double NearestRank(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  if (rank < 1) rank = 1;
  if (rank > v.size()) rank = v.size();
  return v[rank - 1];
}

int Run(int rounds) {
  using service::QueryKind;
  using service::QueryRequest;
  using service::QueryService;
  using service::ServiceOptions;

  // Shared inputs, generated once. The hog join is an order of magnitude
  // heavier than the interactive queries.
  workload::JoinWorkloadSpec hog_spec;
  hog_spec.r_rows = uint64_t{1} << 11;
  hog_spec.s_rows = uint64_t{1} << 12;
  hog_spec.seed = 17;
  auto hog_w = workload::GenerateJoinInput(hog_spec);
  GPUJOIN_CHECK_OK(hog_w.status());

  workload::JoinWorkloadSpec small_spec;
  small_spec.r_rows = uint64_t{1} << 8;
  small_spec.s_rows = uint64_t{1} << 9;
  small_spec.seed = 19;
  auto small_w = workload::GenerateJoinInput(small_spec);
  GPUJOIN_CHECK_OK(small_w.status());

  workload::GroupByWorkloadSpec gspec;
  gspec.rows = uint64_t{1} << 10;
  gspec.num_groups = uint64_t{1} << 5;
  gspec.seed = 23;
  auto gin = workload::GenerateGroupByInput(gspec);
  GPUJOIN_CHECK_OK(gin.status());

  // GPUJOIN_SIM_THREADS fans out the block simulation; the scheduler
  // contract says not one scheduling decision may change.
  vgpu::Device device(vgpu::DeviceConfig::ScaledToWorkload(
      vgpu::DeviceConfig::A100(), uint64_t{1} << 16));
  device.set_parallel_sim(harness::SimThreadsFromEnv());

  const uint64_t hog_need =
      stats::EstimateJoinMemory(hog_w->r, hog_w->s).total_bytes();
  const uint64_t small_need =
      stats::EstimateJoinMemory(small_w->r, small_w->s).total_bytes();

  // Pin the hog's solo makespan once so salted arrival times land mid-run.
  // The probe goes through the service with the same fragmentation the
  // rounds use: a fragmented run is dominated by per-fragment PCIe
  // transfers, so the raw kernel cost would understate it by ~200x.
  double hog_solo_cycles = 0;
  {
    vgpu::Device probe(vgpu::DeviceConfig::ScaledToWorkload(
        vgpu::DeviceConfig::A100(), uint64_t{1} << 16));
    probe.set_parallel_sim(harness::SimThreadsFromEnv());
    QueryService solo(probe);
    QueryRequest req;
    req.name = "probe";
    req.kind = QueryKind::kJoin;
    req.join_algo = join::JoinAlgo::kPhjOm;
    req.r = &hog_w->r;
    req.s = &hog_w->s;
    req.fragment_bits_override = 3;
    GPUJOIN_CHECK_OK(solo.Submit(std::move(req)).status());
    GPUJOIN_CHECK_OK(solo.Drain());
    hog_solo_cycles = probe.elapsed_cycles();
  }

  obs::Tracer& tracer = obs::Tracer::Global();
  tracer.set_enabled(true);

  // The soak owns the process, so it owns the process-wide registry and
  // metrics sink: start both from zero, meter every round through them,
  // and export the snapshot at the end. The probe above ran before the
  // Clear() so its telemetry does not pollute the round accounting.
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  reg.Clear();
  obs::MetricsSink& sink = obs::MetricsSink::Global();
  sink.Clear();
  sink.Configure("scheduler_soak", "adversarial multi-tenant scheduler soak",
                 device.config().name, 16);

  uint64_t total_ok = 0, total_cancelled = 0, total_deadline = 0;
  uint64_t total_backpressure = 0, total_preemptions = 0;

  for (int round = 0; round < rounds; ++round) {
    tracer.Clear();
    const uint64_t salt = SplitMix64(g_seed ^ static_cast<uint64_t>(round));
    const obs::MetricsSnapshot before = reg.Snapshot();
    const double round_cycles0 = device.elapsed_cycles();
    const vgpu::KernelStats round_stats0 = device.total_stats();

    ServiceOptions opts;
    // Budget shrinks round over round: 3x -> 2x -> 1.5x -> 1.2x the hog's
    // footprint, so early rounds interleave freely and late rounds force
    // queueing, borrowing, and tenant backpressure.
    const double scale[] = {3.0, 2.0, 1.5, 1.2};
    opts.budget_bytes =
        static_cast<uint64_t>(static_cast<double>(hog_need) *
                              scale[round % 4]);
    opts.max_queue = 8;
    // The hog gets most of the budget; interactive tenants split the rest
    // with bounded borrowing; "greedy" is deliberately quota-starved so
    // some of its submissions draw kTenantOverQuota backpressure.
    opts.tenants.push_back({"hog", opts.budget_bytes, 0, 2});
    opts.tenants.push_back({"int0", small_need * 2, small_need, 4});
    opts.tenants.push_back({"int1", small_need * 2, small_need, 4});
    opts.tenants.push_back({"greedy", small_need / 3, 0, 2});
    opts.scheduler.seed = salt;
    QueryService svc(device, opts);
    const double round_start = device.elapsed_cycles();

    // The hog submits first and would monopolize the device in admission
    // order; fragmentation + DWRR + priority preemption must prevent that.
    for (int h = 0; h < 2; ++h) {
      QueryRequest req;
      req.name = "r" + std::to_string(round) + "hog" + std::to_string(h);
      req.kind = QueryKind::kJoin;
      req.join_algo = join::JoinAlgo::kPhjOm;
      req.r = &hog_w->r;
      req.s = &hog_w->s;
      req.tenant = "hog";
      req.priority = 0;
      req.fragment_bits_override = 3;
      GPUJOIN_CHECK_OK(svc.Submit(std::move(req)).status());
    }

    const join::JoinAlgo algos[] = {join::JoinAlgo::kNphj,
                                    join::JoinAlgo::kPhjOm,
                                    join::JoinAlgo::kSmjUm};
    const char* tenants[] = {"int0", "int1", "greedy"};
    for (int q = 0; q < 9; ++q) {
      const uint64_t qsalt = SplitMix64(salt ^ static_cast<uint64_t>(q + 1));
      QueryRequest req;
      req.name = "r" + std::to_string(round) + "q" + std::to_string(q);
      if (q % 3 == 2) {
        req.kind = QueryKind::kGroupBy;
        req.r = &*gin;
        req.groupby_spec.aggregates = {{1, groupby::AggOp::kSum}};
      } else {
        req.kind = QueryKind::kJoin;
        req.join_algo = algos[qsalt % 3];
        req.r = &small_w->r;
        req.s = &small_w->s;
      }
      req.tenant = tenants[q % 3];
      req.priority = 5;  // Interactive tier outranks the hog.
      // Salted arrival inside the hog's makespan: models async submissions
      // racing the drain and forces preemption at the hog's seams.
      req.arrival_cycles =
          round_start + static_cast<double>(qsalt % 1000) / 1000.0 *
                            hog_solo_cycles * 1.5;
      // Salted lifecycle trips: some queries cancel at a kernel boundary,
      // some carry a deadline that may fire mid-fragment.
      if (qsalt % 4 == 1) {
        req.lifecycle.cancel_at_kernel = 1 + qsalt % 7;
      }
      // The interactive joins run ~300-1500 cycles, so a 400-cycle
      // deadline lands mid-run for most algorithms and must unwind
      // cleanly; the fastest queries beat it, which is also fine.
      if (qsalt % 5 == 2) req.lifecycle.deadline_cycles = 400;
      GPUJOIN_CHECK_OK(svc.Submit(std::move(req)).status());
    }
    const uint64_t submissions = 2 + 9;

    Status drained = svc.Drain();
    if (!drained.ok()) return Fail("Drain: " + drained.ToString());

    // --- Invariants -------------------------------------------------------
    if (svc.reserved_bytes() != 0) {
      return Fail("round " + std::to_string(round) + ": reserved_bytes = " +
                  std::to_string(svc.reserved_bytes()) + " after Drain");
    }
    for (const auto& [name, t] : svc.tenants()) {
      if (t.stats.reserved_bytes != 0 || t.stats.borrowed_bytes != 0 ||
          t.stats.queued != 0) {
        return Fail("round " + std::to_string(round) + ": tenant '" + name +
                    "' accounting not drained");
      }
    }
    Status leaks = device.CheckNoLeaks();
    if (!leaks.ok()) {
      return Fail("round " + std::to_string(round) + ": " + leaks.ToString());
    }
    double hog_makespan = 0;
    uint64_t fragment_turns = 0;
    uint64_t ok_turns = 0, ok_fragments = 0;
    uint64_t round_output_rows = 0;
    std::map<std::string, std::vector<double>> tenant_wait;
    for (const auto& out : svc.outcomes()) {
      if (!IsStructuredOutcome(out.status)) {
        return Fail("query " + out.name + ": unstructured outcome " +
                    out.status.ToString());
      }
      if (out.status.ok()) ++total_ok;
      if (out.status.IsCancelled()) ++total_cancelled;
      if (out.status.IsDeadlineExceeded()) ++total_deadline;
      if (out.status.IsTenantOverQuota() || out.status.IsResourceExhausted())
        ++total_backpressure;
      total_preemptions += static_cast<uint64_t>(out.preemptions);
      fragment_turns += static_cast<uint64_t>(out.fragment_turns);
      if (out.fragment_turns > out.fragments_total) {
        return Fail("query " + out.name + " took " +
                    std::to_string(out.fragment_turns) + " turns for " +
                    std::to_string(out.fragments_total) +
                    " fragments: a fragment ran twice");
      }
      if (out.status.ok()) {
        ok_turns += static_cast<uint64_t>(out.fragment_turns);
        ok_fragments += static_cast<uint64_t>(out.fragments_total);
      }
      round_output_rows += out.output_rows;
      tenant_wait[out.tenant].push_back(out.wait_cycles);
      if (out.tenant == "hog" && out.finished_at_cycles > 0) {
        hog_makespan = std::max(
            hog_makespan, out.finished_at_cycles - out.submitted_at_cycles);
      }
    }

    if (ok_turns != ok_fragments) {
      return Fail("round " + std::to_string(round) +
                  ": completed queries took " + std::to_string(ok_turns) +
                  " fragment turns for " + std::to_string(ok_fragments) +
                  " fragments");
    }

    // --- Telemetry reconciliation -----------------------------------------
    // The per-round registry delta must agree with the service's own ground
    // truth: the metrics layer is only trustworthy if it cannot drift.
    const obs::MetricsSnapshot delta = reg.Snapshot().Delta(before);
    const uint64_t adm = delta.CounterTotal("service_admissions_total");
    const uint64_t outc = delta.CounterTotal("service_outcomes_total");
    if (adm != submissions || outc != submissions) {
      return Fail("round " + std::to_string(round) +
                  ": admission/outcome counters do not reconcile: "
                  "admissions=" +
                  std::to_string(adm) + " outcomes=" + std::to_string(outc) +
                  " submissions=" + std::to_string(submissions));
    }
    const uint64_t turns = delta.CounterTotal("sched_turns_total");
    const uint64_t resolved =
        delta.CounterTotal("service_backend_resolved_total");
    if (turns != fragment_turns || resolved != fragment_turns) {
      return Fail("round " + std::to_string(round) +
                  ": turn counters do not reconcile: sched_turns=" +
                  std::to_string(turns) + " backend_resolved=" +
                  std::to_string(resolved) + " fragment_turns=" +
                  std::to_string(fragment_turns));
    }

    // --- Per-tenant latency, re-derived from the registry -----------------
    // One wait sample lands in service_wait_cycles{tenant} per terminal
    // outcome, and the log-linear histogram's p95 bracket must contain the
    // exact nearest-rank p95 computed from the outcomes themselves.
    std::string report = "round " + std::to_string(round) +
                         ": budget=" + std::to_string(opts.budget_bytes);
    std::vector<double> interactive_wait;
    for (const auto& [tenant, waits] : tenant_wait) {
      const obs::HistogramData* hist =
          delta.Histogram("service_wait_cycles", {{"tenant", tenant}});
      if (hist == nullptr) {
        return Fail("round " + std::to_string(round) + ": tenant '" + tenant +
                    "' has no service_wait_cycles histogram");
      }
      if (hist->count != waits.size()) {
        return Fail("round " + std::to_string(round) + ": tenant '" + tenant +
                    "' wait histogram count " + std::to_string(hist->count) +
                    " != " + std::to_string(waits.size()) + " outcomes");
      }
      const double exact_p95 = NearestRank(waits, 0.95);
      const double lo = hist->QuantileLowerBound(0.95);
      const double hi = hist->QuantileUpperBound(0.95);
      if (exact_p95 < lo - 1e-9 || exact_p95 > hi + 1e-9) {
        return Fail("round " + std::to_string(round) + ": tenant '" + tenant +
                    "' exact wait p95 " + std::to_string(exact_p95) +
                    " outside histogram bracket [" + std::to_string(lo) +
                    ", " + std::to_string(hi) + "]");
      }
      char tbuf[160];
      std::snprintf(tbuf, sizeof(tbuf),
                    "  %s{n=%llu wait_p50<=%.0f wait_p95<=%.0f}",
                    tenant.c_str(),
                    static_cast<unsigned long long>(hist->count),
                    hist->QuantileUpperBound(0.5), hi);
      report += tbuf;
      if (tenant == "int0" || tenant == "int1") {
        interactive_wait.insert(interactive_wait.end(), waits.begin(),
                                waits.end());
      }
    }
    std::printf("lifecycle_soak: %s\n", report.c_str());

    // Latency fairness: the interactive tenants were submitted AFTER two
    // hog queries, yet their p95 wait must stay bounded by ONE hog query's
    // solo runtime. When the budget fits both hogs, nested preemption at
    // the hog's seams keeps waits near zero; when the hogs hold the
    // whole budget, an interactive waits at most for the first release,
    // which focus-on-completion scheduling caps near the solo runtime
    // (interleaving would double it). Admission order must never dictate
    // service order.
    const double p95 = Percentile(interactive_wait, 0.95);
    const double wait_bound = 1.25 * hog_solo_cycles;
    if (hog_makespan > 0 && !interactive_wait.empty() && p95 > wait_bound) {
      return Fail("round " + std::to_string(round) +
                  ": interactive wait p95 " + std::to_string(p95) +
                  " exceeds bound " + std::to_string(wait_bound) +
                  " (1.25x hog solo " + std::to_string(hog_solo_cycles) +
                  ", hog makespan " + std::to_string(hog_makespan) + ")");
    }

    // --- One BENCH_scheduler_soak.json row per round ----------------------
    // Everything here derives from simulated state, so the row is
    // bit-identical on replay and at every GPUJOIN_SIM_THREADS.
    const double round_cycles = device.elapsed_cycles() - round_cycles0;
    vgpu::KernelStats round_stats = device.total_stats();
    round_stats.Sub(round_stats0);
    obs::MetricRow row;
    row.algo = "soak-round";
    row.backend = "vgpu";
    row.params = {{"round", std::to_string(round)},
                  {"budget_bytes", std::to_string(opts.budget_bytes)},
                  {"seed", std::to_string(g_seed)}};
    row.total_cycles = round_cycles;
    const double round_seconds = device.config().CyclesToSeconds(round_cycles);
    row.mtuples_per_sec =
        round_seconds > 0
            ? static_cast<double>(round_output_rows) / 1e6 / round_seconds
            : 0;
    row.l2_hit_rate =
        round_stats.sectors > 0
            ? static_cast<double>(round_stats.l2_hit_sectors) /
                  static_cast<double>(round_stats.sectors)
            : 0;
    row.peak_mem_bytes = opts.budget_bytes;
    row.output_rows = round_output_rows;
    row.stats = round_stats;
    sink.AddRow(row);
  }

  // --- Router telemetry reconciliation ------------------------------------
  // A short routed phase after the rounds: every RunJoin/RunGroupBy entry
  // must meter exactly one decision and exactly one routed op, whatever
  // backend the cost model picks.
  {
    const obs::MetricsSnapshot before = reg.Snapshot();
    ops::Router router(device);
    for (int j = 0; j < 2; ++j) {
      ops::JoinOp op;
      op.algo = join::JoinAlgo::kPhjOm;
      op.r = &small_w->r;
      op.s = &small_w->s;
      auto run = router.RunJoin(op);
      if (!run.ok()) return Fail("router join: " + run.status().ToString());
    }
    ops::GroupByOp gop;
    gop.input = &*gin;
    gop.spec.aggregates = {{1, groupby::AggOp::kSum}};
    auto grun = router.RunGroupBy(gop);
    if (!grun.ok()) return Fail("router groupby: " + grun.status().ToString());

    const obs::MetricsSnapshot delta = reg.Snapshot().Delta(before);
    const uint64_t decisions = delta.CounterTotal("router_decisions_total");
    const uint64_t routed = delta.CounterTotal("router_ops_total");
    const uint64_t executed = delta.CounterTotal("ops_executed_total");
    if (decisions != 3 || routed != 3 || executed != 3) {
      return Fail("router counters do not reconcile: decisions=" +
                  std::to_string(decisions) + " routed_ops=" +
                  std::to_string(routed) + " executed=" +
                  std::to_string(executed) + " (expected 3 each)");
    }
  }

  tracer.set_enabled(false);
  std::printf(
      "lifecycle_soak: OK (%d rounds, seed %llu: %llu ok, %llu cancelled, "
      "%llu deadline-exceeded, %llu backpressured, %llu preemptions; "
      "budget returned to 0, zero leaks, and telemetry reconciled every "
      "round)\n",
      rounds, static_cast<unsigned long long>(g_seed),
      static_cast<unsigned long long>(total_ok),
      static_cast<unsigned long long>(total_cancelled),
      static_cast<unsigned long long>(total_deadline),
      static_cast<unsigned long long>(total_backpressure),
      static_cast<unsigned long long>(total_preemptions));
  // The soak is only meaningful if it exercised every outcome class the
  // scheduler can produce.
  if (total_ok == 0 || total_cancelled == 0 || total_deadline == 0 ||
      total_backpressure == 0 || total_preemptions == 0) {
    return Fail("soak never exercised some outcome class (ok=" +
                std::to_string(total_ok) + " cancelled=" +
                std::to_string(total_cancelled) + " deadline=" +
                std::to_string(total_deadline) + " backpressure=" +
                std::to_string(total_backpressure) + " preemptions=" +
                std::to_string(total_preemptions) + ")");
  }

  // --- Artifact export -----------------------------------------------------
  // METRICS artifacts are written WITHOUT host-timing samples so the bytes
  // are identical at every GPUJOIN_SIM_THREADS setting — reproduce.sh
  // --metrics diffs the 1-thread and 8-thread exports byte for byte.
  const std::string dir = obs::JsonDirFromEnv();
  if (!dir.empty()) {
    const Result<std::string> bench_path = sink.WriteJson(dir);
    if (!bench_path.ok()) {
      return Fail("bench export: " + bench_path.status().ToString());
    }
    std::printf("lifecycle_soak: wrote %s\n", bench_path->c_str());
    const obs::MetricsSnapshot snap = reg.Snapshot();
    for (auto* writer : {&obs::WriteMetricsJson, &obs::WriteMetricsProm}) {
      const Result<std::string> path =
          (*writer)(snap, dir, "scheduler_soak", /*include_host_timing=*/false);
      if (!path.ok()) {
        return Fail("metrics export: " + path.status().ToString());
      }
      std::printf("lifecycle_soak: wrote %s\n", path->c_str());
    }
  }
  return 0;
}

// ---------------------------------------------------------------------------
// --chaos: transient-fault soak (kernel faults, watchdog, breakers, hedging)
// ---------------------------------------------------------------------------

/// One pass's observable state, for reference comparison and replay diffs.
struct ChaosPass {
  std::vector<Status> statuses;
  std::vector<std::vector<std::vector<int64_t>>> rows;  // canonical, per query
  std::vector<int> retries;
  std::vector<int> hedged;
  double final_cycles = 0;
  uint64_t trips = 0;
  uint64_t probes = 0;
  uint64_t closes = 0;
  uint64_t terminal_unavailable = 0;
  obs::MetricsSnapshot delta;
};

int RunChaos(int rounds) {
  using service::QueryKind;
  using service::QueryRequest;
  using service::QueryService;
  using service::ServiceOptions;

  workload::JoinWorkloadSpec jspec;
  jspec.r_rows = uint64_t{1} << 9;
  jspec.s_rows = uint64_t{1} << 10;
  jspec.seed = 29;
  auto jw = workload::GenerateJoinInput(jspec);
  GPUJOIN_CHECK_OK(jw.status());

  workload::GroupByWorkloadSpec gspec;
  gspec.rows = uint64_t{1} << 10;
  gspec.num_groups = uint64_t{1} << 5;
  gspec.seed = 37;
  auto gin = workload::GenerateGroupByInput(gspec);
  GPUJOIN_CHECK_OK(gin.status());

  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  reg.Clear();
  obs::MetricsSink& sink = obs::MetricsSink::Global();
  sink.Clear();
  sink.Configure("chaos_soak", "transient-fault chaos soak",
                 vgpu::DeviceConfig::A100().name, 16);

  const join::JoinAlgo algos[] = {join::JoinAlgo::kPhjOm, join::JoinAlgo::kNphj,
                                  join::JoinAlgo::kSmjUm,
                                  join::JoinAlgo::kPhjUm};

  // One pass: fresh device + service, the fixed query mix, optional fault
  // armament. Fills `pass`; returns a non-empty error string on a violated
  // invariant.
  const auto run_pass = [&](uint64_t fault_seed, double fault_prob,
                            double watchdog_cycles,
                            ChaosPass* pass) -> std::string {
    vgpu::Device device(vgpu::DeviceConfig::ScaledToWorkload(
        vgpu::DeviceConfig::A100(), uint64_t{1} << 16));
    device.set_parallel_sim(harness::SimThreadsFromEnv());
    if (fault_prob > 0) {
      device.set_fault_injector(
          vgpu::FaultInjector::FailKernelWithProbability(fault_prob,
                                                         fault_seed));
    }
    if (watchdog_cycles > 0) {
      device.set_kernel_watchdog_cycles(watchdog_cycles);
    }

    const obs::MetricsSnapshot before = reg.Snapshot();
    QueryService svc(device);
    std::vector<int> ids;
    for (int q = 0; q < 6; ++q) {
      QueryRequest req;
      req.name = "chaos" + std::to_string(q);
      if (q % 3 == 2) {
        req.kind = QueryKind::kGroupBy;
        req.r = &*gin;
        req.groupby_spec.aggregates = {{1, groupby::AggOp::kSum},
                                       {1, groupby::AggOp::kCount}};
      } else {
        req.kind = QueryKind::kJoin;
        req.join_algo = algos[q % 4];
        req.r = &jw->r;
        req.s = &jw->s;
      }
      auto id = svc.Submit(std::move(req));
      GPUJOIN_CHECK_OK(id.status());
      ids.push_back(*id);
    }

    const Status drained = svc.Drain();
    if (!drained.ok()) return "Drain: " + drained.ToString();
    device.clear_fault_injector();
    device.ClearTransientFault();
    device.set_kernel_watchdog_cycles(0);

    if (svc.reserved_bytes() != 0) {
      return "reserved_bytes = " + std::to_string(svc.reserved_bytes()) +
             " after Drain";
    }
    const Status leaks = device.CheckNoLeaks();
    if (!leaks.ok()) return leaks.ToString();

    for (const int id : ids) {
      const service::QueryOutcome& out = svc.outcome(id);
      if (!IsStructuredOutcome(out.status)) {
        return "query " + out.name + ": unstructured outcome " +
               out.status.ToString();
      }
      pass->statuses.push_back(out.status);
      pass->rows.push_back(out.status.ok() ? join::CanonicalRows(out.output)
                                           : std::vector<std::vector<int64_t>>{});
      pass->retries.push_back(out.transient_retries);
      pass->hedged.push_back(out.hedged_fragments);
      if (out.status.IsUnavailable()) ++pass->terminal_unavailable;
    }
    pass->final_cycles = device.elapsed_cycles();
    pass->trips = svc.health().trips();
    pass->probes = svc.health().probes();
    pass->closes = svc.health().closes();
    pass->delta = reg.Snapshot().Delta(before);
    return "";
  };

  uint64_t total_ok = 0, total_unavailable = 0, total_trips = 0;
  uint64_t total_hedged = 0, total_retries = 0, total_probes = 0;

  for (int round = 0; round < rounds; ++round) {
    const uint64_t salt =
        SplitMix64(g_seed ^ (0xc4a05ull << 16) ^ static_cast<uint64_t>(round));
    // Every third round trades the probabilistic injector for a watchdog
    // budget every kernel exceeds: deterministic watchdog_timeout faults
    // exercise the second fault domain (and its own breaker key).
    const bool watchdog_round = round % 3 == 2;
    const double prob =
        watchdog_round ? 0.0
                       : 0.03 + static_cast<double>(salt % 80) / 1000.0;
    const double watchdog = watchdog_round ? 1.0 : 0.0;

    ChaosPass reference, chaos, replay;
    std::string err = run_pass(salt, 0.0, 0.0, &reference);
    if (!err.empty()) {
      return Fail("round " + std::to_string(round) + " reference: " + err);
    }
    for (const Status& st : reference.statuses) {
      if (!st.ok()) {
        return Fail("round " + std::to_string(round) +
                    ": fault-free reference not OK: " + st.ToString());
      }
    }

    err = run_pass(salt, prob, watchdog, &chaos);
    if (!err.empty()) {
      return Fail("round " + std::to_string(round) + " chaos: " + err);
    }

    // Retried / hedged queries that completed must be bit-identical to the
    // fault-free run.
    for (size_t q = 0; q < chaos.statuses.size(); ++q) {
      if (!chaos.statuses[q].ok()) continue;
      if (chaos.rows[q] != reference.rows[q]) {
        return Fail("round " + std::to_string(round) + " query " +
                    std::to_string(q) +
                    ": chaos rows differ from fault-free reference (retries=" +
                    std::to_string(chaos.retries[q]) + " hedged=" +
                    std::to_string(chaos.hedged[q]) + ")");
      }
    }

    // Double-entry reconciliation over the chaos pass's registry delta.
    uint64_t hedged_outcomes = 0, retry_outcomes = 0;
    for (size_t q = 0; q < chaos.statuses.size(); ++q) {
      hedged_outcomes += static_cast<uint64_t>(chaos.hedged[q]);
      retry_outcomes += static_cast<uint64_t>(chaos.retries[q]);
    }
    const uint64_t trips_metric =
        chaos.delta.CounterTotal("service_breaker_trips_total");
    const uint64_t open_transitions = SumCounterWithLabel(
        chaos.delta, "service_breaker_transitions_total", "to", "open");
    if (chaos.trips != trips_metric || chaos.trips != open_transitions) {
      return Fail("round " + std::to_string(round) +
                  ": breaker trips do not reconcile: health=" +
                  std::to_string(chaos.trips) + " trips_total=" +
                  std::to_string(trips_metric) + " transitions{to=open}=" +
                  std::to_string(open_transitions));
    }
    const uint64_t hedge_decisions =
        chaos.delta.CounterTotal("service_hedge_decisions_total");
    const uint64_t hedged_fragments =
        chaos.delta.CounterTotal("service_hedged_fragments_total");
    if (hedge_decisions != hedged_fragments ||
        hedged_fragments != hedged_outcomes) {
      return Fail("round " + std::to_string(round) +
                  ": hedge double entry does not reconcile: decisions=" +
                  std::to_string(hedge_decisions) + " fragments=" +
                  std::to_string(hedged_fragments) + " outcomes=" +
                  std::to_string(hedged_outcomes));
    }
    // The retry counter meters scheduled re-executions; the per-outcome
    // count also includes the increment that became terminal.
    const uint64_t retry_metric =
        chaos.delta.CounterTotal("service_transient_retries_total");
    if (retry_metric + chaos.terminal_unavailable != retry_outcomes) {
      return Fail("round " + std::to_string(round) +
                  ": transient retries do not reconcile: metric=" +
                  std::to_string(retry_metric) + " terminal=" +
                  std::to_string(chaos.terminal_unavailable) + " outcomes=" +
                  std::to_string(retry_outcomes));
    }

    // Replay: the chaos pass is a pure function of its seeds.
    err = run_pass(salt, prob, watchdog, &replay);
    if (!err.empty()) {
      return Fail("round " + std::to_string(round) + " replay: " + err);
    }
    const bool statuses_match = [&] {
      if (replay.statuses.size() != chaos.statuses.size()) return false;
      for (size_t q = 0; q < chaos.statuses.size(); ++q) {
        if (replay.statuses[q].code() != chaos.statuses[q].code()) return false;
      }
      return true;
    }();
    if (!statuses_match || replay.rows != chaos.rows ||
        replay.final_cycles != chaos.final_cycles ||
        replay.trips != chaos.trips || replay.probes != chaos.probes ||
        replay.retries != chaos.retries || replay.hedged != chaos.hedged) {
      return Fail("round " + std::to_string(round) +
                  ": chaos replay diverged (cycles " +
                  std::to_string(chaos.final_cycles) + " vs " +
                  std::to_string(replay.final_cycles) + ", trips " +
                  std::to_string(chaos.trips) + " vs " +
                  std::to_string(replay.trips) + ")");
    }

    uint64_t round_ok = 0;
    for (const Status& st : chaos.statuses) {
      if (st.ok()) ++round_ok;
    }
    total_ok += round_ok;
    total_unavailable += chaos.terminal_unavailable;
    total_trips += chaos.trips;
    total_probes += chaos.probes;
    total_hedged += hedged_outcomes;
    total_retries += retry_outcomes;
    std::printf(
        "lifecycle_soak: chaos round %d (%s): %llu/%zu ok, %llu retries, "
        "%llu trips, %llu hedged turns, replay bit-identical\n",
        round, watchdog_round ? "watchdog=1.0" : "kernel faults",
        static_cast<unsigned long long>(round_ok), chaos.statuses.size(),
        static_cast<unsigned long long>(retry_outcomes),
        static_cast<unsigned long long>(chaos.trips),
        static_cast<unsigned long long>(hedged_outcomes));
  }

  std::printf(
      "lifecycle_soak: CHAOS OK (%d rounds, seed %llu: %llu ok, %llu "
      "terminal-unavailable, %llu transient retries, %llu breaker trips, "
      "%llu probes, %llu hedged turns; outputs matched the fault-free "
      "reference and every replay was bit-identical)\n",
      rounds, static_cast<unsigned long long>(g_seed),
      static_cast<unsigned long long>(total_ok),
      static_cast<unsigned long long>(total_unavailable),
      static_cast<unsigned long long>(total_retries),
      static_cast<unsigned long long>(total_trips),
      static_cast<unsigned long long>(total_probes),
      static_cast<unsigned long long>(total_hedged));
  // A chaos soak that never tripped a breaker, never hedged, and never
  // retried exercised nothing.
  if (total_ok == 0 || total_retries == 0 || total_trips == 0 ||
      total_hedged == 0) {
    return Fail("chaos soak never exercised some fault class (ok=" +
                std::to_string(total_ok) + " retries=" +
                std::to_string(total_retries) + " trips=" +
                std::to_string(total_trips) + " hedged=" +
                std::to_string(total_hedged) + ")");
  }

  const std::string dir = obs::JsonDirFromEnv();
  if (!dir.empty()) {
    const obs::MetricsSnapshot snap = reg.Snapshot();
    for (auto* writer : {&obs::WriteMetricsJson, &obs::WriteMetricsProm}) {
      const Result<std::string> path =
          (*writer)(snap, dir, "chaos_soak", /*include_host_timing=*/false);
      if (!path.ok()) {
        return Fail("metrics export: " + path.status().ToString());
      }
      std::printf("lifecycle_soak: wrote %s\n", path->c_str());
    }
  }
  return 0;
}

}  // namespace
}  // namespace gpujoin

int main(int argc, char** argv) {
  int rounds = 0;
  bool chaos = false;
  if (const char* env = std::getenv("GPUJOIN_SOAK_SEED")) {
    gpujoin::g_seed = std::strtoull(env, nullptr, 0);
  }
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      gpujoin::g_seed = std::strtoull(argv[++i], nullptr, 0);
    } else if (std::strcmp(argv[i], "--chaos") == 0) {
      chaos = true;
    } else {
      rounds = std::atoi(argv[i]);
    }
  }
  if (rounds == 0) rounds = chaos ? 6 : 8;
  if (rounds <= 0) {
    std::fprintf(stderr,
                 "usage: lifecycle_soak [rounds>0] [--seed N] [--chaos]\n");
    return 2;
  }
  return chaos ? gpujoin::RunChaos(rounds) : gpujoin::Run(rounds);
}
