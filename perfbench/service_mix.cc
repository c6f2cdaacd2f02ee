// service-mix: an open loop in simulated time through one QueryService per
// offered rate, with default_backend = kAuto (cost-based routing per
// fragment) and a 4-worker cpux context.
//
//   * A batch tenant (priority 0) submits, at t = 0, two large joins
//     (|R| = 2^(scale-1), |S| = 2^scale, two payload columns per side;
//     PHJ-OM and SMJ-OM) and two 2^scale-row group-bys.
//   * An interactive tenant (priority 1) submits small joins and group-bys
//     over 2^10..2^14-row inputs. Arrival gaps are seeded exponentials,
//     passed through QueryRequest::arrival_cycles.
//   * The interactive stream runs at three fixed offered rates. Each rate
//     gets its own device, replaying from clock 0, and the same batch
//     queries. Latency figures come from the middle rate.
//
// Latency is measured from a query's arrival_cycles to its result
// (finished_at_cycles): it counts the wait a stall imposes on later
// arrivals. A rate has a growing backlog when the median latency of the
// last quarter of interactive arrivals exceeds that of the first quarter
// by more than kMaxBacklogGrowth of the simulated time between the two
// quarters' median arrivals: a queue offered more work than it serves
// grows its latency at (utilisation - 1) per unit of time, a stable one
// does not grow it at all. sustained_qps_sim is the highest rate whose
// interactive tail stays within kLatencyLimitMs with no growing backlog.
//
// The ladder was set from runs at scale 20 with seeds 1 to 10: at the
// lowest and the middle rate every seed meets the limit with a flat
// backlog, at the highest rate every seed has a growing backlog and misses
// it. So the middle rate is a steady load, not a burst, and the ladder
// brackets the limit.

#include <algorithm>
#include <cmath>
#include <optional>
#include <random>
#include <utility>
#include <vector>

#include "groupby/reference.h"
#include "harness/harness.h"
#include "join/reference.h"
#include "obs/registry.h"
#include "ops/router.h"
#include "query_util.h"
#include "service/query_service.h"
#include "workload/generator.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace gpujoin;  // NOLINT(build/namespaces)

/// Interactive queries per offered rate.
constexpr int kInteractivePerRate = 1000;
/// Mean interactive arrival gap per rate, simulated cycles, lowest rate
/// first. The middle rate is the one latency metrics report.
constexpr double kMeanGapCycles[] = {6000, 3000, 600};
constexpr int kRates = 3;
constexpr int kMiddleRate = 1;
/// Simulated latency limit on the interactive tail for sustained_qps_sim.
constexpr double kLatencyLimitMs = 0.25;
/// Largest latency growth per unit of simulated time that still counts as
/// a flat backlog.
constexpr double kMaxBacklogGrowth = 0.05;

struct Source {
  HostTable r;  // Join R, or the group-by input.
  HostTable s;  // Join S (unused for group-bys).
  bool is_join = true;
  groupby::GroupBySpec spec;
};

struct Query {
  std::string name;
  std::string tenant;
  int priority = 0;
  int source = 0;
  join::JoinAlgo join_algo = join::JoinAlgo::kPhjOm;
  groupby::GroupByAlgo groupby_algo = groupby::GroupByAlgo::kHashPartitioned;
  /// Arrival at the unit rate (mean gap 1 cycle); scaled per rate.
  double unit_arrival = 0;
};

class ServiceMix : public Workload {
 public:
  void Setup(Meter& meter, uint64_t seed) override {
    devices_.clear();
    sources_.clear();
    queries_.clear();
    const uint64_t n = harness::ScaleTuples();
    uint64_t stream = 0;
    auto gen_join = [&](uint64_t r_rows, uint64_t s_rows, int payload_cols) {
      workload::JoinWorkloadSpec spec;
      spec.r_rows = r_rows;
      spec.s_rows = s_rows;
      spec.r_payload_cols = payload_cols;
      spec.s_payload_cols = payload_cols;
      spec.seed = Mix64(seed + ++stream);
      workload::JoinWorkload w =
          MustOk(meter.Call("workload", "workload::GenerateJoinInput", -1, nullptr,
                            nullptr, [&] { return workload::GenerateJoinInput(spec); }));
      Source src;
      src.r = std::move(w.r);
      src.s = std::move(w.s);
      sources_.push_back(std::move(src));
      return static_cast<int>(sources_.size()) - 1;
    };
    auto gen_groupby = [&](uint64_t rows, uint64_t groups) {
      workload::GroupByWorkloadSpec spec;
      spec.rows = rows;
      spec.num_groups = groups;
      spec.seed = Mix64(seed + ++stream);
      Source src;
      src.is_join = false;
      src.spec.aggregates = {{1, groupby::AggOp::kSum}, {1, groupby::AggOp::kCount}};
      src.r = MustOk(meter.Call("workload", "workload::GenerateGroupByInput", -1,
                                nullptr, nullptr, [&] {
                                  return workload::GenerateGroupByInput(spec);
                                }));
      sources_.push_back(std::move(src));
      return static_cast<int>(sources_.size()) - 1;
    };

    const int batch_join = gen_join(n / 2, n, 2);
    const int batch_groupby = gen_groupby(n, std::max<uint64_t>(n / 16, 16));
    queries_.push_back({"batch PHJ-OM", "batch", 0, batch_join,
                        join::JoinAlgo::kPhjOm});
    queries_.push_back({"batch SMJ-OM", "batch", 0, batch_join,
                        join::JoinAlgo::kSmjOm});
    Query gb{"batch GB-HASH-PART", "batch", 0, batch_groupby};
    gb.groupby_algo = groupby::GroupByAlgo::kHashPartitioned;
    queries_.push_back(gb);
    gb.name = "batch GB-SORT";
    gb.groupby_algo = groupby::GroupByAlgo::kSortBased;
    queries_.push_back(gb);

    std::vector<int> small_joins;
    std::vector<int> small_groupbys;
    for (int log2 = 10; log2 <= 14; ++log2) {
      const uint64_t rows = uint64_t{1} << log2;
      small_joins.push_back(gen_join(rows / 2, rows, 1));
      small_groupbys.push_back(gen_groupby(rows, rows / 8));
    }
    // The interactive mix cycles through every (input size, algorithm)
    // pair; the seed draws the data and the arrival gaps.
    std::vector<Query> mix;
    for (size_t size = 0; size < small_joins.size(); ++size) {
      for (join::JoinAlgo algo : join::kAllJoinAlgos) {
        Query q;
        q.source = small_joins[size];
        q.join_algo = algo;
        q.name = std::string("interactive ") + join::JoinAlgoName(algo);
        mix.push_back(q);
      }
      for (groupby::GroupByAlgo algo : groupby::kAllGroupByAlgos) {
        Query q;
        q.source = small_groupbys[size];
        q.groupby_algo = algo;
        q.name = std::string("interactive ") + groupby::GroupByAlgoName(algo);
        mix.push_back(q);
      }
    }
    std::mt19937_64 rng(Mix64(seed ^ 0x5e41ce));
    std::uniform_real_distribution<double> unit(0.0, 1.0);
    double t = 0;
    for (int i = 0; i < kInteractivePerRate; ++i) {
      t += -std::log(1.0 - unit(rng));
      Query q = mix[i % mix.size()];
      q.tenant = "interactive";
      q.priority = 1;
      q.unit_arrival = t;
      queries_.push_back(q);
    }

    for (int r = 0; r < kRates; ++r) devices_.push_back(NewDeviceMetered(meter));
    cpux::Context warm_cpux(kCpuxThreads);
    WarmUp(meter, warm_cpux, seed);
  }

  void BeforePass(int pass) override {
    // Every pass replays the offered load from clock 0 on a clean device.
    if (pass == 0) return;
    for (auto& d : devices_) {
      const Status reset = d->Reset();
      if (!reset.ok()) {
        std::fprintf(stderr, "perfbench: device reset failed: %s\n",
                     reset.ToString().c_str());
        std::exit(2);
      }
    }
  }

  PassResult Pass(Meter& meter) override {
    PassResult pr;
    SimDigest sd;
    double sustained = 0;
    for (int rate = 0; rate < kRates; ++rate) {
      RunRate(meter, rate, pr, sd, &sustained);
    }
    pr.extra["sustained_qps_sim"] = sustained;
    pr.extra["latency_limit_sim_ms"] = kLatencyLimitMs;
    pr.sim_digest = sd.value();
    return pr;
  }

  std::vector<RowDigest> Oracles() override {
    return ParallelOracles(sources_.size(), [&](size_t i) {
      const Source& src = sources_[i];
      return src.is_join ? join::ReferenceJoinRows(src.r, src.s)
                         : groupby::ReferenceGroupByRows(src.r, src.spec);
    });
  }

  std::vector<vgpu::Device*> Devices() override {
    std::vector<vgpu::Device*> out;
    for (auto& d : devices_) out.push_back(d.get());
    return out;
  }

 private:
  service::ServiceOptions Options() const {
    service::ServiceOptions opts;
    opts.default_backend = ops::Backend::kAuto;
    opts.cpux_threads = kCpuxThreads;
    opts.max_queue = 1 << 20;
    opts.tenants = {{"batch", 0, 0, 1 << 20}, {"interactive", 0, 0, 1 << 20}};
    return opts;
  }

  service::QueryRequest Request(const Query& q, double arrival) const {
    const Source& src = sources_[q.source];
    service::QueryRequest req;
    req.name = q.name;
    req.tenant = q.tenant;
    req.priority = q.priority;
    req.arrival_cycles = arrival;
    req.r = &src.r;
    if (src.is_join) {
      req.kind = service::QueryKind::kJoin;
      req.join_algo = q.join_algo;
      req.s = &src.s;
    } else {
      req.kind = service::QueryKind::kGroupBy;
      req.groupby_algo = q.groupby_algo;
      req.groupby_spec = src.spec;
    }
    return req;
  }

  /// Times the router's decision for one query, as the service will make
  /// it for the query's first fragment.
  void RouteProbe(Meter& meter, int qid, const Query& q, const vgpu::Device& dev) {
    const Source& src = sources_[q.source];
    ops::RouterOptions ro;
    ro.cpux_threads = kCpuxThreads;
    meter.Call("ops", "ops::Route", qid, nullptr, nullptr, [&] {
      if (src.is_join) {
        ops::JoinOp op{q.join_algo, {}, &src.r, &src.s};
        return ops::RouteJoin(op, dev.config(), ro);
      }
      ops::GroupByOp op{q.groupby_algo, src.spec, {}, &src.r};
      return ops::RouteGroupBy(op, dev.config(), ro);
    });
    meter.acc()["ops.route_calls"] += 1;
  }

  /// Rise of the median latency from the first to the last quarter of
  /// `arrivals` (arrival, latency pairs), per unit of time between the two
  /// quarters' median arrivals.
  static double BacklogGrowth(std::vector<std::pair<double, double>> arrivals) {
    std::sort(arrivals.begin(), arrivals.end());
    const size_t quarter = arrivals.size() / 4;
    if (quarter == 0) return 0;
    auto medians = [&](size_t begin) {
      std::vector<double> at, latency;
      for (size_t i = begin; i < begin + quarter; ++i) {
        at.push_back(arrivals[i].first);
        latency.push_back(arrivals[i].second);
      }
      return std::make_pair(Median(at), Median(latency));
    };
    const auto [first_at, first_latency] = medians(0);
    const auto [last_at, last_latency] = medians(arrivals.size() - quarter);
    return last_at > first_at ? (last_latency - first_latency) / (last_at - first_at)
                              : 0;
  }

  void RunRate(Meter& meter, int rate, PassResult& pr, SimDigest& sd,
               double* sustained) {
    vgpu::Device& dev = *devices_[rate];
    const double gap = kMeanGapCycles[rate];
    const bool middle = rate == kMiddleRate;
    const int qbase = rate * static_cast<int>(queries_.size());
    std::optional<service::QueryService> svc;
    meter.Do("service.submit", "service::QueryService", -1, nullptr, nullptr,
             [&] { svc.emplace(dev, Options()); });
    for (size_t i = 0; i < queries_.size(); ++i) {
      const Query& q = queries_[i];
      const int qid = qbase + static_cast<int>(i);
      RouteProbe(meter, qid, q, dev);
      const Result<int> id =
          meter.Call("service.submit", "QueryService::Submit", qid, &dev, nullptr,
                     [&] { return svc->Submit(Request(q, q.unit_arrival * gap)); });
      if (!id.ok()) {
        std::fprintf(stderr, "perfbench: submit failed: %s\n",
                     id.status().ToString().c_str());
        std::exit(2);
      }
    }

    dev.ResetPeakMemory();
    const obs::MetricsSnapshot before = obs::MetricsRegistry::Global().Snapshot();
    CallCost cost;
    const Status drained = meter.Call("service.drain", "QueryService::Drain", -1,
                                      &dev, &cost, [&] { return svc->Drain(); });
    const obs::MetricsSnapshot delta =
        obs::MetricsRegistry::Global().Snapshot().Delta(before);
    double cpux_wall = 0;
    for (const char* op : {"join", "groupby"}) {
      if (const obs::HistogramData* h =
              delta.Histogram("cpux_op_host_seconds", {{"op", op}})) {
        cpux_wall += h->sum;
      }
    }
    Acc& acc = meter.acc();
    acc["service.drain.cpux_s"] += cpux_wall;
    acc["cpux.wall_s"] += cpux_wall;
    pr.stats.Add(cost.stats);
    pr.sim_total_cycles += cost.sim_cycles;
    sd.Add(static_cast<uint64_t>(drained.ok()));
    sd.Add(cost.sim_cycles);
    sd.Add(cost.stats);
    const double peak_mb = static_cast<double>(dev.memory_stats().peak_bytes) / 1e6;
    pr.extra["peak_device_mb"] = std::max(pr.extra["peak_device_mb"], peak_mb);
    sd.Add(dev.memory_stats().peak_bytes);

    const double ms_per_cycle = 1e3 / ClockHz(dev);
    std::map<std::string, std::vector<double>> wait_ms;
    std::map<std::string, std::vector<double>> run_ms;
    std::vector<double> interactive_ms;
    // (arrival, latency) of each interactive query, in simulated ms.
    std::vector<std::pair<double, double>> arrivals;
    double makespan = 0;
    double preemptions = 0, turns = 0, fragments = 0, attempts = 0;
    double rejected = 0, cpux_queries = 0, fallbacks = 0;
    const auto& outcomes = svc->outcomes();
    for (size_t i = 0; i < outcomes.size(); ++i) {
      const service::QueryOutcome& out = outcomes[i];
      const Query& q = queries_[i];
      const Source& src = sources_[q.source];
      const double arrival = q.unit_arrival * gap;
      QueryRecord rec = NewRecord(out.name, q.source,
                                  src.r.num_rows() + (src.is_join ? src.s.num_rows() : 0));
      rec.ok = drained.ok() && out.status.ok();
      const bool on_cpux = out.backend.find("cpux") != std::string::npos &&
                           out.backend.find("->vgpu") == std::string::npos;
      rec.vgpu = !on_cpux;
      rec.latency_cycles = out.finished_at_cycles - arrival;
      rec.sim_cycles = out.run_cycles;
      rec.latency_sample = middle && q.tenant == "interactive";
      if (rec.ok) rec.output = CheckedDigest(meter, out.output);
      if (on_cpux && rec.ok) acc["cpux.tuples"] += static_cast<double>(rec.input_tuples);

      sd.Add(static_cast<uint64_t>(out.status.code()));
      sd.Add(static_cast<uint64_t>(out.admission));
      sd.Add(out.backend);
      for (double v : {out.started_at_cycles, out.finished_at_cycles, out.run_cycles}) {
        sd.Add(v);
      }
      for (int v : {out.fragments_total, out.fragment_turns, out.preemptions,
                    out.attempts}) {
        sd.Add(static_cast<uint64_t>(v));
      }
      sd.Add(out.kernels_launched);
      sd.Add(rec.output);

      makespan = std::max(makespan, out.finished_at_cycles);
      if (q.tenant == "interactive") {
        interactive_ms.push_back(rec.latency_cycles * ms_per_cycle);
        arrivals.emplace_back(arrival * ms_per_cycle, rec.latency_cycles * ms_per_cycle);
      }
      if (middle) {
        wait_ms[q.tenant].push_back((out.started_at_cycles - arrival) * ms_per_cycle);
        run_ms[q.tenant].push_back(out.run_cycles * ms_per_cycle);
        preemptions += out.preemptions;
        turns += out.fragment_turns;
        fragments += out.fragments_total;
        attempts += out.attempts;
        rejected += out.admission == service::AdmissionDecision::kRejected;
        cpux_queries += on_cpux;
        fallbacks += out.backend.find("->vgpu") != std::string::npos;
      }
      pr.queries.push_back(std::move(rec));
    }

    const double tail = Tail(interactive_ms).first;
    const double growth = BacklogGrowth(arrivals);
    const bool meets = tail <= kLatencyLimitMs && growth <= kMaxBacklogGrowth;
    const double rate_qps = ClockHz(dev) / gap;
    if (meets) *sustained = std::max(*sustained, rate_qps);
    std::printf("[rate] mean_gap %.0f cycles = %.0f queries/s: interactive p50 %.4f "
                "ms, tail %.4f ms, backlog growth %.4f, makespan %.4f ms -> %s\n",
                gap, rate_qps, Median(interactive_ms), tail, growth,
                makespan * ms_per_cycle, meets ? "meets limit" : "misses limit");
    if (!middle) return;

    pr.extra["makespan_sim_ms"] = makespan * ms_per_cycle;
    const double n = static_cast<double>(outcomes.size());
    for (const char* tenant : {"batch", "interactive"}) {
      acc[std::string("service.wait_sim_ms_p50.") + tenant] = Median(wait_ms[tenant]);
      acc[std::string("service.run_sim_ms_p50.") + tenant] = Median(run_ms[tenant]);
    }
    double queued = 0;
    for (const auto& [name, t] : svc->tenants()) {
      queued += static_cast<double>(t.stats.queued_total);
    }
    acc["service.preemptions"] = preemptions;
    acc["service.turns_per_fragment"] = fragments > 0 ? turns / fragments : 0;
    acc["service.queued_frac"] = queued / n;
    acc["service.rejected_frac"] = rejected / n;
    acc["resilience.attempts_per_query"] = attempts / n;
    acc["ops.routed"] = n;
    acc["ops.routed_cpux"] = cpux_queries;
    acc["ops.backend_fallbacks"] = fallbacks;
  }

  std::vector<std::unique_ptr<vgpu::Device>> devices_;
  std::vector<Source> sources_;
  std::vector<Query> queries_;
};

}  // namespace

std::unique_ptr<Workload> MakeServiceMix() { return std::make_unique<ServiceMix>(); }

}  // namespace perfbench
