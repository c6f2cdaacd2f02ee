// perfbench: the end-to-end benchmark of the gpujoin library.
//
//   perfbench --workload tpc-join|groupby-sweep|service-mix --seed N
//             --seconds S --trace 0|1 --setups K
//
// One run sets the workload up K times (the median is setup_s), then runs
// measured passes over the workload's queries for as long as the next pass
// should end within S seconds (at least one). Simulated figures come from
// the first pass after set-up (later passes on the same devices start from
// a different DRAM row-buffer state); host figures are medians over the
// passes. Every query's output in every pass is compared with a host
// oracle computed once per input after the measured passes. With --trace 0 the last line of stdout is a
// JSON object carrying the end-to-end metrics; with --trace 1 the run
// measures one untraced and one traced pass, then the entry-point probe,
// and the JSON object carries the per-layer metrics. Full results go to
// .bench_out/<workload>_seed<N>[_trace].json and, with --trace 1, the
// recorded spans to .bench_out/<workload>_seed<N>_trace_spans.json. Every
// flag is required; perfbench/run.py holds the defaults. The exit status
// is 0 only when every query succeeded and matched its oracle.

#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "bench.h"
#include "harness/harness.h"
#include "metrics.h"
#include "workloads.h"

namespace perfbench {
namespace {

/// Directory, relative to the working directory, for results and spans.
constexpr char kOutDir[] = ".bench_out";

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  int setups = 0;
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "tpc-join|groupby-sweep|service-mix --seed N --seconds S "
               "--trace 0|1 --setups K\n",
               why);
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args a;
  std::set<std::string> seen;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const char* v = argv[++i];
    seen.insert(flag);
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::atof(v);
    } else if (flag == "--trace") {
      a.trace = std::strcmp(v, "0") != 0;
    } else if (flag == "--setups") {
      a.setups = std::max(1, std::atoi(v));
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  for (const char* flag : {"--workload", "--seed", "--seconds", "--trace", "--setups"}) {
    if (seen.count(flag) == 0) Usage((std::string(flag) + " is required").c_str());
  }
  return a;
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name) {
  if (name == "tpc-join") return MakeTpcJoin();
  if (name == "groupby-sweep") return MakeGroupBySweep();
  if (name == "service-mix") return MakeServiceMix();
  Usage(("unknown workload " + name).c_str());
}

RunHeader MakeHeader(const Args& a) {
  RunHeader h;
  h.workload = a.workload;
  h.seed = a.seed;
  h.trace = a.trace;
  h.nproc = static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN));
  h.sim_threads = gpujoin::harness::SimThreadsFromEnv();
  h.cpux_threads = kCpuxThreads;
  h.scale_log2 = gpujoin::harness::ScaleLog2();
  h.build_type = PERFBENCH_BUILD_TYPE;
  h.compiler = PERFBENCH_COMPILER;
  return h;
}

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  // Keep freed heap memory in the process instead of handing it back to
  // the kernel, so repeated set-ups and passes reuse pages rather than
  // fault fresh ones in: on a shared machine the kernel's page-fault cost
  // swings by a third from one run to the next and would swamp setup_s.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, INT_MAX);
  std::unique_ptr<Workload> wl = MakeWorkload(args.workload);
  SpanRecorder spans;
  Meter meter(spans);
  RunData run;
  run.header = MakeHeader(args);

  // Set-up, repeated; a traced run traces (and ledgers) the last one.
  for (int i = 0; i < args.setups; ++i) {
    spans.set_enabled(args.trace && i + 1 == args.setups);
    meter.acc().clear();
    const double t0 = WallSeconds();
    {
      ScopedSpan span(spans, "setup");
      wl->Setup(meter, args.seed);
    }
    run.setup_walls.push_back(WallSeconds() - t0);
    run.setup_acc = meter.acc();
  }

  const std::vector<gpujoin::vgpu::Device*> devices = wl->Devices();
  run.clock_hz = ClockHz(*devices.front());
  auto run_pass = [&](bool traced) {
    spans.set_enabled(traced);
    wl->BeforePass(static_cast<int>(run.passes.size()));
    const KernelTable k0 = SnapshotKernels(devices);
    meter.acc().clear();
    const double t0 = WallSeconds();
    PassResult pr;
    {
      ScopedSpan span(spans, traced ? "pass(traced)" : "pass");
      pr = wl->Pass(meter);
    }
    const double wall = WallSeconds() - t0;
    pr.acc = std::move(meter.acc());
    pr.host_s = wall - pr.acc["bench.check_s"];
    pr.kernels = KernelDelta(SnapshotKernels(devices), k0);
    run.passes.push_back(std::move(pr));
  };
  if (args.trace) {
    run_pass(false);
    run_pass(true);
  } else {
    // Another pass only when it should end within the time budget, taking
    // the last pass's length as the guess.
    const double start = WallSeconds();
    double last = 0;
    do {
      const double t0 = WallSeconds();
      run_pass(false);
      last = WallSeconds() - t0;
    } while (WallSeconds() - start + last <= args.seconds);
  }
  run.peak_rss_mb = PeakRssMb();
  spans.set_enabled(false);

  // Oracles, once per input, outside every timed section.
  const double oracle_t0 = WallSeconds();
  const std::vector<RowDigest> oracles = wl->Oracles();
  run.oracle_s = WallSeconds() - oracle_t0;
  CheckOutputs(oracles, &run);

  if (args.trace) {
    spans.set_enabled(true);
    run.entry_probe = EntryPointProbe(meter, args.seed);
    spans.set_enabled(false);
  }

  std::filesystem::create_directories(kOutDir);
  const std::string stem = std::string(kOutDir) + "/" + args.workload + "_seed" +
                           std::to_string(args.seed) +
                           (args.trace ? "_trace" : "");
  if (args.trace && !spans.WriteJson(stem + "_spans.json")) {
    std::fprintf(stderr, "perfbench: cannot write %s_spans.json\n", stem.c_str());
  }
  return Report(run, stem + ".json");
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
