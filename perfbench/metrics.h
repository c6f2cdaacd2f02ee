// Turns a run's passes into the benchmark's metrics, checks outputs
// against the oracles, and prints the report.

#ifndef GPUJOIN_PERFBENCH_METRICS_H_
#define GPUJOIN_PERFBENCH_METRICS_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "bench.h"
#include "digest.h"

namespace perfbench {

struct RunHeader {
  std::string workload;
  uint64_t seed = 0;
  bool trace = false;
  int nproc = 0;
  int sim_threads = 0;
  int cpux_threads = 0;
  int scale_log2 = 0;
  std::string build_type;
  std::string compiler;
};

struct RunData {
  RunHeader header;
  std::vector<double> setup_walls;
  /// Accumulators of the last set-up (the traced one in a traced run).
  Acc setup_acc;
  /// Measured passes. A traced run has two: untraced, then traced.
  std::vector<PassResult> passes;
  double clock_hz = 1;
  double peak_rss_mb = 0;
  /// Host seconds spent computing the oracles (outside every metric).
  double oracle_s = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> failures;
  std::vector<std::pair<std::string, double>> entry_probe;
};

/// Counts attempted and failed queries over every pass: a query fails when
/// its status was not OK or its output digest differs from its oracle.
void CheckOutputs(const std::vector<RowDigest>& oracles, RunData* run);

/// Prints the report and the final JSON line, writes every metric to
/// `results_path`, and returns the process exit code.
int Report(const RunData& run, const std::string& results_path);

}  // namespace perfbench

#endif  // GPUJOIN_PERFBENCH_METRICS_H_
