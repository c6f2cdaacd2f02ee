// EXPLAIN ANALYZE-style renderer: prints a Tracer's span tree with
// per-phase cycle shares and the top-k kernels inside each phase —
// the human-readable view of the same data the Chrome trace exports.

#ifndef GPUJOIN_OBS_EXPLAIN_H_
#define GPUJOIN_OBS_EXPLAIN_H_

#include <string>

#include "obs/trace.h"

namespace gpujoin::obs {

struct ExplainOptions {
  /// Kernels listed per parent span (aggregated by kernel name, by cycles
  /// descending).
  int top_k_kernels = 3;
  /// Non-kernel spans cheaper than this share of their root are elided.
  double min_fraction = 0.0;
};

/// Renders every root span in the tracer as an indented tree:
///   query:join:PHJ-OM     cycles    100.0%   sim ms   peak MB
///   ├─ phase:transform    ...        41.4%   ...
///   │    kernels: radix_scatter 61.2% x4, radix_histogram 9.3% x2
/// Percentages are of the parent span; an "(unattributed)" line appears
/// when a span's non-kernel children do not cover its cycles.
std::string RenderExplain(const Tracer& tracer, const ExplainOptions& options = {});

class MetricsSnapshot;

/// Renders the cross-query counters of a metrics snapshot as the
/// "[metrics]" summary block appended to GPUJOIN_EXPLAIN=1 output:
/// one line each for the service (admissions/outcomes/borrows), the
/// scheduler (turns/passes/preemptions), the router (decisions/fallbacks),
/// and the execution layer (ops/launches/degradations/faults). Sections
/// with no samples are omitted; an empty snapshot renders "".
std::string RenderMetricsSummary(const MetricsSnapshot& snapshot);

}  // namespace gpujoin::obs

#endif  // GPUJOIN_OBS_EXPLAIN_H_
