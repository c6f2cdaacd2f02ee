#include "obs/explain.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <vector>

#include "obs/registry.h"

namespace gpujoin::obs {

namespace {

struct Node {
  const SpanRecord* span = nullptr;
  std::vector<int32_t> children;  // Non-kernel children, in open order.
  /// Kernel cycles/invocations aggregated by kernel name, direct children
  /// only.
  std::map<std::string, std::pair<double, uint64_t>> kernels;
};

void RenderNode(const std::vector<Node>& nodes, int32_t id, double root_cycles,
                const std::string& indent, bool last,
                const ExplainOptions& opts, std::string& out) {
  const Node& node = nodes[id];
  const SpanRecord& span = *node.span;
  const double parent_base = root_cycles > 0 ? root_cycles : 1;
  // Rows show a span's own cycles: work nested at its seams belongs to the
  // nested queries' own trees.
  const double own = span.own_cycles();
  if (own / parent_base < opts.min_fraction &&
      span.depth > 0) {
    return;
  }

  const double own_ms =
      span.nested_cycles > 0
          ? span.duration_seconds() * 1e3 * own / span.duration_cycles()
          : span.duration_seconds() * 1e3;
  char line[256];
  const std::string branch =
      span.parent < 0 ? "" : (last ? "└─ " : "├─ ");
  std::snprintf(line, sizeof(line),
                "%-48s %12.0f cycles %6.1f%%  %8.3f ms  peak %.1f MB\n",
                (indent + branch + span.category + ":" + span.name).c_str(),
                own, 100.0 * own / parent_base, own_ms,
                static_cast<double>(span.peak_bytes_end) / 1e6);
  out += line;

  const std::string child_indent =
      indent + (span.parent < 0 ? "" : (last ? "   " : "│  "));

  // Free-form annotations (backend routing, cost estimates, ...). The
  // "mem:<tag>" live-byte breakdown recorded at span close is bookkeeping,
  // not narrative — skip it here.
  std::string aline;
  for (const auto& [key, value] : span.attrs) {
    if (key.rfind("mem:", 0) == 0) continue;
    aline += (aline.empty() ? "" : " ") + key + "=" + value;
  }
  if (span.nested_cycles > 0) {
    char nbuf[64];
    std::snprintf(nbuf, sizeof(nbuf), "nested_cycles=%.0f",
                  span.nested_cycles);
    aline += (aline.empty() ? "" : " ") + std::string(nbuf);
  }
  if (!aline.empty()) {
    out += child_indent + "   [" + aline + "]\n";
  }

  if (!node.kernels.empty() && opts.top_k_kernels > 0) {
    std::vector<std::pair<std::string, std::pair<double, uint64_t>>> ks(
        node.kernels.begin(), node.kernels.end());
    std::sort(ks.begin(), ks.end(), [](const auto& a, const auto& b) {
      return a.second.first > b.second.first;
    });
    std::string kline = child_indent + "   kernels: ";
    const size_t k = std::min<size_t>(ks.size(),
                                      static_cast<size_t>(opts.top_k_kernels));
    const double self = own > 0 ? own : 1;
    for (size_t i = 0; i < k; ++i) {
      char kbuf[128];
      std::snprintf(kbuf, sizeof(kbuf), "%s%s %.1f%% x%llu",
                    i == 0 ? "" : ", ", ks[i].first.c_str(),
                    100.0 * ks[i].second.first / self,
                    static_cast<unsigned long long>(ks[i].second.second));
      kline += kbuf;
    }
    if (ks.size() > k) {
      kline += ", +" + std::to_string(ks.size() - k) + " more";
    }
    out += kline + "\n";
  }

  double child_cycles = 0;
  for (const int32_t c : node.children) {
    child_cycles += nodes[c].span->own_cycles();
  }
  for (size_t i = 0; i < node.children.size(); ++i) {
    RenderNode(nodes, node.children[i], own, child_indent,
               i + 1 == node.children.size(), opts, out);
  }
  // Cycles not covered by structured children (only worth a line when
  // there ARE structured children and the gap is visible).
  if (!node.children.empty() && own > 0) {
    const double gap = own - child_cycles;
    if (gap / own > 1e-9) {
      std::snprintf(line, sizeof(line), "%-48s %12.0f cycles %6.1f%%\n",
                    (child_indent + "(unattributed)").c_str(), gap,
                    100.0 * gap / own);
      out += line;
    }
  }
}

}  // namespace

std::string RenderExplain(const Tracer& tracer, const ExplainOptions& options) {
  const std::vector<SpanRecord>& spans = tracer.spans();
  std::vector<Node> nodes(spans.size());
  std::vector<int32_t> roots;
  for (const SpanRecord& span : spans) {
    if (!span.closed) continue;
    nodes[span.id].span = &span;
    if (span.category == "kernel") {
      if (span.parent >= 0) {
        auto& agg = nodes[span.parent].kernels[span.name];
        agg.first += span.duration_cycles();
        ++agg.second;
      }
      continue;
    }
    if (span.parent < 0) {
      roots.push_back(span.id);
    } else {
      nodes[span.parent].children.push_back(span.id);
    }
  }

  std::string out = "EXPLAIN ANALYZE (simulated device cycles)\n";
  if (roots.empty()) {
    out += "  (no spans recorded — is tracing enabled?)\n";
    return out;
  }
  for (const int32_t root : roots) {
    RenderNode(nodes, root, nodes[root].span->own_cycles(), "", true,
               options, out);
  }

  if (!tracer.events().empty()) {
    out += "events:\n";
    for (const EventRecord& ev : tracer.events()) {
      char line[512];
      std::snprintf(line, sizeof(line), "  @%.0f cycles  %s: %s\n",
                    ev.at_cycles, ev.name.c_str(), ev.detail.c_str());
      out += line;
    }
  }
  return out;
}

std::string RenderMetricsSummary(const MetricsSnapshot& snapshot) {
  // Each line aggregates one layer's counters across all label sets; a
  // layer with zero samples contributes no line, and an idle snapshot
  // renders nothing at all.
  const auto total = [&snapshot](const char* name) {
    return snapshot.CounterTotal(name);
  };
  std::string out;
  const auto add_line = [&out](const std::string& line) {
    if (out.empty()) out = "[metrics]\n";
    out += "  " + line + "\n";
  };

  const uint64_t admissions = total("service_admissions_total");
  if (admissions > 0) {
    add_line("service: admissions=" + std::to_string(admissions) +
             " outcomes=" + std::to_string(total("service_outcomes_total")) +
             " quota_borrows=" +
             std::to_string(total("service_quota_borrow_total")) +
             " backend_fallbacks=" +
             std::to_string(total("service_backend_fallback_total")));
  }
  const uint64_t turns = total("sched_turns_total");
  if (turns > 0) {
    add_line("sched: turns=" + std::to_string(turns) + " passes=" +
             std::to_string(total("sched_passes_total")) + " preemptions=" +
             std::to_string(total("sched_preemptions_total")) +
             " idle_advances=" +
             std::to_string(total("sched_idle_advances_total")));
  }
  const uint64_t decisions = total("router_decisions_total");
  if (decisions > 0) {
    std::string by_backend;
    for (const auto& [key, cell] : snapshot.cells) {
      if (key.name != "router_decisions_total") continue;
      for (const auto& [k, v] : key.labels) {
        if (k != "backend") continue;
        by_backend += " " + v + "+=" + std::to_string(cell.counter);
      }
    }
    add_line("router: decisions=" + std::to_string(decisions) + " ops=" +
             std::to_string(total("router_ops_total")) + " fallbacks=" +
             std::to_string(total("router_fallback_total")) + by_backend);
  }
  const uint64_t ops = total("ops_executed_total");
  if (ops > 0) {
    add_line(
        "exec: ops=" + std::to_string(ops) + " vgpu_kernels=" +
        std::to_string(total("vgpu_kernel_launches_total")) +
        " degradations=" + std::to_string(total("resilient_degradations_total")) +
        " resource_failures=" +
        std::to_string(total("resilient_resource_failures_total")) +
        " faults_survived=" +
        std::to_string(total("vgpu_faults_survived_total")));
  }
  const uint64_t sim_kernels = total("sim_kernels_total");
  if (sim_kernels > 0) {
    std::string line = "sim: kernels=" + std::to_string(sim_kernels);
    if (const HistogramData* h = snapshot.Histogram("sim_section_cycles")) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), " cycles=%.4g", h->sum);
      line += buf;
    }
    add_line(line);
  }
  return out;
}

}  // namespace gpujoin::obs
