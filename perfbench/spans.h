// In-memory span recorder and host clocks for the perfbench binary.
//
// A span covers one call from the benchmark into a library layer: it has a
// name, a start and an end (host wall nanoseconds since the recorder was
// created), the id of the enclosing span, and the id of the query it
// belongs to (-1 for set-up and other work outside any query). Spans are
// kept in memory while the benchmark runs and written out as one JSON file
// when it ends; nothing is recorded while the recorder is disabled.

#ifndef GPUJOIN_PERFBENCH_SPANS_H_
#define GPUJOIN_PERFBENCH_SPANS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Host wall seconds on a monotonic clock.
double WallSeconds();
/// Peak resident set size of the process in MB.
double PeakRssMb();

struct Span {
  int id = 0;
  int parent = -1;
  int query = -1;
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

class SpanRecorder {
 public:
  SpanRecorder();

  void set_enabled(bool enabled) { enabled_ = enabled; }

  /// Opens a span under the innermost open one; returns its id, or -1 when
  /// disabled.
  int Open(const std::string& name, int query);
  void Close(int id);

  /// Writes every span as a JSON array to `path`; false on I/O failure.
  bool WriteJson(const std::string& path) const;

 private:
  int64_t NowNs() const;

  bool enabled_ = false;
  double origin_ = 0;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span: opens on construction, closes on destruction.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& rec, const std::string& name, int query = -1)
      : rec_(rec), id_(rec.Open(name, query)) {}
  ~ScopedSpan() { rec_.Close(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder& rec_;
  int id_;
};

}  // namespace perfbench

#endif  // GPUJOIN_PERFBENCH_SPANS_H_
