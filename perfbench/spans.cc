#include "spans.h"

#include <sys/resource.h>

#include <chrono>
#include <cstdio>

namespace perfbench {

double WallSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB.
}

SpanRecorder::SpanRecorder() : origin_(WallSeconds()) {}

int64_t SpanRecorder::NowNs() const {
  return static_cast<int64_t>((WallSeconds() - origin_) * 1e9);
}

int SpanRecorder::Open(const std::string& name, int query) {
  if (!enabled_) return -1;
  Span s;
  s.id = static_cast<int>(spans_.size());
  s.parent = open_.empty() ? -1 : open_.back();
  s.query = query;
  s.name = name;
  s.start_ns = NowNs();
  spans_.push_back(std::move(s));
  open_.push_back(spans_.back().id);
  return spans_.back().id;
}

void SpanRecorder::Close(int id) {
  if (id < 0) return;
  spans_[id].end_ns = NowNs();
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

bool SpanRecorder::WriteJson(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "[\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "  {\"id\": %d, \"parent\": %d, \"query\": %d, \"name\": "
                 "\"%s\", \"start_ns\": %lld, \"end_ns\": %lld}%s\n",
                 s.id, s.parent, s.query, s.name.c_str(),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f, "]\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
