#include "spans.hpp"

#include <chrono>
#include <cstdio>
#include <map>

namespace perfbench {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::int32_t SpanLog::open(const char* name) {
  if (!enabled_) return -1;
  Span s;
  s.name = name;
  s.parent = current_;
  s.run = run_;
  s.start_ns = now_ns();
  spans_.push_back(s);
  current_ = static_cast<std::int32_t>(spans_.size() - 1);
  return current_;
}

void SpanLog::close(std::int32_t id) {
  if (id < 0) return;
  Span& s = spans_[static_cast<std::size_t>(id)];
  s.end_ns = now_ns();
  current_ = s.parent;
}

std::vector<SpanSummary> SpanLog::summary() const {
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_)
    if (s.parent >= 0)
      child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
  std::map<std::string, SpanSummary> by_name;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    SpanSummary& out = by_name[s.name];
    out.name = s.name;
    ++out.count;
    out.total_ms += static_cast<double>(s.end_ns - s.start_ns) * 1e-6;
    out.self_ms +=
        static_cast<double>(s.end_ns - s.start_ns - child_ns[i]) * 1e-6;
  }
  std::vector<SpanSummary> out;
  for (auto& [name, s] : by_name) out.push_back(s);
  return out;
}

bool SpanLog::write_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
  std::fprintf(f, "{\"spans\": [\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "  {\"id\": %zu, \"name\": \"%s\", \"start_ns\": %lld, "
                 "\"end_ns\": %lld, \"parent\": %d, \"run\": %d}%s\n",
                 i, s.name, static_cast<long long>(s.start_ns - t0),
                 static_cast<long long>(s.end_ns - t0), s.parent, s.run,
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  const bool written = std::ferror(f) == 0;
  return std::fclose(f) == 0 && written;
}

}  // namespace perfbench
