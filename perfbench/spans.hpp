// In-memory span recorder of the traced benchmark run.
//
// Spans are recorded only from the benchmark's own code, around the
// public calls it makes into each layer (construction, begin/advance/
// finish, checkpoint save/restore, scheduler submit/drain, table
// queries, and the step replay's evolve/place/plan/execute). Each span
// keeps its name, start, end, parent span and run id; the log is written
// out once, when the benchmark ends.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic host clock in nanoseconds.
std::int64_t now_ns();

struct Span {
  const char* name = "";  ///< string literal
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;  ///< index of the enclosing span, -1 = root
  std::int32_t run = 0;      ///< job or round the span belongs to
};

/// Per-name totals: a span's self time is its duration minus the time
/// its direct children cover.
struct SpanSummary {
  std::string name;
  std::int64_t count = 0;
  double total_ms = 0.0;
  double self_ms = 0.0;
};

class SpanLog {
 public:
  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }
  void set_run(std::int32_t run) { run_ = run; }

  /// Open a span nested in the innermost open one; -1 while disabled.
  std::int32_t open(const char* name);
  /// Close a span returned by open(); -1 is ignored.
  void close(std::int32_t id);

  const std::vector<Span>& spans() const { return spans_; }
  std::vector<SpanSummary> summary() const;
  /// Write every span as JSON; false on I/O failure.
  bool write_json(const std::string& path) const;

 private:
  bool enabled_ = false;
  std::int32_t run_ = 0;
  std::int32_t current_ = -1;
  std::vector<Span> spans_;
};

class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, const char* name)
      : log_(log), id_(log.open(name)) {}
  ~ScopedSpan() { log_.close(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog& log_;
  std::int32_t id_;
};

}  // namespace perfbench
