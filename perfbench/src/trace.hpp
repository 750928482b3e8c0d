// In-memory span trace for the perfbench binary.
//
// A span covers one call from perfbench into a library module: its name
// ("syncbench.grid_sync", "reduction.multi_mgrid", ...), steady-clock start
// and end, the span that was open on the same thread when it began (its
// parent), and the op it belongs to. Spans are appended under one mutex and
// only written out (Chrome trace-event JSON) when the run ends, so a traced
// op pays two clock reads and an uncontended lock per span.
//
// Tracing is off unless a Trace is installed; a Span built while none is
// installed does nothing beyond one pointer test.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct SpanRecord {
  const char* name = "";
  std::int64_t start_ns = 0;  // since the trace's origin
  std::int64_t end_ns = 0;
  std::int64_t parent = -1;  // index of the enclosing span, -1 at top level
  std::int64_t op = -1;      // op id the span belongs to
  int thread = 0;
};

struct SpanTotals {
  std::int64_t count = 0;
  double total_ms = 0;
  double mean_ms() const { return count ? total_ms / static_cast<double>(count) : 0.0; }
};

class Trace {
 public:
  Trace();

  Trace(const Trace&) = delete;
  Trace& operator=(const Trace&) = delete;

  /// The installed trace, or nullptr when tracing is off.
  static Trace* current();
  /// Install (or, with nullptr, remove) the process-wide trace.
  static void install(Trace* t);

  std::int64_t open(const char* name, std::int64_t op);
  void close(std::int64_t index);

  /// Count and total duration of every span with this name.
  SpanTotals totals(const std::string& name) const;
  std::size_t size() const;

  /// Chrome trace-event JSON ("X" events, microseconds), loadable in
  /// Perfetto or chrome://tracing.
  void write_json(std::ostream& os) const;

 private:
  Clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;
};

/// RAII span around one call. The op id defaults to the enclosing span's.
class Span {
 public:
  explicit Span(const char* name, std::int64_t op = -1);
  ~Span();

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Trace* trace_;
  std::int64_t index_ = -1;
  std::int64_t prev_parent_ = -1;
  std::int64_t prev_op_ = -1;
};

}  // namespace perfbench
