#include "trace.hpp"

#include <atomic>

namespace perfbench {

namespace {

std::atomic<Trace*> g_trace{nullptr};
std::atomic<int> g_next_thread{0};

// The innermost open span and its op on this thread.
thread_local std::int64_t t_parent = -1;
thread_local std::int64_t t_op = -1;
thread_local int t_thread = -1;

int thread_id() {
  if (t_thread < 0) t_thread = g_next_thread.fetch_add(1);
  return t_thread;
}

}  // namespace

Trace::Trace() : origin_(Clock::now()) {}

Trace* Trace::current() { return g_trace.load(std::memory_order_acquire); }

void Trace::install(Trace* t) { g_trace.store(t, std::memory_order_release); }

std::int64_t Trace::open(const char* name, std::int64_t op) {
  SpanRecord r;
  r.name = name;
  r.parent = t_parent;
  r.op = op;
  r.thread = thread_id();
  r.start_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                   Clock::now() - origin_)
                   .count();
  std::lock_guard<std::mutex> lk(mu_);
  spans_.push_back(r);
  return static_cast<std::int64_t>(spans_.size()) - 1;
}

void Trace::close(std::int64_t index) {
  const std::int64_t end = std::chrono::duration_cast<std::chrono::nanoseconds>(
                               Clock::now() - origin_)
                               .count();
  std::lock_guard<std::mutex> lk(mu_);
  spans_[static_cast<std::size_t>(index)].end_ns = end;
}

SpanTotals Trace::totals(const std::string& name) const {
  SpanTotals t;
  std::lock_guard<std::mutex> lk(mu_);
  for (const SpanRecord& s : spans_) {
    if (name != s.name) continue;
    ++t.count;
    t.total_ms += static_cast<double>(s.end_ns - s.start_ns) / 1e6;
  }
  return t;
}

std::size_t Trace::size() const {
  std::lock_guard<std::mutex> lk(mu_);
  return spans_.size();
}

void Trace::write_json(std::ostream& os) const {
  std::lock_guard<std::mutex> lk(mu_);
  os << "{\"traceEvents\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    if (i) os << ",\n";
    os << "{\"name\":\"" << s.name << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.thread
       << ",\"ts\":" << static_cast<double>(s.start_ns) / 1e3
       << ",\"dur\":" << static_cast<double>(s.end_ns - s.start_ns) / 1e3
       << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent
       << ",\"op\":" << s.op << "}}";
  }
  os << "]}\n";
}

Span::Span(const char* name, std::int64_t op) : trace_(Trace::current()) {
  if (!trace_) return;
  prev_parent_ = t_parent;
  prev_op_ = t_op;
  if (op < 0) op = t_op;
  index_ = trace_->open(name, op);
  t_parent = index_;
  t_op = op;
}

Span::~Span() {
  if (!trace_) return;
  trace_->close(index_);
  t_parent = prev_parent_;
  t_op = prev_op_;
}

}  // namespace perfbench
