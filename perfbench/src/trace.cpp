#include "trace.hpp"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>

namespace perfbench::trace {

namespace {

std::atomic<bool> g_enabled{false};

struct ThreadBuffer {
  std::uint32_t tid = 0;
  std::vector<Span> spans;
  std::vector<std::int32_t> open;  // stack of enclosing span slots
};

std::mutex g_mutex;  // guards g_buffers
std::vector<std::unique_ptr<ThreadBuffer>> g_buffers;

ThreadBuffer& local_buffer() {
  thread_local ThreadBuffer* buffer = nullptr;
  if (buffer == nullptr) {
    auto owned = std::make_unique<ThreadBuffer>();
    std::lock_guard<std::mutex> guard(g_mutex);
    owned->tid = static_cast<std::uint32_t>(g_buffers.size());
    buffer = owned.get();
    g_buffers.push_back(std::move(owned));
  }
  return *buffer;
}

std::int64_t now() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

void set_enabled(bool on) { g_enabled.store(on, std::memory_order_relaxed); }
bool enabled() { return g_enabled.load(std::memory_order_relaxed); }

Scope::Scope(const char* name, std::uint64_t op, Flow flow) : start_(0) {
  if (!enabled()) return;  // untraced: no clock read at all
  start_ = now();
  ThreadBuffer& buffer = local_buffer();
  if (buffer.spans.size() >= kMaxSpansPerThread) return;
  Span span;
  span.name = name;
  span.start = start_;
  span.parent = buffer.open.empty() ? -1 : buffer.open.back();
  span.tid = buffer.tid;
  span.op = op;
  span.flow = flow;
  slot_ = static_cast<std::int32_t>(buffer.spans.size());
  buffer.spans.push_back(span);
  buffer.open.push_back(slot_);
}

std::int64_t Scope::finish(bool keep) {
  if (duration_ >= 0) return duration_;
  if (start_ == 0) return duration_ = 0;
  const std::int64_t end = now();
  duration_ = end - start_;
  if (slot_ >= 0) {
    ThreadBuffer& buffer = local_buffer();
    buffer.open.pop_back();
    if (!keep && static_cast<std::size_t>(slot_) + 1 == buffer.spans.size()) {
      buffer.spans.pop_back();
    } else {
      buffer.spans[static_cast<std::size_t>(slot_)].end = end;
    }
  }
  return duration_;
}

std::vector<std::vector<Span>> take() {
  std::lock_guard<std::mutex> guard(g_mutex);
  std::vector<std::vector<Span>> out;
  for (auto& buffer : g_buffers) {
    if (buffer->spans.empty()) continue;
    out.push_back(std::move(buffer->spans));
    buffer->spans.clear();
    buffer->open.clear();
  }
  return out;
}

std::vector<std::int64_t> self_times(const std::vector<Span>& spans) {
  std::vector<Interval> intervals;
  intervals.reserve(spans.size());
  for (const Span& span : spans) {
    intervals.push_back({span.start, span.end, span.parent});
  }
  return perfbench::self_times(intervals);
}

void append_chrome(const std::vector<std::vector<Span>>& threads, int pid,
                   const std::string& rung, std::size_t max_per_thread,
                   std::string& events) {
  char line[512];
  for (const auto& spans : threads) {
    const std::size_t n = std::min(spans.size(), max_per_thread);
    for (std::size_t i = 0; i < n; ++i) {
      const Span& span = spans[i];
      if (span.end < span.start) continue;  // still open when taken
      const double ts = static_cast<double>(span.start) / 1e3;
      const double dur = static_cast<double>(span.end - span.start) / 1e3;
      const long long op =
          span.op == kNoOp ? -1 : static_cast<long long>(span.op);
      std::snprintf(line, sizeof(line),
                    "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                    "\"ts\":%.3f,\"dur\":%.3f,\"pid\":%d,\"tid\":%u,"
                    "\"args\":{\"id\":%zu,\"parent\":%d,\"op\":%lld}}",
                    events.empty() ? "" : ",\n", span.name, rung.c_str(), ts,
                    dur, pid, span.tid, i, span.parent, op);
      events += line;
      if (span.flow == Flow::kNone || span.op == kNoOp) continue;
      const bool out = span.flow == Flow::kOut;
      std::snprintf(line, sizeof(line),
                    ",\n{\"name\":\"parcel\",\"cat\":\"%s.flow\",\"ph\":\"%s\","
                    "%s\"id\":%lld,\"ts\":%.3f,\"pid\":%d,\"tid\":%u}",
                    rung.c_str(), out ? "s" : "f", out ? "" : "\"bp\":\"e\",",
                    op, ts, pid, span.tid);
      events += line;
    }
  }
}

std::string chrome_document(const std::string& events) {
  return "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n" + events + "\n]}\n";
}

}  // namespace perfbench::trace
