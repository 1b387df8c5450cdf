// In-memory span recorder for the traced run. Every call the benchmark
// makes into a rung's public functions is wrapped in a Scope; a span holds
// its name, start, end, parent span (the enclosing Scope on the same thread)
// and the op id (a parcel's sequence number), so a sender's span and the
// matching handler span link up across threads and processes. Spans stay in
// per-thread buffers until the rung ends; write_chrome() then writes them
// as Chrome-trace JSON.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "stats.hpp"

namespace perfbench::trace {

inline constexpr std::uint64_t kNoOp = ~std::uint64_t{0};

/// How a span takes part in a parcel's flow: the span that injects op N
/// (kOut) and the span that handles op N on the receiver (kIn) are linked
/// by Chrome flow events keyed by N.
enum class Flow : std::uint8_t { kNone, kOut, kIn };

struct Span {
  const char* name = "";
  std::int64_t start = 0;  // steady-clock ns (CLOCK_MONOTONIC on Linux)
  std::int64_t end = 0;
  std::int32_t parent = -1;  // index in the same thread's buffer
  std::uint32_t tid = 0;
  std::uint64_t op = kNoOp;
  Flow flow = Flow::kNone;
};

/// Turns recording on or off for every thread (off: Scope only times).
void set_enabled(bool on);
bool enabled();

/// Per-thread span cap; a full buffer keeps timing but stops recording.
inline constexpr std::size_t kMaxSpansPerThread = 500000;

/// Times one call and records it as a span while tracing is on; while it
/// is off a Scope reads no clock.
class Scope {
 public:
  explicit Scope(const char* name, std::uint64_t op = kNoOp,
                 Flow flow = Flow::kNone);
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  ~Scope() { finish(); }

  /// Closes the span (idempotent) and returns its duration in ns. With
  /// `keep` false a childless span is dropped instead of recorded (empty
  /// progress calls are counted, not traced).
  std::int64_t finish(bool keep = true);

 private:
  std::int64_t start_;
  std::int64_t duration_ = -1;
  std::int32_t slot_ = -1;
};

/// Every span recorded since the last take(), grouped per thread, and the
/// buffers cleared. Call only while no thread records.
std::vector<std::vector<Span>> take();

/// Self time of each span in one thread's buffer (see stats.hpp).
std::vector<std::int64_t> self_times(const std::vector<Span>& spans);

/// Appends Chrome-trace events ("X" spans plus "s"/"f" flow events keyed by
/// op id) for `threads` to `events`, labelled with `pid` and category
/// `rung`. At most `max_per_thread` spans per thread are written.
void append_chrome(const std::vector<std::vector<Span>>& threads, int pid,
                   const std::string& rung, std::size_t max_per_thread,
                   std::string& events);

/// Wraps accumulated events into a Chrome-trace document.
std::string chrome_document(const std::string& events);

}  // namespace perfbench::trace
