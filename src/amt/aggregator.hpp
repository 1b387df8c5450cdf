// Adaptive per-destination parcel aggregation (ROADMAP item 3): coalesces
// sub-threshold parcels bound for the same destination into one multi-parcel
// batch frame (wire_header.hpp's kBatchMagic frame kind), trading a little
// latency for a large per-message overhead reduction on small-parcel floods —
// the "message coalescing" lever of Yan et al.'s follow-up study.
//
// The engine is load-aware rather than always-on: when the destination's
// admission window is empty the caller is told to send the parcel immediately
// (enqueue returns false), preserving the single-parcel fast-path latency;
// once parcels start queueing behind the window the buffer grows batches.
// Buffers flush on four triggers, in priority order:
//   * size  — the projected batch frame reached the byte cap,
//   * stall — the buffer absorbed the destination's whole admission window
//             (no more arrivals possible until credits return),
//   * age   — the oldest buffered parcel exceeded the age deadline (poll),
//   * idle  — an idle worker's background_work found nothing else to do.
// A final flush (stop()) drains everything unconditionally.
//
// Thread-safety: every public method may be called concurrently from any
// worker. Each destination's buffer is guarded by its own cache-padded
// spinlock; the flush callback always runs OUTSIDE the lock (concurrent
// flushers each carry away their own snapshot — frame order per destination
// is irrelevant because delivery is unordered and the per-channel seq only
// dedups).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "amt/message.hpp"
#include "common/cache.hpp"
#include "common/clock.hpp"
#include "common/spinlock.hpp"
#include "common/unique_function.hpp"

namespace amt {

class Aggregator {
 public:
  enum class FlushReason { kSize, kStall, kAge, kIdle, kFinal };

  /// One buffered parcel: the serialized message, its send-completion
  /// callback, and when it entered the buffer (for the age trigger).
  struct Entry {
    OutMessage msg;
    common::UniqueFunction<void()> done;
    common::Nanos enqueued_ns = 0;
  };

  /// Invoked with an ownership-transferring batch snapshot (never empty).
  /// Runs outside the destination's buffer lock; must eventually fire every
  /// entry's `done` exactly once.
  using FlushFn =
      std::function<void(Rank dst, std::vector<Entry>&& batch,
                         FlushReason reason)>;

  /// `max_bytes` caps the projected batch frame size (size trigger);
  /// `age_ns` is the oldest-entry flush deadline (0 disables the age
  /// trigger — size/idle/final still apply).
  Aggregator(Rank num_ranks, std::size_t max_bytes, common::Nanos age_ns,
             FlushFn flush);

  /// Offers a parcel to the destination's buffer. `queue_depth` is the
  /// destination's admission gauge (parcels accepted but not yet executed
  /// there; <=0 when admission is off) — the load signal. Returns false —
  /// leaving `msg`/`done` untouched — when the buffer is empty and the
  /// destination is not backpressured (depth <= 1: only this parcel is
  /// outstanding): the caller should send immediately, preserving the
  /// single-parcel fast-path latency. Otherwise consumes both and returns
  /// true; may invoke the flush callback before returning, on two triggers:
  ///   * size  — the projected batch frame reached the byte cap;
  ///   * stall — the buffer now holds every outstanding parcel of the
  ///     window (entries >= depth): no further parcel can arrive until
  ///     credits return, so continuing to wait is pure added latency.
  bool enqueue(Rank dst, std::int64_t queue_depth, OutMessage& msg,
               common::UniqueFunction<void()>& done);

  /// Age trigger: flushes every buffer whose oldest entry is older than the
  /// age deadline. Returns whether anything flushed.
  bool poll(common::Nanos now);

  /// Idle trigger: flushes every non-empty buffer unconditionally (latency
  /// rescue when the flood stops mid-batch). Returns whether anything
  /// flushed.
  bool flush_idle();

  /// Final drain for Parcelport::stop().
  void flush_all();

  std::size_t max_bytes() const { return max_bytes_; }
  common::Nanos age_ns() const { return age_ns_; }

  /// Lock-free: true when no parcel is buffered anywhere. Lets the idle
  /// polling loop skip the clock read and the per-destination scan that
  /// poll()/flush_idle() would otherwise pay on every pass.
  bool empty() const {
    return pending_.load(std::memory_order_relaxed) == 0;
  }

 private:
  struct Buffer {
    common::SpinMutex mutex;
    std::vector<Entry> entries;
    /// Projected wire size of the batch frame holding `entries`
    /// (wire_header.hpp's batch_frame_size). 0 when empty.
    std::size_t bytes = 0;
    common::Nanos oldest_ns = 0;
    /// Lock-free emptiness hint so poll/flush_idle skip idle destinations
    /// without taking the lock. Updated under the lock.
    std::atomic<std::uint32_t> count{0};
  };

  /// Swaps the buffer's contents out under its lock; returns the snapshot.
  std::vector<Entry> steal(Buffer& buffer);
  bool flush_buffers(FlushReason reason, bool aged_only, common::Nanos now);

  const std::size_t max_bytes_;
  const common::Nanos age_ns_;
  const FlushFn flush_;
  /// Total buffered parcels across all destinations (emptiness hint).
  std::atomic<std::int64_t> pending_{0};
  std::vector<common::CachePadded<Buffer>> buffers_;
};

}  // namespace amt
