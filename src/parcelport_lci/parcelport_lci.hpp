// The LCI parcelport (paper §3.2), implemented over minilci.
//
// Baseline (lci_psr_cq_pin, HPX's default): the header message is assembled
// directly in an LCI-allocated packet buffer and sent with the one-sided
// *dynamic put*, whose target buffer is allocated by the LCI runtime on
// arrival and signalled through a pre-configured remote completion queue.
// Follow-up messages use medium (eager) or long (rendezvous) send/receive,
// each with a *distinct* tag from an atomic counter (LCI gives no in-order
// delivery, so one tag per connection would mis-match).
//
// Follow-ups are *pipelined*: the sender posts every piece eagerly (bounded
// by the configurable pipeline depth; depth 1 reproduces the serialized
// one-op-per-connection behaviour), and the receiver pre-posts every recv as
// soon as the header — and, for zero-copy chunk sizes, the transmission
// chunk — is decoded. Completions may land in any order, so connections
// track an atomic remaining-count and route each completion to its piece
// slot by tag instead of walking stages. Completions land in one completion
// queue; worker background work polls that queue plus the remote-put queue.
// A dedicated progress thread, created through the resource-partitioner shim
// and pinned at core 0, is the only caller of LCI_progress.
//
// The steady-state send path allocates nothing: SenderConnection /
// ReceiverConnection / Synchronizer objects are recycled through bounded
// MPMC freelists (keeping their vector capacities), the header is assembled
// in a pooled LCI packet, and the transmission chunk is encoded in place.
//
// Variants (paper §3.2.2), all runtime-selectable via ParcelportConfig:
//   * protocol   psr | sr   — dynamic-put header vs send/recv header (one
//                             always-posted header receive per peer rank),
//   * progress   pin | mt   — dedicated pinned progress thread vs all worker
//                             threads calling progress when idle,
//   * completion cq | sy    — one completion queue vs per-operation
//                             synchronizers on sharded pending lists
//                             (the dynamic put's remote completion stays a
//                             CQ — the only mechanism LCI's put supports),
//   * send-immediate `_i`   — handled above this layer (parcel queue and
//                             connection cache bypass in amt::Locality),
//   * pipeline   pd<N>      — follow-up pipeline depth (absent =
//                             unbounded),
//   * fast path  fp/fpoff   — small-parcel put-with-completion (below),
//   * aggregation agg<N>/aggt<U> — adaptive per-destination
//                             coalescing of small parcels (below).
//
// One eager frame: every parcel sent without a connection travels as a
// batch frame (amt/wire_header.hpp) on the reserved tag minilci::kFastpathTag,
// and the receive side dispatches it from a handler completion fired
// straight out of progress context: no ReceiverConnection, no follow-up tag
// allocation, no completion-queue round trip. One CRC + one per-channel seq
// cover a frame; every parcel in it goes through the normal delivery path,
// so admission credits still return from the destination handler.
//
// Small-parcel fast path (hpx5 `pwc` style; fp/fpoff, on by default): a
// parcel whose count-1 frame — 24 B, 8 B per zero-copy chunk, and every
// payload byte — fits one medium message (the eager threshold) goes out
// immediately as that frame. Larger parcels take the unchanged header +
// follow-up path (counted under pplci/*/fastpath_fallbacks).
//
// Adaptive aggregation (agg<BYTES> token, off by default):
// small parcels bound for a *backpressured* destination (admission credits
// outstanding — ParcelportContext::queue_depth) are coalesced in a
// per-destination amt::Aggregator buffer and leave as one multi-parcel
// frame, amortizing per-message injection overhead across the batch.
// Frames flush on a size cap, an age deadline (aggt<USEC>, default 200),
// idle background work, or stop(). When the
// destination is idle, parcels keep taking the fast path unbuffered.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <thread>
#include <vector>

#include "amt/aggregator.hpp"
#include "amt/parcelport.hpp"
#include "amt/wire_header.hpp"
#include "common/cache.hpp"
#include "common/spinlock.hpp"
#include "minilci/device.hpp"
#include "queues/mpmc_queue.hpp"

namespace pplci {

class LciParcelport final : public amt::Parcelport {
 public:
  explicit LciParcelport(const amt::ParcelportContext& context);
  ~LciParcelport() override;

  void start() override;
  void stop() override;
  void send(amt::Rank dst, amt::OutMessage msg,
            common::UniqueFunction<void()> done) override;
  bool background_work(unsigned worker_index) override;

  static constexpr minilci::Tag kHeaderTag = 0;  // sr-protocol headers

  std::uint64_t messages_delivered() const { return ctr_delivered_.value(); }
  /// Effective follow-up pipeline depth (0 = unbounded).
  std::size_t pipeline_depth() const { return pipeline_depth_; }
  /// Effective batch-frame byte cap (0 = aggregation off).
  std::size_t aggregation_cap() const { return agg_cap_; }

  /// Test hook: positions the follow-up tag counter (e.g. just below the
  /// 32-bit wrap) to exercise alloc_tags' wraparound handling.
  void set_next_tag(std::uint64_t value) {
    next_tag_.store(value, std::memory_order_relaxed);
  }

  /// Test hook: takes a packet from the device's eager pool, so a test can
  /// hold it and exhaust a small pool on purpose.
  std::optional<minilci::PacketBuffer> try_alloc_packet() {
    return device_.try_alloc_packet();
  }

 private:
  // user_context values in completion entries: either a Connection* or this
  // sentinel marking an sr-protocol header receive.
  static constexpr std::uint64_t kHeaderRecvCtx = 1;

  static constexpr std::size_t kSyncShards = 8;  // power of two

  struct Connection {
    virtual ~Connection() = default;
    /// Reacts to one completion landing for this connection. Completions
    /// arrive in any order (and concurrently, from multiple pollers); the
    /// implementation recycles the connection when the last one lands.
    virtual void on_completion(LciParcelport& port,
                               minilci::CqEntry&& entry) = 0;
  };

  struct SenderConnection final : Connection {
    amt::Rank dst = 0;
    amt::OutMessage msg;
    common::UniqueFunction<void()> done;
    std::vector<std::byte> tchunk_buf;
    std::vector<std::pair<const std::byte*, std::size_t>> pieces;
    std::uint32_t tag_base = 0;
    std::atomic<std::size_t> next_piece{0};  // next unclaimed piece index
    // Live references: one per posted-or-claimed operation (header + every
    // piece) plus one guard held by send() while it still touches the
    // connection. Whoever drops the count to zero finishes and recycles.
    std::atomic<std::size_t> remaining{0};

    /// Posts piece `index`; kRetry leaves it claimable by retry_senders().
    common::Status post_piece(LciParcelport& port, std::size_t index);
    /// Claims and posts the next unposted piece (kRetry pieces go to the
    /// retry queue). Returns false when every piece is already claimed.
    bool post_one(LciParcelport& port);
    void on_completion(LciParcelport& port,
                       minilci::CqEntry&& entry) override;
    void drop_ref(LciParcelport& port);
    void reset();
  };

  struct ReceiverConnection final : Connection {
    amt::Rank src = 0;
    std::uint32_t tag_base = 0;
    amt::WireHeader fields;
    std::vector<std::byte> main;
    std::vector<std::byte> tchunk;
    std::vector<std::vector<std::byte>> zchunks;
    // Follow-up piece layout (matches the sender): [main][tchunk][zchunks].
    // -1 = piece not transferred (piggybacked or absent).
    int main_piece = -1;
    int tchunk_piece = -1;
    std::size_t zbase = 0;  // piece index of zero-copy chunk 0
    // One reference per expected piece plus a posting guard (same protocol
    // as SenderConnection::remaining).
    std::atomic<std::size_t> remaining{0};

    void on_completion(LciParcelport& port,
                       minilci::CqEntry&& entry) override;
    /// Posts all zero-copy chunk receives (sizes from the decoded tchunk).
    /// Called once: from handle_header (piggybacked tchunk) or from the
    /// tchunk piece's completion.
    void post_zchunk_recvs(LciParcelport& port);
    void drop_ref(LciParcelport& port);
    void finish(LciParcelport& port);
    void reset();
  };

  /// Builds the completion object for one operation: the shared CQ in cq
  /// mode, or a pooled synchronizer added to a sharded pending list in sy
  /// mode.
  minilci::Comp make_comp();

  // Connection/synchronizer freelists (paper: "zero allocation on the
  // critical path"). Pop-or-new on acquire; reset-and-push (or delete, when
  // the bounded pool is full) on recycle.
  SenderConnection* acquire_sender();
  ReceiverConnection* acquire_receiver();
  void recycle(SenderConnection* connection);
  void recycle(ReceiverConnection* connection);

  std::uint32_t alloc_tags(std::size_t count);
  void handle_header(amt::Rank src, const std::byte* data, std::size_t size);
  /// Fired as a minilci handler completion from progress context when a
  /// batch frame arrives on kFastpathTag; hands it to handle_batch.
  static void fastpath_handler(minilci::CqEntry&& entry, void* arg);
  /// Batch-frame delivery: one CRC + one seq check, then every parcel
  /// dispatches through the normal delivery path.
  void handle_batch(amt::Rank src, std::vector<std::byte>&& frame);
  /// Takes a packet from the eager pool, driving progress (mt) and backing
  /// off between attempts; gives up after `max_rounds` failed attempts
  /// (0 = waits until a packet frees up).
  std::optional<minilci::PacketBuffer> alloc_packet(unsigned max_rounds);
  /// Injects `packet` — a dynamic put under psr, a medium send under sr —
  /// retrying kRetry with backoff until it is accepted.
  void inject_packet(amt::Rank dst, minilci::Tag tag,
                     minilci::PacketBuffer& packet, const minilci::Comp& comp,
                     std::uint64_t ctx = 0);
  /// Encodes `count` parcels as one batch frame in a pool packet and
  /// injects it on the reserved tag (the fast path sends count 1, the
  /// aggregator's flush the whole batch). Returns false, sending nothing,
  /// when alloc_packet(`alloc_rounds`) gives up; true once the frame is
  /// accepted, after which the parcels' done callbacks may fire.
  bool send_frame(amt::Rank dst, const amt::OutMessage* const* msgs,
                  std::size_t count, unsigned alloc_rounds);
  /// Aggregator flush callback: sends the batch as one frame, then fires
  /// every entry's done callback.
  void flush_batch(amt::Rank dst,
                   std::vector<amt::Aggregator::Entry>&& batch,
                   amt::Aggregator::FlushReason reason);
  void dispatch_entry(minilci::CqEntry&& entry);
  bool poll_completions();
  bool poll_remote_puts();
  bool poll_synchronizers(unsigned worker_index);
  bool retry_senders();
  /// Ticket-bounded Device::progress(): at most `progress_threads_` callers
  /// poll the NIC concurrently; losers skip cheaply (counted under
  /// pplci/*/progress_skips). Returns the packets processed, or 0 on a
  /// skip (`*ran` reports which).
  std::size_t try_progress(bool* ran = nullptr);
  /// Posts one follow-up receive (medium or long, by size) for `piece`.
  void post_recv_piece(ReceiverConnection* connection, std::size_t piece,
                       std::size_t size, std::vector<std::byte>& buf);
  /// Bounded exponential backoff between injection retries; counts every
  /// round in pplci/*/send_retries.
  void send_backoff(unsigned& round);
  void progress_thread_loop();

  /// The public constructor builds `device_config` once and delegates here.
  LciParcelport(const amt::ParcelportContext& context,
                const minilci::Config& device_config);

  const amt::ParcelportContext context_;
  const amt::ParcelportConfig::Protocol protocol_;
  const amt::ParcelportConfig::ProgressType progress_type_;
  const amt::ParcelportConfig::CompType completion_type_;
  const std::size_t max_header_size_;
  const std::size_t pipeline_depth_;  // 0 = unbounded
  const int progress_threads_;        // ticket bound; 0 = unbounded
  const std::size_t fastpath_cap_;    // eager threshold; 0 = fpoff
  const std::size_t agg_cap_;         // batch-frame byte cap; 0 = agg off

  minilci::CompQueue remote_put_cq_;  // pre-configured remote CQ for puts
  minilci::Device device_;
  minilci::CompQueue comp_cq_;        // cq mode: all op completions

  // Progress tickets (mt mode): a counting try-lock over Device::progress.
  std::atomic<int> progress_tickets_;

  // Per-worker adaptive idle backoff: a worker whose progress calls keep
  // coming back empty skips (2^level - 1) subsequent background progress
  // polls while the device looks idle, so fully idle workers stay off the
  // shared NIC path. Any progress or non-idle hint resets the level.
  struct ProgressBackoff {
    unsigned defer = 0;
    unsigned level = 0;
  };
  std::vector<common::CachePadded<ProgressBackoff>> progress_backoff_;

  // sy mode: per-operation synchronizers on sharded pending lists, polled
  // round-robin starting at the worker's own shard (no global lock).
  struct SyncShard {
    common::SpinMutex mutex;
    std::deque<minilci::Synchronizer*> pending;
  };
  std::array<common::CachePadded<SyncShard>, kSyncShards> sync_shards_;

  // sr mode: one always-posted header receive per peer (reposted by the
  // completion handler; no state needed beyond the sentinel context).

  // Claimed sender pieces that hit resource back-pressure. Each entry keeps
  // its own backoff round so retry pressure is tracked per piece — a fresh
  // piece must not inherit another piece's escalated round.
  struct RetryEntry {
    SenderConnection* connection = nullptr;
    std::size_t piece = 0;
    unsigned round = 0;
  };
  common::SpinMutex retry_mutex_;
  std::deque<RetryEntry> retry_;

  queues::MpmcQueue<SenderConnection*> sender_pool_{1024};
  queues::MpmcQueue<ReceiverConnection*> receiver_pool_{1024};
  queues::MpmcQueue<minilci::Synchronizer*> sync_pool_{4096};

  std::atomic<std::uint64_t> next_tag_{1};  // 0 is the sr header tag

  // End-to-end header integrity: per-destination generation counters stamped
  // into every WireHeader, and per-source trackers that fail fast on a
  // duplicated header (which would double-deliver a parcel).
  std::vector<common::CachePadded<std::atomic<std::uint32_t>>> header_seq_tx_;
  struct HeaderSeqRx {
    common::SpinMutex mutex;
    amt::HeaderSeqTracker tracker;
  };
  std::vector<common::CachePadded<HeaderSeqRx>> header_seq_rx_;

  std::thread progress_thread_;  // pin mode ("rp" resource partitioner)
  std::atomic<bool> progress_stop_{false};

  // Adaptive aggregation engine (null when agg_cap_ == 0).
  std::unique_ptr<amt::Aggregator> aggregator_;
  // Running mean batch size (parcels per flushed frame, x100 for two
  // decimal places) published through a delta-updated gauge; the atomics
  // back the exact arithmetic even when telemetry is compiled out.
  std::atomic<std::uint64_t> agg_batched_total_{0};
  std::atomic<std::uint64_t> agg_flushes_total_{0};
  std::atomic<std::int64_t> agg_mean_prev_{0};

  // Metrics under pplci/loc<rank>/... in the fabric's registry. The send
  // histogram measures send() entry to done-callback firing (only when
  // telemetry timing is enabled; see telemetry::timing_enabled).
  telemetry::Counter& ctr_delivered_;
  telemetry::Counter& ctr_progress_skips_;  // ticket-layer progress skips
  telemetry::Counter& ctr_send_retries_;  // backoff rounds in send()
  telemetry::Counter& ctr_conn_reuses_;   // connections served by the pools
  telemetry::Counter& ctr_conn_allocs_;   // connections newly heap-allocated
  telemetry::Counter& ctr_sync_reuses_;
  telemetry::Counter& ctr_sync_allocs_;
  telemetry::Counter& ctr_fastpath_hits_;  // parcels sent as count-1 frames
  telemetry::Counter& ctr_fastpath_fallbacks_;  // fp on, but the parcel left
                                                // the fast path (over the cap
                                                // or pool exhausted)
  telemetry::Counter& ctr_agg_batched_;       // parcels sent inside batches
  telemetry::Counter& ctr_agg_flushes_size_;  // batch flushes: size cap
  telemetry::Counter& ctr_agg_flushes_stall_;  // batch flushes: the buffer
                                               // absorbed the whole window
  telemetry::Counter& ctr_agg_flushes_age_;   // batch flushes: age deadline
  telemetry::Counter& ctr_agg_flushes_idle_;  // batch flushes: idle/final
  telemetry::Gauge& gauge_agg_mean_batch_x100_;  // parcels per frame x100
  telemetry::Gauge& gauge_pieces_in_flight_;  // posted, not-yet-completed
                                              // follow-up pieces (sender)
  telemetry::Gauge& gauge_send_queue_depth_;  // messages accepted by send(),
                                              // done callback still pending
  telemetry::Histogram& hist_send_ns_;

  std::atomic<bool> started_{false};
};

}  // namespace pplci
