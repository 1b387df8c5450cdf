#include "parcelport_lci/parcelport_lci.hpp"

#include <algorithm>
#include <cassert>
#include <mutex>
#include <string>

#include "common/affinity.hpp"
#include "common/clock.hpp"
#include "common/config.hpp"
#include "common/integrity.hpp"
#include "common/logging.hpp"

namespace pplci {

namespace {
minilci::Config make_device_config(const amt::ParcelportConfig& config) {
  minilci::Config device;
  // Send-side packet pool size (a test hook: a pool of 1 forces fast-path
  // pool exhaustion to pin the fallback/credit-conservation behaviour).
  device.packet_pool_size = static_cast<std::size_t>(common::env_int(
      "AMTNET_LCI_PACKET_POOL",
      static_cast<std::int64_t>(device.packet_pool_size), 1, 1 << 20));
  // Rendezvous-state shard count ("rs<N>"; rs1 collapses the sharded tables
  // to one table + lock, the ablation baseline; absent = device default).
  if (config.lci_rdv_shards > 0) device.rdv_shards = config.lci_rdv_shards;
  return device;
}

std::string pp_metric(amt::Rank rank, const char* leaf) {
  return "pplci/loc" + std::to_string(rank) + "/" + leaf;
}
}  // namespace

LciParcelport::LciParcelport(const amt::ParcelportContext& context)
    : LciParcelport(context, make_device_config(context.config)) {}

LciParcelport::LciParcelport(const amt::ParcelportContext& context,
                             const minilci::Config& device_config)
    : context_(context),
      protocol_(context.config.protocol),
      progress_type_(context.config.progress),
      completion_type_(context.config.completion),
      max_header_size_(std::min(
          std::max(context.zero_copy_threshold, sizeof(amt::WireHeader)),
          device_config.eager_threshold)),
      pipeline_depth_(context.config.lci_pipeline_depth),
      progress_threads_(static_cast<int>(context.config.lci_progress_threads)),
      fastpath_cap_(context.config.lci_fastpath == 0
                        ? 0
                        : device_config.eager_threshold),
      // The cap bounds the whole batch frame, so it never exceeds one medium
      // message (parse already rejected caps below the minimum frame).
      agg_cap_(std::min(context.config.lci_agg, device_config.eager_threshold)),
      device_(*context.fabric, context.rank, device_config, &remote_put_cq_),
      progress_tickets_(progress_threads_),
      progress_backoff_(context.num_workers + 1),
      header_seq_tx_(context.fabric->num_ranks()),
      header_seq_rx_(context.fabric->num_ranks()),
      ctr_delivered_(context.fabric->telemetry().counter(
          pp_metric(context.rank, "messages_delivered"))),
      ctr_progress_skips_(context.fabric->telemetry().counter(
          pp_metric(context.rank, "progress_skips"))),
      ctr_send_retries_(context.fabric->telemetry().counter(
          pp_metric(context.rank, "send_retries"))),
      ctr_conn_reuses_(context.fabric->telemetry().counter(
          pp_metric(context.rank, "conn_reuses"))),
      ctr_conn_allocs_(context.fabric->telemetry().counter(
          pp_metric(context.rank, "conn_allocs"))),
      ctr_sync_reuses_(context.fabric->telemetry().counter(
          pp_metric(context.rank, "sync_reuses"))),
      ctr_sync_allocs_(context.fabric->telemetry().counter(
          pp_metric(context.rank, "sync_allocs"))),
      ctr_fastpath_hits_(context.fabric->telemetry().counter(
          pp_metric(context.rank, "fastpath_hits"))),
      ctr_fastpath_fallbacks_(context.fabric->telemetry().counter(
          pp_metric(context.rank, "fastpath_fallbacks"))),
      ctr_agg_batched_(context.fabric->telemetry().counter(
          pp_metric(context.rank, "agg_batched"))),
      ctr_agg_flushes_size_(context.fabric->telemetry().counter(
          pp_metric(context.rank, "agg_flushes_size"))),
      ctr_agg_flushes_stall_(context.fabric->telemetry().counter(
          pp_metric(context.rank, "agg_flushes_stall"))),
      ctr_agg_flushes_age_(context.fabric->telemetry().counter(
          pp_metric(context.rank, "agg_flushes_age"))),
      ctr_agg_flushes_idle_(context.fabric->telemetry().counter(
          pp_metric(context.rank, "agg_flushes_idle"))),
      gauge_agg_mean_batch_x100_(context.fabric->telemetry().gauge(
          pp_metric(context.rank, "agg_mean_batch_x100"))),
      gauge_pieces_in_flight_(context.fabric->telemetry().gauge(
          pp_metric(context.rank, "pieces_in_flight"))),
      gauge_send_queue_depth_(context.fabric->telemetry().gauge(
          pp_metric(context.rank, "send_queue_depth"))),
      hist_send_ns_(context.fabric->telemetry().histogram(
          pp_metric(context.rank, "send_ns"))) {
  telemetry::Registry& registry = context.fabric->telemetry();
  remote_put_cq_.attach_depth_gauge(
      &registry.gauge(pp_metric(context.rank, "remote_put_cq_depth")));
  comp_cq_.attach_depth_gauge(
      &registry.gauge(pp_metric(context.rank, "comp_cq_depth")));
  if (fastpath_cap_ > 0 || agg_cap_ > 0) {
    // Batch frames arrive on the reserved tag and dispatch straight from
    // progress context — armed before any progress thread exists.
    device_.register_tag_handler(
        minilci::kFastpathTag,
        minilci::Comp::handler(&LciParcelport::fastpath_handler, this));
  }
  if (agg_cap_ > 0) {
    aggregator_ = std::make_unique<amt::Aggregator>(
        context.fabric->num_ranks(), agg_cap_,
        // aggt<U> microseconds, default 200; 0 disables the age trigger.
        static_cast<common::Nanos>(context.config.lci_agg_age_us < 0
                                       ? 200
                                       : context.config.lci_agg_age_us) *
            1000,
        [this](amt::Rank dst, std::vector<amt::Aggregator::Entry>&& batch,
               amt::Aggregator::FlushReason reason) {
          flush_batch(dst, std::move(batch), reason);
        });
  }
}

LciParcelport::~LciParcelport() {
  stop();
  while (auto connection = sender_pool_.try_pop()) delete *connection;
  while (auto connection = receiver_pool_.try_pop()) delete *connection;
  while (auto sync = sync_pool_.try_pop()) delete *sync;
  for (auto& shard : sync_shards_) {
    for (minilci::Synchronizer* sync : shard.value.pending) delete sync;
  }
}

void LciParcelport::start() {
  started_.store(true);
  if (protocol_ == amt::ParcelportConfig::Protocol::kSendRecv) {
    // One always-posted header receive per peer, the MPI-parcelport style.
    for (amt::Rank r = 0; r < device_.world_size(); ++r) {
      if (r == context_.rank) continue;
      device_.recvm(r, kHeaderTag, make_comp(), kHeaderRecvCtx);
    }
  }
  if (progress_type_ == amt::ParcelportConfig::ProgressType::kPinned) {
    progress_stop_.store(false);
    progress_thread_ = std::thread([this] { progress_thread_loop(); });
  }
}

void LciParcelport::stop() {
  // Drain partially filled batches while a progress path still exists so
  // their done callbacks (and any buffers they hold) release before
  // teardown.
  if (aggregator_) aggregator_->flush_all();
  if (progress_thread_.joinable()) {
    progress_stop_.store(true);
    progress_thread_.join();
  }
  started_.store(false);
}

void LciParcelport::progress_thread_loop() {
  // The HPX resource partitioner pins the progress thread at core 0.
  common::pin_current_thread(0);
  common::set_current_thread_name("lci-progress");
  while (!progress_stop_.load(std::memory_order_relaxed)) {
    if (device_.progress() == 0) std::this_thread::yield();
  }
}

minilci::Comp LciParcelport::make_comp() {
  if (completion_type_ == amt::ParcelportConfig::CompType::kQueue) {
    return minilci::Comp::queue(&comp_cq_);
  }
  minilci::Synchronizer* sync = nullptr;
  if (auto pooled = sync_pool_.try_pop()) {
    sync = *pooled;
    ctr_sync_reuses_.add();
  } else {
    sync = new minilci::Synchronizer(1);
    ctr_sync_allocs_.add();
  }
  const minilci::Comp comp = minilci::Comp::sync(sync);
  SyncShard& shard =
      sync_shards_[telemetry::shard_slot() & (kSyncShards - 1)].value;
  std::lock_guard<common::SpinMutex> guard(shard.mutex);
  shard.pending.push_back(sync);
  return comp;
}

LciParcelport::SenderConnection* LciParcelport::acquire_sender() {
  if (auto connection = sender_pool_.try_pop()) {
    ctr_conn_reuses_.add();
    return *connection;
  }
  ctr_conn_allocs_.add();
  return new SenderConnection();
}

LciParcelport::ReceiverConnection* LciParcelport::acquire_receiver() {
  if (auto connection = receiver_pool_.try_pop()) {
    ctr_conn_reuses_.add();
    return *connection;
  }
  ctr_conn_allocs_.add();
  return new ReceiverConnection();
}

void LciParcelport::recycle(SenderConnection* connection) {
  connection->reset();
  if (!sender_pool_.try_push(connection)) delete connection;
}

void LciParcelport::recycle(ReceiverConnection* connection) {
  connection->reset();
  if (!receiver_pool_.try_push(connection)) delete connection;
}

std::uint32_t LciParcelport::alloc_tags(std::size_t count) {
  // Distinct tag per follow-up message (no in-order delivery in LCI). The
  // 32-bit tag space wraps mid-run on long workloads; a range must never
  // start at — or wrap through — the reserved header tag 0, or follow-up
  // traffic would collide with sr-protocol headers; nor may it reach the
  // reserved fast-path tag 0xFFFFFFFF (the last value before the wrap), or
  // a follow-up piece would fire the batch-frame handler. Receivers route
  // pieces with u32 subtraction (entry.tag - tag_base), which stays correct
  // across the wrap as long as the range itself is contiguous mod 2^32,
  // which the restart below guarantees.
  assert(count > 0 && count < (1u << 16));
  static_assert(minilci::kFastpathTag == 0xFFFFFFFFu,
                "the >= wrap check below reserves exactly the last tag");
  std::uint64_t cur = next_tag_.load(std::memory_order_relaxed);
  for (;;) {
    std::uint32_t base = static_cast<std::uint32_t>(cur);
    if (base == kHeaderTag ||
        static_cast<std::uint64_t>(base) + count >= (1ull << 32)) {
      base = 1;  // skip the reserved tag / the wrap point
    }
    const std::uint64_t next = static_cast<std::uint64_t>(base) + count;
    if (next_tag_.compare_exchange_weak(cur, next,
                                        std::memory_order_relaxed)) {
      return base;
    }
  }
}

void LciParcelport::send_backoff(unsigned& round) {
  // Bounded exponential backoff: spin-wait 2^round pauses (capped), then
  // start yielding to the OS. Keeps retry storms off the NIC and the free
  // list while staying responsive when the resource frees up quickly.
  constexpr unsigned kCapShift = 10;
  ctr_send_retries_.add();
  const unsigned shift = std::min(round, kCapShift);
  for (unsigned i = 0; i < (1u << shift); ++i) {
    common::SpinMutex::cpu_relax();
  }
  if (shift == kCapShift) std::this_thread::yield();
  ++round;
}

std::optional<minilci::PacketBuffer> LciParcelport::alloc_packet(
    unsigned max_rounds) {
  unsigned backoff_round = 0;
  for (unsigned attempt = 0; max_rounds == 0 || attempt < max_rounds;
       ++attempt) {
    if (auto packet = device_.try_alloc_packet()) return packet;
    if (progress_type_ == amt::ParcelportConfig::ProgressType::kWorker) {
      try_progress();
    }
    send_backoff(backoff_round);
  }
  return std::nullopt;
}

void LciParcelport::inject_packet(amt::Rank dst, minilci::Tag tag,
                                  minilci::PacketBuffer& packet,
                                  const minilci::Comp& comp,
                                  std::uint64_t ctx) {
  // Explicit retry with bounded backoff on transient resource exhaustion,
  // per LCI's explicit-retry contract.
  unsigned backoff_round = 0;
  for (;;) {
    const common::Status status =
        protocol_ == amt::ParcelportConfig::Protocol::kPutSendRecv
            ? device_.put_dyn_packet(dst, tag, packet, comp, ctx)
            : device_.sendm_packet(dst, tag, packet, comp, ctx);
    if (status == common::Status::kOk) return;
    if (progress_type_ == amt::ParcelportConfig::ProgressType::kWorker) {
      try_progress();
    }
    send_backoff(backoff_round);
  }
}

bool LciParcelport::send_frame(amt::Rank dst,
                               const amt::OutMessage* const* msgs,
                               std::size_t count, unsigned alloc_rounds) {
  std::optional<minilci::PacketBuffer> packet = alloc_packet(alloc_rounds);
  if (!packet) return false;
  const std::uint32_t seq =
      header_seq_tx_[dst].value.fetch_add(1, std::memory_order_relaxed);
  packet->set_size(amt::encode_batch_to(msgs, count, seq, packet->data(),
                                        packet->capacity()));
  // Local completion of *_packet is synchronous on kOk, so the caller may
  // fire its done callbacks as soon as this returns.
  inject_packet(dst, minilci::kFastpathTag, *packet, minilci::Comp::none());
  return true;
}

void LciParcelport::send(amt::Rank dst, amt::OutMessage msg,
                         common::UniqueFunction<void()> done) {
  AMTNET_TRACE_SCOPE("pplci", "send");
  gauge_send_queue_depth_.add();  // balanced in drop_ref, at done()
  if (telemetry::timing_enabled()) {
    // Time the full send path: send() entry until the done callback fires
    // from the completion chain. Per-message frequency, so cheap enough.
    const common::Nanos start = common::now_ns();
    done = [this, start, inner = std::move(done)]() mutable {
      hist_send_ns_.record(
          static_cast<std::uint64_t>(common::now_ns() - start));
      inner();
    };
  }
  // Every small parcel travels as a batch frame on the reserved tag. Adaptive
  // aggregation: one bound for a backpressured destination joins the
  // per-destination coalescing buffer, and the aggregator's flush callback
  // (flush_batch) fires `done` later. An idle destination falls through to
  // the fast path below, unbuffered — the load-aware switch.
  const std::size_t frame_size = amt::batch_frame_size(msg);
  if (aggregator_ && frame_size <= agg_cap_) {
    const std::int64_t depth =
        context_.queue_depth ? context_.queue_depth(dst) : 0;
    if (aggregator_->enqueue(dst, depth, msg, done)) return;
  }

  // Small-parcel fast path (put-with-completion): the parcel goes out now
  // as a count-1 frame, dispatched by the destination's handler completion
  // — no connection, no follow-up tags, no completion-queue round trip.
  // The packet-pool wait is bounded: sustained exhaustion (every in-flight
  // frame holding a packet) must NOT spin forever — the connection path
  // below has its own buffers and its completion chain frees packets. The
  // hand-off keeps `done` intact, so admission credits are conserved.
  if (fastpath_cap_ > 0) {
    constexpr unsigned kFastpathAllocRounds = 8;
    const amt::OutMessage* const one = &msg;
    if (frame_size <= fastpath_cap_ &&
        send_frame(dst, &one, 1, kFastpathAllocRounds)) {
      ctr_fastpath_hits_.add();
      gauge_send_queue_depth_.sub();
      done();
      return;
    }
    // Exactly one fallback count per parcel that leaves the fast path —
    // whether the frame was over the cap or the packet pool stayed
    // exhausted.
    ctr_fastpath_fallbacks_.add();
  }

  const amt::HeaderPlan plan = amt::HeaderPlan::decide(msg, max_header_size_);

  SenderConnection* connection = acquire_sender();
  connection->dst = dst;
  connection->done = std::move(done);
  // Follow-up piece layout, mirrored by the receiver: [main][tchunk][z...].
  // An empty main chunk travels piggybacked-by-omission (never as a piece).
  if (!plan.piggy_main && !msg.main_chunk.empty()) {
    connection->pieces.emplace_back(msg.main_chunk.data(),
                                    msg.main_chunk.size());
  }
  if (msg.has_zchunks() && !plan.piggy_tchunk) {
    msg.make_tchunk_into(connection->tchunk_buf);
    connection->pieces.emplace_back(connection->tchunk_buf.data(),
                                    connection->tchunk_buf.size());
  }
  for (const amt::ZChunk& chunk : msg.zchunks) {
    connection->pieces.emplace_back(chunk.data, chunk.size);
  }
  connection->tag_base =
      connection->pieces.empty() ? 0 : alloc_tags(connection->pieces.size());
  // One reference per operation (header + pieces) plus the guard this
  // function holds while it still touches the connection.
  connection->remaining.store(2 + connection->pieces.size(),
                              std::memory_order_relaxed);

  // Assemble the header directly in an LCI packet buffer (saves a copy on
  // the eager path — paper §3.2.1), then inject it.
  std::optional<minilci::PacketBuffer> packet = alloc_packet(0);
  const std::uint32_t header_seq =
      header_seq_tx_[dst].value.fetch_add(1, std::memory_order_relaxed);
  const std::size_t header_size =
      amt::encode_header_to(msg, plan, connection->tag_base, header_seq,
                            packet->data(), packet->capacity());
  packet->set_size(header_size);
  connection->msg = std::move(msg);

  inject_packet(dst, kHeaderTag, *packet, make_comp(),
                reinterpret_cast<std::uint64_t>(
                    static_cast<Connection*>(connection)));

  // Seed the pipeline: with depth d, the header plus d-1 pieces may be in
  // flight at once (each completion then posts one replacement, so depth 1
  // reproduces the old serialized walk). Unbounded: post everything now.
  const std::size_t seed =
      pipeline_depth_ == 0
          ? connection->pieces.size()
          : std::min(pipeline_depth_ - 1, connection->pieces.size());
  for (std::size_t i = 0; i < seed; ++i) {
    if (!connection->post_one(*this)) break;
  }
  // Drop the send() guard; from here the completion chain owns the
  // connection (and may already be recycling it on another thread).
  connection->drop_ref(*this);
}

common::Status LciParcelport::SenderConnection::post_piece(
    LciParcelport& port, std::size_t index) {
  const auto [data, size] = pieces[index];
  const std::uint32_t tag = tag_base + static_cast<std::uint32_t>(index);
  const minilci::Comp comp = port.make_comp();
  const auto ctx =
      reinterpret_cast<std::uint64_t>(static_cast<Connection*>(this));
  const common::Status status =
      size <= port.device_.max_medium_size()
          ? port.device_.sendm(dst, tag, data, size, comp, ctx)
          : port.device_.sendl(dst, tag, data, size, comp, ctx);
  if (status == common::Status::kOk) port.gauge_pieces_in_flight_.add();
  return status;
}

bool LciParcelport::SenderConnection::post_one(LciParcelport& port) {
  std::size_t index = next_piece.load(std::memory_order_relaxed);
  for (;;) {
    if (index >= pieces.size()) return false;
    if (next_piece.compare_exchange_weak(index, index + 1,
                                         std::memory_order_relaxed)) {
      break;
    }
  }
  if (post_piece(port, index) == common::Status::kRetry) {
    std::lock_guard<common::SpinMutex> guard(port.retry_mutex_);
    port.retry_.push_back(RetryEntry{this, index, 0});
  }
  return true;
}

void LciParcelport::SenderConnection::on_completion(
    LciParcelport& port, minilci::CqEntry&& entry) {
  // Header completions: the dynamic put (psr) or the tag-0 medium send
  // (sr). Everything else is a follow-up piece (piece tags start at 1).
  const bool is_piece = entry.op != minilci::OpKind::kPutDyn &&
                        entry.tag != LciParcelport::kHeaderTag;
  if (is_piece) port.gauge_pieces_in_flight_.sub();
  // Keep the pipeline at its depth: every completion posts one replacement
  // piece (a no-op once all pieces are claimed).
  post_one(port);
  drop_ref(port);
}

void LciParcelport::SenderConnection::drop_ref(LciParcelport& port) {
  if (remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    port.gauge_send_queue_depth_.sub();
    done();
    port.recycle(this);
  }
}

void LciParcelport::SenderConnection::reset() {
  dst = 0;
  msg = amt::OutMessage{};  // releases the archive buffer + keepalives
  done = common::UniqueFunction<void()>();
  tchunk_buf.clear();  // capacity survives for the next use
  pieces.clear();
  tag_base = 0;
  next_piece.store(0, std::memory_order_relaxed);
  remaining.store(0, std::memory_order_relaxed);
}

bool LciParcelport::retry_senders() {
  bool did_work = false;
  for (int i = 0; i < 8; ++i) {
    RetryEntry entry;
    {
      std::lock_guard<common::SpinMutex> guard(retry_mutex_);
      if (retry_.empty()) break;
      entry = retry_.front();
      retry_.pop_front();
    }
    // The claimed piece's completion has not fired, so the connection is
    // guaranteed alive here.
    if (entry.connection->post_piece(*this, entry.piece) ==
        common::Status::kRetry) {
      // Count every retry round under pplci/*/send_retries, same as the
      // send()-path backoff, and escalate only this piece's own round.
      ++entry.round;
      ctr_send_retries_.add();
      std::lock_guard<common::SpinMutex> guard(retry_mutex_);
      retry_.push_front(entry);
      break;
    }
    did_work = true;
  }
  return did_work;
}

void LciParcelport::post_recv_piece(ReceiverConnection* connection,
                                    std::size_t piece, std::size_t size,
                                    std::vector<std::byte>& buf) {
  const std::uint32_t tag =
      connection->tag_base + static_cast<std::uint32_t>(piece);
  const minilci::Comp comp = make_comp();
  const auto ctx =
      reinterpret_cast<std::uint64_t>(static_cast<Connection*>(connection));
  if (size <= device_.max_medium_size()) {
    // Medium: the payload arrives as an owned buffer in the entry and is
    // moved into place by the completion handler.
    device_.recvm(connection->src, tag, comp, ctx);
  } else {
    buf.resize(size);
    device_.recvl(connection->src, tag, buf.data(), size, comp, ctx);
  }
}

void LciParcelport::ReceiverConnection::post_zchunk_recvs(
    LciParcelport& port) {
  const std::vector<std::uint64_t> zsizes =
      amt::parse_tchunk(tchunk.data(), tchunk.size());
  assert(zsizes.size() == fields.num_zchunks);
  // Size the slot vector before posting anything: completions may land (on
  // other threads) while later receives are still being posted, and the
  // slots must not move under them.
  zchunks.resize(fields.num_zchunks);
  for (std::size_t i = 0; i < zsizes.size(); ++i) {
    port.post_recv_piece(this, zbase + i, zsizes[i], zchunks[i]);
  }
}

void LciParcelport::ReceiverConnection::on_completion(
    LciParcelport& port, minilci::CqEntry&& entry) {
  const std::size_t piece = entry.tag - tag_base;
  const bool is_medium = entry.op == minilci::OpKind::kRecvMedium;
  if (static_cast<int>(piece) == tchunk_piece) {
    if (is_medium) tchunk = std::move(entry.data);
    // Zero-copy chunk sizes are now known; pre-post every zchunk receive.
    // Our own un-dropped reference keeps the connection alive throughout.
    post_zchunk_recvs(port);
  } else if (static_cast<int>(piece) == main_piece) {
    if (is_medium) main = std::move(entry.data);
  } else {
    assert(piece >= zbase && piece - zbase < zchunks.size());
    if (is_medium) zchunks[piece - zbase] = std::move(entry.data);
    // Long receives already landed in the pre-sized slot buffer.
  }
  drop_ref(port);
}

void LciParcelport::ReceiverConnection::drop_ref(LciParcelport& port) {
  if (remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    finish(port);
  }
}

void LciParcelport::ReceiverConnection::finish(LciParcelport& port) {
  amt::InMessage in;
  in.source = src;
  in.main_chunk = std::move(main);
  in.zchunks = std::move(zchunks);
  port.ctr_delivered_.add();
  port.context_.deliver(std::move(in));
  port.recycle(this);
}

void LciParcelport::ReceiverConnection::reset() {
  src = 0;
  tag_base = 0;
  fields = amt::WireHeader{};
  main.clear();
  tchunk.clear();
  zchunks.clear();
  main_piece = -1;
  tchunk_piece = -1;
  zbase = 0;
  remaining.store(0, std::memory_order_relaxed);
}

void LciParcelport::handle_header(amt::Rank src, const std::byte* data,
                                  std::size_t size) {
  amt::DecodedHeader decoded = amt::decode_header(data, size);
  {
    // A duplicated header would double-deliver a parcel: fail fast.
    HeaderSeqRx& rx = header_seq_rx_[src].value;
    std::lock_guard<common::SpinMutex> guard(rx.mutex);
    if (!rx.tracker.accept(decoded.fields.seq)) {
      common::integrity_fail("pplci: duplicated wire header rank=",
                             context_.rank, " src=", src,
                             " seq=", decoded.fields.seq,
                             " tag=", decoded.fields.tag,
                             " — a duplicate would double-deliver a parcel");
    }
  }

  ReceiverConnection* connection = acquire_receiver();
  connection->src = src;
  connection->tag_base = decoded.fields.tag;
  connection->fields = decoded.fields;
  connection->main = std::move(decoded.piggy_main);
  connection->tchunk = std::move(decoded.piggy_tchunk);

  const amt::WireHeader& fields = connection->fields;
  const bool has_main = !fields.piggy_main && fields.main_size > 0;
  const bool has_tchunk = fields.num_zchunks > 0 && !fields.piggy_tchunk;
  std::size_t index = 0;
  if (has_main) connection->main_piece = static_cast<int>(index++);
  if (has_tchunk) connection->tchunk_piece = static_cast<int>(index++);
  connection->zbase = index;
  const std::size_t total_pieces = index + fields.num_zchunks;
  // One reference per expected piece, plus the posting guard held until the
  // end of this function (it also finishes fully-piggybacked messages).
  connection->remaining.store(total_pieces + 1, std::memory_order_relaxed);

  // Pre-post every receive we already know the size of; completions may
  // land in any order and are routed by tag.
  if (has_main) {
    post_recv_piece(connection, static_cast<std::size_t>(
                                    connection->main_piece),
                    fields.main_size, connection->main);
  }
  if (has_tchunk) {
    post_recv_piece(connection,
                    static_cast<std::size_t>(connection->tchunk_piece),
                    fields.num_zchunks * sizeof(std::uint64_t),
                    connection->tchunk);
  } else if (fields.num_zchunks > 0) {
    // Piggybacked tchunk: zero-copy chunk sizes are already known.
    connection->post_zchunk_recvs(*this);
  }
  connection->drop_ref(*this);
}

void LciParcelport::fastpath_handler(minilci::CqEntry&& entry, void* arg) {
  auto* port = static_cast<LciParcelport*>(arg);
  port->handle_batch(entry.rank, std::move(entry.data));
}

void LciParcelport::handle_batch(amt::Rank src,
                                 std::vector<std::byte>&& frame) {
  // Runs in progress context (the pinned progress thread, or whichever
  // worker won the progress ticket). One CRC and ONE per-channel seq check
  // cover the whole frame; each parcel then dispatches through the normal
  // delivery path, so the destination handler returns its admission credit
  // exactly as it would for an unbatched parcel.
  const amt::BatchHeader header = amt::decode_batch(frame.data(), frame.size());
  {
    // Frames share the per-channel sequence space with wire headers, so
    // the same tracker catches duplicates of either kind — a duplicated
    // frame would double-dispatch its parcels.
    HeaderSeqRx& rx = header_seq_rx_[src].value;
    std::lock_guard<common::SpinMutex> guard(rx.mutex);
    if (!rx.tracker.accept(header.seq)) {
      common::integrity_fail("pplci: duplicated batch frame rank=",
                             context_.rank, " src=", src,
                             " seq=", header.seq, " count=", header.count,
                             " — a duplicate would double-dispatch parcels");
    }
  }
  amt::take_batch_entries(std::move(frame), src, [this](amt::InMessage&& in) {
    ctr_delivered_.add();
    context_.deliver(std::move(in));
  });
}

void LciParcelport::flush_batch(amt::Rank dst,
                                std::vector<amt::Aggregator::Entry>&& batch,
                                amt::Aggregator::FlushReason reason) {
  assert(!batch.empty());
  std::vector<const amt::OutMessage*> msgs;
  msgs.reserve(batch.size());
  for (const amt::Aggregator::Entry& entry : batch) {
    msgs.push_back(&entry.msg);
  }
  // Unbounded packet wait: a flushed batch has no fallback path. The
  // aggregator guarantees the frame fits agg_cap_ <= one medium message.
  send_frame(dst, msgs.data(), msgs.size(), /*alloc_rounds=*/0);

  ctr_agg_batched_.add(batch.size());
  switch (reason) {
    case amt::Aggregator::FlushReason::kSize:
      ctr_agg_flushes_size_.add();
      break;
    case amt::Aggregator::FlushReason::kStall:
      ctr_agg_flushes_stall_.add();
      break;
    case amt::Aggregator::FlushReason::kAge:
      ctr_agg_flushes_age_.add();
      break;
    case amt::Aggregator::FlushReason::kIdle:
    case amt::Aggregator::FlushReason::kFinal:
      ctr_agg_flushes_idle_.add();
      break;
  }
  // Publish the running mean batch size (parcels per frame, x100) through
  // an add/sub-only gauge by applying the delta from the last published
  // value.
  const std::uint64_t parcels = agg_batched_total_.fetch_add(
                                    batch.size(), std::memory_order_relaxed) +
                                batch.size();
  const std::uint64_t flushes =
      agg_flushes_total_.fetch_add(1, std::memory_order_relaxed) + 1;
  const std::int64_t mean =
      static_cast<std::int64_t>(parcels * 100 / flushes);
  const std::int64_t prev =
      agg_mean_prev_.exchange(mean, std::memory_order_relaxed);
  gauge_agg_mean_batch_x100_.add(mean - prev);

  // Local completion of *_packet is synchronous on kOk: every buffered
  // parcel's done callback can fire now (send_queue_depth was added once
  // per parcel at send() entry).
  for (amt::Aggregator::Entry& entry : batch) {
    gauge_send_queue_depth_.sub();
    entry.done();
  }
}

void LciParcelport::dispatch_entry(minilci::CqEntry&& entry) {
  if (entry.user_context == kHeaderRecvCtx) {
    // sr protocol: a header message arrived on the always-posted receive.
    const amt::Rank src = entry.rank;
    handle_header(src, entry.data.data(), entry.data.size());
    device_.recvm(src, kHeaderTag, make_comp(), kHeaderRecvCtx);  // repost
    return;
  }
  auto* connection = reinterpret_cast<Connection*>(entry.user_context);
  assert(connection != nullptr);
  connection->on_completion(*this, std::move(entry));
}

bool LciParcelport::poll_completions() {
  return comp_cq_.poll_batch(16, [this](minilci::CqEntry&& entry) {
           dispatch_entry(std::move(entry));
         }) > 0;
}

bool LciParcelport::poll_remote_puts() {
  return remote_put_cq_.poll_batch(16, [this](minilci::CqEntry&& entry) {
           assert(entry.op == minilci::OpKind::kRemotePut);
           handle_header(entry.rank, entry.data.data(), entry.data.size());
         }) > 0;
}

bool LciParcelport::poll_synchronizers(unsigned worker_index) {
  // The sy-variant analogue of the MPI parcelport's pending-connection
  // polling, sharded so concurrent pollers (and make_comp producers) do not
  // round-trip one global lock. Each worker starts at its own shard and
  // round-robins; a not-ready synchronizer sends the poller to the next
  // shard rather than busy-retesting the same one.
  bool did_work = false;
  int budget = 8;
  for (std::size_t k = 0; k < kSyncShards && budget > 0; ++k) {
    SyncShard& shard =
        sync_shards_[(worker_index + k) & (kSyncShards - 1)].value;
    while (budget > 0) {
      minilci::Synchronizer* sync = nullptr;
      {
        std::lock_guard<common::SpinMutex> guard(shard.mutex);
        if (shard.pending.empty()) break;
        sync = shard.pending.front();
        shard.pending.pop_front();
      }
      --budget;
      std::vector<minilci::CqEntry> entries;
      if (sync->test(&entries)) {
        // test() reset the synchronizer; recycle it before dispatching so
        // the entries' own make_comp calls can already reuse it.
        if (!sync_pool_.try_push(sync)) delete sync;
        for (auto& entry : entries) dispatch_entry(std::move(entry));
        did_work = true;
      } else {
        std::lock_guard<common::SpinMutex> guard(shard.mutex);
        shard.pending.push_back(sync);
        break;  // head of this shard not ready; try the next shard
      }
    }
  }
  return did_work;
}

std::size_t LciParcelport::try_progress(bool* ran) {
  if (progress_threads_ == 0) {
    if (ran != nullptr) *ran = true;
    return device_.progress();
  }
  int available = progress_tickets_.load(std::memory_order_relaxed);
  while (available > 0) {
    if (progress_tickets_.compare_exchange_weak(available, available - 1,
                                                std::memory_order_acquire,
                                                std::memory_order_relaxed)) {
      const std::size_t processed = device_.progress();
      progress_tickets_.fetch_add(1, std::memory_order_release);
      if (ran != nullptr) *ran = true;
      return processed;
    }
  }
  // All tickets taken: K threads are already on the NIC; skip cheaply.
  ctr_progress_skips_.add();
  if (ran != nullptr) *ran = false;
  return 0;
}

bool LciParcelport::background_work(unsigned worker_index) {
  if (!started_.load(std::memory_order_relaxed)) return false;
  bool did_work = false;
  if (progress_type_ == amt::ParcelportConfig::ProgressType::kWorker) {
    ProgressBackoff& backoff =
        progress_backoff_[std::min<std::size_t>(worker_index,
                                                progress_backoff_.size() - 1)]
            .value;
    if (backoff.defer > 0 && device_.looks_idle()) {
      --backoff.defer;  // stay off the shared progress path while idle
    } else {
      bool ran = false;
      const std::size_t processed = try_progress(&ran);
      if (processed > 0) {
        backoff.level = 0;
        backoff.defer = 0;
        did_work = true;
      } else if (ran) {
        // An empty poll: back off exponentially (1, 3, 7, ... 63 skips).
        backoff.level = std::min(backoff.level + 1, 6u);
        backoff.defer = (1u << backoff.level) - 1;
      }
    }
  }
  if (protocol_ == amt::ParcelportConfig::Protocol::kPutSendRecv) {
    did_work |= poll_remote_puts();
  }
  if (completion_type_ == amt::ParcelportConfig::CompType::kQueue) {
    did_work |= poll_completions();
  } else {
    did_work |= poll_synchronizers(worker_index);
  }
  did_work |= retry_senders();
  if (aggregator_ && !aggregator_->empty()) {
    // Age trigger first; then, when this worker found nothing else to do,
    // the idle trigger drains partial batches so a dying flood never waits
    // out the full age deadline. The emptiness hint keeps the unloaded
    // polling loop at one relaxed load — no clock read, no buffer scan.
    did_work |= aggregator_->poll(common::now_ns());
    if (!did_work) did_work |= aggregator_->flush_idle();
  }
  return did_work;
}

}  // namespace pplci
