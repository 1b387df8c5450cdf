#include "driver.hpp"

#include <thread>

#include "trace.hpp"

namespace perfbench {

void Endpoint::deliver(unsigned loc, std::uint64_t seq, bool reply,
                       const std::uint8_t* data, std::size_t len) {
  trace::Scope span("handler", seq, trace::Flow::kIn);
  ctx->check_parcel(loc, seq, data, len);
  Control& c = ctx->ctl();
  if (!pingpong_on.load(std::memory_order_relaxed)) {
    c.last_ns.store(now_ns(), std::memory_order_relaxed);
    c.received.fetch_add(1, std::memory_order_release);
    return;
  }
  if (!reply) {  // the ping reached locality 1: answer it
    reply_due[1].store(seq + 1, std::memory_order_release);
    return;
  }
  const std::int64_t t = now_ns();
  pongs.fetch_add(1, std::memory_order_relaxed);
  if (t < pingpong_deadline) {
    reply_due[0].store(seq + 2, std::memory_order_release);  // next ping
  }
  c.last_ns.store(t, std::memory_order_release);
}

namespace {

/// One progress call at `loc`, counted; a call that handled something is
/// recorded as a span, one empty call in kEmptyPollStride as a sample.
bool timed_poll(Endpoint& ep, unsigned loc) {
  constexpr std::uint64_t kEmptyPollStride = 64;
  Tally& tally = Tally::local();
  trace::Scope span(ep.poll_name());
  const bool useful = ep.poll(loc);
  const std::int64_t ns = span.finish(useful);
  if (useful) {
    ++tally.useful_polls;
  } else if (tally.polls % kEmptyPollStride == 0 && trace::enabled()) {
    tally.empty_poll_ns.push_back(static_cast<double>(ns));
  }
  ++tally.polls;
  return useful;
}

/// Injects one parcel, retrying until accepted; counts attempts/retries.
void post_until_accepted(Endpoint& ep, unsigned from, std::uint64_t seq,
                         bool reply, bool poll_on_retry) {
  Tally& tally = Tally::local();
  for (;;) {
    ++tally.attempts;
    trace::Scope span(ep.post_name(), seq,
                      reply ? trace::Flow::kNone : trace::Flow::kOut);
    if (ep.post(from, seq, reply)) return;
    span.finish(false);
    ++tally.retries;
    if (poll_on_retry) timed_poll(ep, from);
  }
}

/// Locality 0's background work run by the flood sender itself: repeated
/// until it finds nothing more to do, as a worker between tasks.
void drain(Endpoint& ep) {
  while (timed_poll(ep, 0)) {
  }
}

/// One poller thread standing in for a progress thread or worker.
void poller_loop(Endpoint& ep, unsigned loc, const std::atomic<bool>& stop) {
  while (!stop.load(std::memory_order_relaxed)) {
    timed_poll(ep, loc);
    if (const std::uint64_t due =
            ep.reply_due[loc].exchange(0, std::memory_order_acquire)) {
      post_until_accepted(ep, loc, due - 1, loc == 1, true);
    }
  }
}

}  // namespace

void drive(Ctx& ctx, Endpoint& ep, RungResult& out, std::string& chrome) {
  const Workload& w = ctx.w();
  Control& c = ctx.ctl();
  ep.ctx = &ctx;
  ep.pingpong_on.store(w.pingpong);

  std::atomic<bool> stop{false};
  std::vector<std::thread> pollers;
  for (unsigned loc = 0; loc < 2; ++loc) {
    if (!ctx.hosts(loc)) continue;
    unsigned count = w.pingpong ? w.workers : 1;
    if (!w.pingpong && loc == 0 && ep.sender_poll_every() > 0) count = 0;
    for (unsigned i = 0; i < count; ++i) {
      pollers.emplace_back([&ep, loc, &stop] { poller_loop(ep, loc, stop); });
    }
  }
  struct Joiner {  // joins the pollers on every exit path
    std::atomic<bool>& stop;
    std::vector<std::thread>& threads;
    ~Joiner() {
      stop.store(true);
      for (auto& t : threads) {
        if (t.joinable()) t.join();
      }
    }
  } joiner{stop, pollers};

  auto publish = [&] { ep.publish_counts(c); };
  ctx.barrier(publish);

  std::uint64_t next_seq = 0;
  if (ctx.is_sender()) {
    const double round_s = ctx.flood_round_s();
    const unsigned every = ep.sender_poll_every();
    auto flood_round = [&]() -> RoundTiming {
      RoundTiming t;
      t.start_ns = now_ns();
      const std::int64_t deadline =
          t.start_ns + static_cast<std::int64_t>(round_s * 1e9);
      const std::uint64_t first = next_seq;
      do {
        while (next_seq - c.received.load(std::memory_order_acquire) >=
               kFloodWindow) {
          if (every > 0) drain(ep);
        }
        for (int k = 0; k < 64; ++k) {
          post_until_accepted(ep, 0, next_seq, false, every > 0);
          ++next_seq;
          if (every > 0 && next_seq % every == 0) drain(ep);
        }
      } while (now_ns() < deadline);
      t.ops = next_seq - first;
      if (!wait_for([&] { return c.received.load() >= next_seq; }, 60.0,
                    [&] {
                      if (every > 0) drain(ep);
                    })) {
        out.fail("flood round: receiver never saw every parcel");
      }
      t.end_ns = c.last_ns.load();
      return t;
    };
    auto pingpong_round = [&]() -> RoundTiming {
      RoundTiming t;
      ep.pongs.store(0);
      t.start_ns = now_ns();
      ep.pingpong_deadline =
          t.start_ns + static_cast<std::int64_t>(round_s * 1e9);
      ep.reply_due[0].store(next_seq + 1, std::memory_order_release);
      // The chain ends once a pong lands after the deadline.
      if (!wait_for(
              [&] {
                return ep.reply_due[0].load() == 0 &&
                       c.last_ns.load() >= ep.pingpong_deadline;
              },
              60.0)) {
        out.fail("ping-pong round never finished");
      }
      t.ops = ep.pongs.load(std::memory_order_acquire);
      next_seq += t.ops;
      t.end_ns = c.last_ns.load();
      return t;
    };
    if (w.pingpong) {
      run_rounds(ctx, ctx.flood_rounds(), 2, pingpong_round, out);
    } else {
      run_rounds(ctx, ctx.flood_rounds(), 1, flood_round, out);
    }
    const bool balanced = quiesce(ctx, [&] {
      if (ep.sender_poll_every() > 0) drain(ep);
      publish();
    });
    if (!balanced) out.fail("NIC packet counts never balanced");
  }
  ctx.barrier(publish);
  stop.store(true);
  for (auto& t : pollers) t.join();
  ctx.publish_receiver();
  ctx.barrier();

  Tally tally = Tally::collect();
  out.polls = tally.polls;
  out.useful_polls = tally.useful_polls;
  out.attempts = tally.attempts;
  out.retries = tally.retries;
  out.empty_poll_ns = std::move(tally.empty_poll_ns);
  harvest_spans(ep.post_name(), ep.poll_name(), out.rung, ctx.opt().rank, out,
                chrome);
  merge_peer_polls(ctx, out);
  if (!ctx.is_sender()) return;

  check_exactly_once(ctx, w.pingpong ? 2 * next_seq : next_seq, out);
}

}  // namespace perfbench
