// Rung 4, module `amt`: the full action path, Locality::apply on locality 0
// to the handler on locality 1, through the scheduler, the parcel layer and
// the LCI parcelport. This rung also produces the end-to-end metrics.
#include <cstdlib>
#include <memory>
#include <stdexcept>
#include <string>

#include "rungs.hpp"
#include "stack/stack.hpp"
#include "stats.hpp"
#include "trace.hpp"

namespace perfbench {

namespace {

/// State the action handlers reach; set while a runtime of this rung runs.
struct AmtState {
  Ctx* ctx = nullptr;
  bool traced = false;
  std::atomic<bool> hello_acked{false};
  // Ping-pong (closed loop, window 1), driven entirely from handlers.
  std::int64_t deadline = 0;
  std::atomic<std::int64_t> ping_sent_ns{0};
  std::atomic<std::uint64_t> pongs{0};
  std::atomic<bool> chain_done{false};
  std::vector<double>* rtt_out = nullptr;
};
AmtState g;

constexpr std::size_t kSideMask = Control::kSideSlots - 1;
/// A round-trip round runs past its deadline until it has this many samples,
/// so its p99 keeps at least ten beyond it however slow the host is.
constexpr std::uint64_t kMinRoundTrips = 1100;

/// Traced runs: records the one-way latency of parcel `seq` (its apply
/// time sits in the side table) and returns the handler's start time.
std::int64_t handler_start(std::uint64_t seq) {
  const std::int64_t t = now_ns();
  if (g.traced) {
    Tally::local().one_way_ns.push_back(static_cast<double>(
        t - g.ctx->ctl().apply_ns[seq & kSideMask].load(
                std::memory_order_acquire)));
  }
  return t;
}

/// Traced runs: notes when parcel `seq` was handed to apply.
void stamp_apply(std::uint64_t seq) {
  if (g.traced) {
    g.ctx->ctl().apply_ns[seq & kSideMask].store(now_ns(),
                                                 std::memory_order_release);
  }
}

void act_sink(std::uint64_t seq, std::vector<std::uint8_t> payload) {
  trace::Scope span("amt.handler", seq, trace::Flow::kIn);
  Control& c = g.ctx->ctl();
  const std::int64_t t = handler_start(seq);
  g.ctx->check_parcel(1, seq, payload.data(), payload.size());
  c.last_ns.store(t, std::memory_order_relaxed);
  c.received.fetch_add(1, std::memory_order_release);
}

void act_pong(std::uint64_t seq, std::vector<std::uint8_t> payload);

void act_ping(std::uint64_t seq, std::vector<std::uint8_t> payload) {
  trace::Scope span("amt.handler", seq, trace::Flow::kIn);
  handler_start(seq);
  g.ctx->check_parcel(1, seq, payload.data(), payload.size());
  amt::here().apply<&act_pong>(0, seq, std::move(payload));
}

void send_ping(std::uint64_t seq) {
  const auto& payload = g.ctx->payloads().for_seq(seq);
  g.ping_sent_ns.store(now_ns(), std::memory_order_relaxed);
  stamp_apply(seq);
  trace::Scope span("amt.apply", seq, trace::Flow::kOut);
  amt::here().apply<&act_ping>(1, seq, payload);
}

void act_pong(std::uint64_t seq, std::vector<std::uint8_t> payload) {
  trace::Scope span("amt.handler", seq);
  const std::int64_t t = now_ns();
  g.rtt_out->push_back(static_cast<double>(
      t - g.ping_sent_ns.load(std::memory_order_relaxed)));
  g.ctx->check_parcel(0, seq, payload.data(), payload.size());
  g.ctx->ctl().last_ns.store(t, std::memory_order_relaxed);
  g.pongs.fetch_add(1, std::memory_order_relaxed);
  if (t < g.deadline ||
      g.pongs.load(std::memory_order_relaxed) < kMinRoundTrips) {
    send_ping(seq + 1);
  } else {
    g.chain_done.store(true, std::memory_order_release);
  }
}

void act_hello_ack() { g.hello_acked.store(true, std::memory_order_release); }
void act_hello() { amt::here().apply<&act_hello_ack>(0); }

/// Runs one window-1 ping-pong round of `round_s` seconds starting at
/// sequence number `first`.
RoundTiming pingpong_round(amt::Runtime& rt, std::uint64_t first,
                           double round_s) {
  RoundTiming t;
  g.pongs.store(0);
  g.chain_done.store(false);
  t.start_ns = now_ns();
  g.deadline = t.start_ns + static_cast<std::int64_t>(round_s * 1e9);
  rt.locality(0).spawn([first] { send_ping(first); });
  sleep_until_ns(g.deadline);
  if (!wait_for([] { return g.chain_done.load(std::memory_order_acquire); },
                60.0)) {
    fatal("amt: ping-pong round never finished");
  }
  t.ops = g.pongs.load();
  t.end_ns = g.ctx->ctl().last_ns.load();
  return t;
}

/// The flood sender's share of locality 0's background work, run until it
/// finds nothing more to do, as an idle worker between tasks would.
void drain(amt::Locality& here) {
  while (here.parcelport()->background_work(0)) {
  }
}

void publish_nic_counts(Ctx& ctx, amt::Runtime& rt) {
  for (unsigned loc = 0; loc < 2; ++loc) {
    if (!ctx.hosts(loc)) continue;
    const fabric::NicStats stats = rt.fabric().nic(loc).stats();
    ctx.ctl().tx[loc].store(stats.packets_sent);
    ctx.ctl().rx[loc].store(stats.packets_received);
  }
}

}  // namespace

void register_actions() {
  // Ids are minted on first use per process: both ranks mint them in the
  // same order before any traffic flows.
  (void)amt::action_id<&act_sink>();
  (void)amt::action_id<&act_ping>();
  (void)amt::action_id<&act_pong>();
  (void)amt::action_id<&act_hello>();
  (void)amt::action_id<&act_hello_ack>();
}

amt::RuntimeConfig runtime_config(const Ctx& ctx, const std::string& tag) {
  amtnet::StackOptions options;
  options.parcelport = ctx.w().parcelport;
  options.num_localities = 2;
  options.threads_per_locality = ctx.w().workers;
  options.platform = "loopback";
  options.backend = ctx.w().backend;
  if (ctx.two_process()) {
    // The launcher's session names the run; each fabric gets its own.
    ::setenv("AMTNET_SHM_SESSION", ctx.shm_session(tag).c_str(), 1);
  }
  return amtnet::make_runtime_config(options);
}

std::map<std::string, double> registry_counters(const telemetry::Snapshot& snap) {
  std::map<std::string, double> out;
  auto sum = [&](const char* prefix, const char* leaf) {
    out[std::string(prefix) + leaf] =
        static_cast<double>(snap.counter_sum(prefix, std::string("/") + leaf));
  };
  for (const char* leaf : {"packets_sent", "bytes_sent", "packets_received",
                           "tx_window_rejects", "rnr_stalls"}) {
    sum("fabric/", leaf);
  }
  for (const char* leaf : {"progress_calls", "match_hits", "match_misses",
                           "pool_exhausted", "pool_cache_hits"}) {
    sum("minilci/", leaf);
  }
  for (const char* leaf : {"fastpath_hits", "send_retries", "progress_skips",
                           "conn_allocs", "messages_delivered"}) {
    sum("pplci/", leaf);
  }
  for (const char* leaf : {"parcels_sent", "actions_executed"}) sum("amt/", leaf);
  for (const char* leaf : {"tasks_executed", "tasks_stolen"}) sum("sched/", leaf);
  // The receiving device's own progress timer (summed, for a mean: the
  // histogram's percentiles are bucketed).
  if (const auto* hist = snap.histogram("minilci/dev1/progress_ns")) {
    out["minilci/dev1/progress_ns_sum"] = static_cast<double>(hist->sum);
    out["minilci/dev1/progress_ns_count"] = static_cast<double>(hist->count);
  }
  return out;
}

void check_parcelport_drained(const telemetry::Snapshot& snap, RungResult& out) {
  for (const auto& [name, value] : snap.gauges) {
    if (name.rfind("pplci/", 0) != 0 || value == 0) continue;
    for (const char* leaf : {"/send_queue_depth", "/pieces_in_flight",
                             "/remote_put_cq_depth", "/comp_cq_depth"}) {
      const std::string suffix(leaf);
      if (name.size() >= suffix.size() &&
          name.compare(name.size() - suffix.size(), suffix.size(), suffix) == 0) {
        out.fail("teardown: " + name + " = " + std::to_string(value));
      }
    }
  }
}

RungResult run_amt_rung(Ctx& ctx, bool traced, std::string& chrome) {
  RungResult out;
  out.rung = "amt";
  const Workload& w = ctx.w();
  Control& c = ctx.ctl();
  g.ctx = &ctx;
  g.traced = traced;
  ctx.reset_receiver();

  std::uint64_t next_seq = 0;
  std::uint64_t probe_ops = 0;  // round trips of the floods' latency probe
  std::map<std::string, double> counters;

  // Each sub-run builds a fresh stack (new threads, so a new placement on
  // the cores; shm bootstrap included), times set-up until the first round
  // trip completes, measures one round and tears the stack down. Medians
  // over sub-runs keep one unlucky placement from setting a run's figure.
  for (int i = 0; i < ctx.subruns(); ++i) {
    ctx.barrier();
    const std::int64_t t0 = now_ns();
    auto rt = std::make_unique<amt::Runtime>(
        runtime_config(ctx, "amt" + std::to_string(i)),
        amtnet::default_parcelport_factory());
    rt->start();
    if (ctx.is_sender()) {
      g.hello_acked.store(false);
      rt->locality(0).spawn([] { amt::here().apply<&act_hello>(1); });
      if (!wait_for([] { return g.hello_acked.load(std::memory_order_acquire); },
                    60.0)) {
        throw std::runtime_error("set-up round trip never completed");
      }
      out.setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    }
    ctx.barrier();

    trace::set_enabled(traced);
    auto publish = [&] { publish_nic_counts(ctx, *rt); };
    if (ctx.is_sender()) {
      std::vector<double> rtt;
      g.rtt_out = &rtt;
      auto flood_round = [&]() -> RoundTiming {
        RoundTiming t;
        std::atomic<bool> sent{false};
        // Sequence numbers also count probe pings, which the sink never
        // sees: the window compares this round's sends with this round's
        // arrivals.
        const std::uint64_t first = next_seq;
        const std::uint64_t arrived = c.received.load();
        t.start_ns = now_ns();
        const std::int64_t deadline =
            t.start_ns + static_cast<std::int64_t>(ctx.flood_round_s() * 1e9);
        const std::uint64_t window = ctx.flood_window();
        rt->locality(0).spawn([&, deadline, window, arrived] {
          amt::Locality& here = amt::here();
          Control& ctl = g.ctx->ctl();
          std::uint64_t seq = next_seq;
          do {
            while ((seq - first) - (ctl.received.load(std::memory_order_acquire) -
                                    arrived) >=
                   window) {
              drain(here);
            }
            for (unsigned k = 0; k < kSenderPollEvery; ++k, ++seq) {
              stamp_apply(seq);
              trace::Scope span("amt.apply", seq, trace::Flow::kOut);
              here.apply<&act_sink>(1, seq, g.ctx->payloads().for_seq(seq));
            }
            drain(here);
          } while (now_ns() < deadline);
          next_seq = seq;
          sent.store(true, std::memory_order_release);
        });
        sleep_until_ns(deadline);
        // The sender task references this frame: a timeout cannot return.
        if (!wait_for([&] { return sent.load(std::memory_order_acquire); },
                      60.0)) {
          fatal("amt: the flood sender task never finished");
        }
        if (!wait_for(
                [&] { return c.received.load() - arrived >= next_seq - first; },
                60.0)) {
          out.fail("amt: flood round never drained");
        }
        t.ops = next_seq - first;
        t.end_ns = c.last_ns.load();
        return t;
      };
      auto chain_round = [&]() -> RoundTiming {
        const RoundTiming t =
            pingpong_round(*rt, next_seq, ctx.flood_round_s());
        next_seq += t.ops;
        return t;
      };
      const double steal0 = host_steal_s();
      if (w.pingpong) {
        run_rounds(ctx, 1, 2, chain_round, out);
      } else {
        run_rounds(ctx, 1, 1, flood_round, out);
        if (ctx.probe_round_s() > 0.0) {
          // Round-trip probe on the same, warmed-up stack after the flood:
          // window-1 latency of this configuration at this payload size.
          const RoundTiming t =
              pingpong_round(*rt, next_seq, ctx.probe_round_s());
          next_seq += t.ops;
          probe_ops += t.ops;
        }
      }
      out.steal_s.push_back(host_steal_s() - steal0);
      if (!rtt.empty()) {
        if (samples_beyond(rtt.size(), 0.99) < 10) {
          out.fail("amt: fewer than 10 round trips beyond p99 in a sub-run");
        }
        out.rtt_samples += rtt.size();
        out.rtt_p50_ns.push_back(percentile(rtt, 0.5));
        out.rtt_p99_ns.push_back(percentile(rtt, 0.99));
      }
      if (!quiesce(ctx, publish)) {
        out.fail("amt: NIC packet counts never balanced");
      }
    }
    ctx.barrier(publish);
    trace::set_enabled(false);

    // Idle workers finish the parcelport's completion work; then nothing
    // may remain queued.
    telemetry::Snapshot snap;
    wait_for(
        [&] {
          snap = rt->telemetry().snapshot();
          RungResult probe;
          check_parcelport_drained(snap, probe);
          return probe.ok;
        },
        10.0);
    check_parcelport_drained(snap, out);
    for (const auto& [name, value] : registry_counters(snap)) {
      counters[name] += value;
    }
    ctx.barrier();
    const std::int64_t t1 = now_ns();
    rt->stop();
    rt.reset();
    out.teardown_s.push_back(static_cast<double>(now_ns() - t1) / 1e9);
  }
  out.counters = std::move(counters);
  ctx.publish_receiver();
  ctx.barrier();

  Tally tally = Tally::collect();
  out.one_way_ns = std::move(tally.one_way_ns);
  harvest_spans("amt.apply", nullptr, "amt", ctx.opt().rank, out, chrome);
  if (!ctx.is_sender()) return out;

  // The flood parcels and pings arrive at locality 1, the pongs at 0.
  check_exactly_once(ctx, next_seq + (w.pingpong ? next_seq : probe_ops), out);
  return out;
}

}  // namespace perfbench
