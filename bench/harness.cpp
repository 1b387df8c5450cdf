#include "harness.hpp"

#include <atomic>
#include <cstdlib>
#include <cstring>

#include "amt/collectives.hpp"
#include "common/clock.hpp"
#include "octoproxy/simulation.hpp"
#include "stack/stack.hpp"

namespace bench {

namespace {

// Snapshot sink: captures the runtime's telemetry registry right before a
// benchmark run tears it down (the registry dies with the runtime).
std::function<void(const telemetry::Snapshot&)> g_snapshot_sink;

void capture_snapshot(const amt::Runtime& runtime) {
  if (g_snapshot_sink) g_snapshot_sink(runtime.telemetry().snapshot());
}

}  // namespace

void set_snapshot_sink(std::function<void(const telemetry::Snapshot&)> sink) {
  g_snapshot_sink = std::move(sink);
}

void capture_harness_snapshot(const amt::Runtime& runtime) {
  capture_snapshot(runtime);
}

expdriver::RunEnv env_from_args(int argc, char** argv) {
  if (argc > 1) {
    const bool help = std::strcmp(argv[1], "--help") == 0 ||
                      std::strcmp(argv[1], "-h") == 0;
    std::fprintf(help ? stdout : stderr,
                 "usage: %s (takes no arguments; scale with "
                 "AMTNET_BENCH_SCALE/RUNS/WORKERS)\n",
                 argv[0]);
    std::exit(help ? 0 : 2);
  }
  return expdriver::run_env_from_environment();
}

void print_header(const char* figure, const char* expectation,
                  const expdriver::RunEnv& env) {
  std::printf("# %s\n", figure);
  std::printf("# paper expectation: %s\n", expectation);
  std::printf(
      "# env: scale=%.2f runs=%d workers/locality=%u (set "
      "AMTNET_BENCH_SCALE/RUNS/WORKERS to adjust)\n",
      env.scale, env.repetitions, env.workers);
}

// ---- message rate ------------------------------------------------------

namespace {

// Global benchmark channel (one benchmark run active at a time).
std::atomic<std::uint64_t> g_rate_received{0};
std::atomic<std::uint64_t> g_rate_expected{0};
std::atomic<std::uint64_t> g_rate_sent{0};
std::atomic<std::int64_t> g_rate_injection_end_ns{0};
std::atomic<bool> g_rate_done{false};

void rate_ack() { g_rate_done.store(true, std::memory_order_release); }

void rate_count_one() {
  const auto received = g_rate_received.fetch_add(1) + 1;
  if (received == g_rate_expected.load(std::memory_order_relaxed)) {
    // Receiver signals back with one short message (paper §4.1).
    amt::here().apply<&rate_ack>(0);
  }
}

void rate_sink(std::vector<std::uint8_t> payload) {
  (void)payload;
  rate_count_one();
}

// Multi-zchunk sinks: each vector argument above the zero-copy threshold
// becomes one zero-copy chunk, i.e. one pipelined follow-up transfer.
void rate_sink_z2(std::vector<std::uint8_t> a, std::vector<std::uint8_t> b) {
  (void)a;
  (void)b;
  rate_count_one();
}

void rate_sink_z4(std::vector<std::uint8_t> a, std::vector<std::uint8_t> b,
                  std::vector<std::uint8_t> c, std::vector<std::uint8_t> d) {
  (void)a;
  (void)b;
  (void)c;
  (void)d;
  rate_count_one();
}

}  // namespace

RateResult run_message_rate(const RateParams& params) {
  amtnet::StackOptions options;
  options.parcelport = params.parcelport;
  options.num_localities = 2;
  options.threads_per_locality = params.workers;
  options.platform = params.platform;
  options.zero_copy_threshold = params.zero_copy_threshold;
  options.max_connections = params.max_connections;
  options.fabric_rails = params.fabric_rails;
  options.faults = params.faults;
  amt::RuntimeConfig config = amtnet::make_runtime_config(options);
  if (params.bandwidth_gbps > 0.0 || params.latency_us > 0.0 ||
      params.pkt_rate_mpps > 0.0) {
    // Shaped wire: wall-clock gating so the bottleneck is a property of the
    // modeled fabric (message rate / line rate), not of the host machine.
    config.fabric.zero_time = false;
    if (params.bandwidth_gbps > 0.0) {
      config.fabric.bandwidth_gbps = params.bandwidth_gbps;
    }
    if (params.latency_us > 0.0) config.fabric.latency_us = params.latency_us;
    if (params.pkt_rate_mpps > 0.0) {
      config.fabric.pkt_rate_mpps = params.pkt_rate_mpps;
    }
  }
  auto runtime = std::make_unique<amt::Runtime>(
      config, amtnet::default_parcelport_factory());
  runtime->start();

  // Guard against total_msgs == 0 (tiny AMTNET_BENCH_SCALE rounding a
  // count down to nothing): zero expected messages would never trip the
  // receiver ack and the benchmark would hang forever.
  const std::size_t wanted = params.total_msgs == 0 ? 1 : params.total_msgs;
  const std::size_t n_tasks = (wanted + params.batch - 1) / params.batch;
  const std::size_t total = n_tasks * params.batch;

  g_rate_received.store(0);
  g_rate_expected.store(total);
  g_rate_sent.store(0);
  g_rate_injection_end_ns.store(0);
  g_rate_done.store(false);

  const std::vector<std::uint8_t> payload(params.msg_size, 0x42);
  const double task_rate =
      params.attempted_rate > 0.0
          ? params.attempted_rate / static_cast<double>(params.batch)
          : 0.0;

  const common::Nanos t0 = common::now_ns();
  runtime->locality(0).spawn([&, t0] {
    amt::Locality& here = amt::here();
    for (std::size_t task = 0; task < n_tasks; ++task) {
      if (task_rate > 0.0) {
        const common::Nanos due =
            t0 + static_cast<common::Nanos>(
                     static_cast<double>(task) * 1e9 / task_rate);
        here.scheduler().wait_until(
            [&] { return common::now_ns() >= due; });
      }
      here.spawn([&] {
        amt::Locality& sender = amt::here();
        for (std::size_t i = 0; i < params.batch; ++i) {
          switch (params.zchunk_count) {
            case 2:
              sender.apply<&rate_sink_z2>(1, payload, payload);
              break;
            case 4:
              sender.apply<&rate_sink_z4>(1, payload, payload, payload,
                                          payload);
              break;
            default:  // 0 or 1: one payload (zero-copy iff over threshold)
              sender.apply<&rate_sink>(1, payload);
              break;
          }
          if (g_rate_sent.fetch_add(1) + 1 == total) {
            g_rate_injection_end_ns.store(common::now_ns());
          }
        }
      });
    }
  });

  runtime->locality(0).scheduler().wait_until(
      [] { return g_rate_done.load(std::memory_order_acquire); });
  const common::Nanos t_done = common::now_ns();
  capture_snapshot(*runtime);
  runtime->stop();

  RateResult result;
  const double injection_s =
      common::ns_to_s(g_rate_injection_end_ns.load() - t0);
  const double total_s = common::ns_to_s(t_done - t0);
  result.achieved_injection_rate =
      static_cast<double>(total) / std::max(injection_s, 1e-9);
  result.message_rate = static_cast<double>(total) / std::max(total_s, 1e-9);
  return result;
}

double report_rate_point(const RateParams& params, int runs) {
  std::vector<double> rates, injections;
  for (int run = 0; run < runs; ++run) {
    const auto result = run_message_rate(params);
    rates.push_back(result.message_rate / 1e3);
    injections.push_back(result.achieved_injection_rate / 1e3);
  }
  const auto rate = stats_of(rates);
  const auto injection = stats_of(injections);
  std::printf("%s,%.1f,%.1f,%.1f,%.1f\n", params.parcelport.c_str(),
              params.attempted_rate / 1e3, injection.mean, rate.mean,
              rate.stddev);
  std::fflush(stdout);
  return rate.mean;
}

// ---- latency -------------------------------------------------------------

namespace {

std::atomic<unsigned> g_chains_done{0};

void lat_pong(std::uint32_t chain, std::uint32_t remaining,
              std::vector<std::uint8_t> payload);

void lat_ping(std::uint32_t chain, std::uint32_t remaining,
              std::vector<std::uint8_t> payload) {
  // Runs on locality 1; each hop is a fresh task, as in the paper.
  amt::here().apply<&lat_pong>(0, chain, remaining, std::move(payload));
}

void lat_pong(std::uint32_t chain, std::uint32_t remaining,
              std::vector<std::uint8_t> payload) {
  if (remaining > 0) {
    amt::here().apply<&lat_ping>(1, chain, remaining - 1,
                                 std::move(payload));
  } else {
    g_chains_done.fetch_add(1, std::memory_order_release);
  }
}

// Multi-zchunk ping-pong: every hop ships its vectors as independent
// zero-copy follow-ups, so per-hop latency directly exposes whether the
// pieces travel serialized (pipeline depth 1) or overlapped.
void lat_pong_z4(std::uint32_t chain, std::uint32_t remaining,
                 std::vector<std::uint8_t> a, std::vector<std::uint8_t> b,
                 std::vector<std::uint8_t> c, std::vector<std::uint8_t> d);

void lat_ping_z4(std::uint32_t chain, std::uint32_t remaining,
                 std::vector<std::uint8_t> a, std::vector<std::uint8_t> b,
                 std::vector<std::uint8_t> c, std::vector<std::uint8_t> d) {
  amt::here().apply<&lat_pong_z4>(0, chain, remaining, std::move(a),
                                  std::move(b), std::move(c), std::move(d));
}

void lat_pong_z4(std::uint32_t chain, std::uint32_t remaining,
                 std::vector<std::uint8_t> a, std::vector<std::uint8_t> b,
                 std::vector<std::uint8_t> c, std::vector<std::uint8_t> d) {
  if (remaining > 0) {
    amt::here().apply<&lat_ping_z4>(1, chain, remaining - 1, std::move(a),
                                    std::move(b), std::move(c), std::move(d));
  } else {
    g_chains_done.fetch_add(1, std::memory_order_release);
  }
}

void lat_pong_z2(std::uint32_t chain, std::uint32_t remaining,
                 std::vector<std::uint8_t> a, std::vector<std::uint8_t> b);

void lat_ping_z2(std::uint32_t chain, std::uint32_t remaining,
                 std::vector<std::uint8_t> a, std::vector<std::uint8_t> b) {
  amt::here().apply<&lat_pong_z2>(0, chain, remaining, std::move(a),
                                  std::move(b));
}

void lat_pong_z2(std::uint32_t chain, std::uint32_t remaining,
                 std::vector<std::uint8_t> a, std::vector<std::uint8_t> b) {
  if (remaining > 0) {
    amt::here().apply<&lat_ping_z2>(1, chain, remaining - 1, std::move(a),
                                    std::move(b));
  } else {
    g_chains_done.fetch_add(1, std::memory_order_release);
  }
}

}  // namespace

double run_latency_us(const LatencyParams& params) {
  amtnet::StackOptions options;
  options.parcelport = params.parcelport;
  options.num_localities = 2;
  options.threads_per_locality = params.workers;
  options.platform = params.platform;
  options.zero_copy_threshold = params.zero_copy_threshold;
  options.fabric_rails = params.fabric_rails;
  auto runtime = amtnet::make_runtime(options);

  // Guard against steps == 0 (tiny AMTNET_BENCH_SCALE): steps - 1 would
  // wrap and the chains would never terminate.
  const unsigned steps = params.steps == 0 ? 1 : params.steps;
  g_chains_done.store(0);
  const common::Timer timer;
  runtime->locality(0).spawn([&] {
    const std::vector<std::uint8_t> payload(params.msg_size, 0x17);
    for (unsigned chain = 0; chain < params.window; ++chain) {
      switch (params.zchunk_count) {
        case 2:
          amt::here().apply<&lat_ping_z2>(1, chain, steps - 1, payload,
                                          payload);
          break;
        case 4:
          amt::here().apply<&lat_ping_z4>(1, chain, steps - 1, payload,
                                          payload, payload, payload);
          break;
        default:
          amt::here().apply<&lat_ping>(1, chain, steps - 1, payload);
          break;
      }
    }
  });
  runtime->locality(0).scheduler().wait_until([&] {
    return g_chains_done.load(std::memory_order_acquire) >= params.window;
  });
  const double elapsed_us = timer.elapsed_us();
  capture_snapshot(*runtime);
  runtime->stop();
  return elapsed_us / (2.0 * steps);
}

// ---- octo-tiger proxy ------------------------------------------------------

double run_octo_steps_per_second(const OctoParams& params) {
  amtnet::StackOptions options;
  options.parcelport = params.parcelport;
  options.num_localities = params.localities;
  options.threads_per_locality = params.workers;
  options.platform = params.platform;
  auto runtime = amtnet::make_runtime(options);

  octo::Params sim;
  sim.level = params.level;
  sim.steps = params.steps;
  const auto report = octo::run_simulation(*runtime, sim);
  capture_snapshot(*runtime);
  runtime->stop();
  return report.steps_per_second;
}

// ---- collective rounds -----------------------------------------------------

namespace {

std::atomic<int> g_coll_done{0};
std::atomic<std::uint64_t> g_coll_elapsed_ns{0};
amt::CollectiveGroup* g_coll_group = nullptr;

// Byte-wise wrapping add: commutative and associative, so every algorithm
// family produces identical results (exact under any combine order).
void coll_bench_combine(std::uint8_t* acc, const std::uint8_t* in,
                        std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    acc[i] = static_cast<std::uint8_t>(acc[i] + in[i]);
  }
}

}  // namespace

double run_collective_us(const CollBenchParams& params) {
  amtnet::StackOptions options;
  options.parcelport = params.parcelport;
  options.num_localities = params.localities;
  options.threads_per_locality = params.workers;
  options.platform = params.platform;
  options.fabric_rails = params.fabric_rails;
  amt::RuntimeConfig config = amtnet::make_runtime_config(options);
  if (params.bandwidth_gbps > 0.0 || params.latency_us > 0.0 ||
      params.pkt_rate_mpps > 0.0) {
    config.fabric.zero_time = false;
    if (params.bandwidth_gbps > 0.0) {
      config.fabric.bandwidth_gbps = params.bandwidth_gbps;
    }
    if (params.latency_us > 0.0) config.fabric.latency_us = params.latency_us;
    if (params.pkt_rate_mpps > 0.0) {
      config.fabric.pkt_rate_mpps = params.pkt_rate_mpps;
    }
  }
  auto runtime = std::make_unique<amt::Runtime>(
      config, amtnet::default_parcelport_factory());
  runtime->start();
  auto group = std::make_unique<amt::CollectiveGroup>(*runtime);
  g_coll_group = group.get();
  g_coll_done.store(0);
  g_coll_elapsed_ns.store(0);

  const std::uint32_t n_loc = params.localities;
  const int iters = params.iters < 1 ? 1 : params.iters;
  for (amt::Rank r = 0; r < n_loc; ++r) {
    runtime->locality(r).spawn([&, r] {
      amt::CollectiveGroup& coll = *g_coll_group;
      amt::CollectiveGroup::Bytes data(params.payload_bytes,
                                       static_cast<std::uint8_t>(r + 1));
      amt::CollectiveGroup::Bytes a2a(params.payload_bytes * n_loc,
                                      static_cast<std::uint8_t>(r + 1));
      coll.barrier();
      const common::Nanos t0 = common::now_ns();
      for (int i = 0; i < iters; ++i) {
        if (params.op == "allreduce") {
          coll.allreduce(data, 1, &coll_bench_combine);
        } else if (params.op == "broadcast") {
          coll.broadcast(0, data);
        } else if (params.op == "alltoall") {
          a2a = coll.all_to_all(a2a, params.payload_bytes);
        } else {
          coll.barrier();
        }
      }
      coll.barrier();
      if (r == 0) {
        g_coll_elapsed_ns.store(
            static_cast<std::uint64_t>(common::now_ns() - t0));
      }
      g_coll_done.fetch_add(1, std::memory_order_release);
    });
  }

  runtime->locality(0).scheduler().wait_until([&] {
    return g_coll_done.load(std::memory_order_acquire) ==
           static_cast<int>(n_loc);
  });
  capture_snapshot(*runtime);
  g_coll_group = nullptr;
  group.reset();
  runtime->stop();
  return static_cast<double>(g_coll_elapsed_ns.load()) / 1e3 /
         static_cast<double>(iters);
}

}  // namespace bench
