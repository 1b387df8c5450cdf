// Shared benchmark harness reproducing the paper's three experiment shapes:
//   * message-rate microbenchmark (§4.1, Figures 1-6): a sender creates
//     tasks at a fixed attempted rate, each task injects a batch of
//     fixed-size messages; the receiver acks once everything arrived. We
//     report the achieved injection rate and the achieved message rate.
//   * multi-chain ping-pong latency (§4.2, Figures 7-9): `window` chains of
//     `steps` round trips; one-way latency = elapsed / (2 * steps).
//   * Octo-Tiger proxy strong scaling (§5, Figures 10-11): steps/second of
//     the octree proxy across locality counts and parcelports.
//
// Scaling knobs: the experiment driver's AMTNET_BENCH_* environment
// (expdriver::RunEnv), shared by bench_suite and the hand-written binaries.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "expdriver/experiment.hpp"
#include "fabric/fault.hpp"
#include "telemetry/registry.hpp"

namespace amt {
class Runtime;
}

namespace bench {

/// Run policy of a hand-written bench binary, which takes no arguments:
/// reads AMTNET_BENCH_SCALE/RUNS/WORKERS, prints usage and exits (0 for
/// --help / -h, 2 for anything else) when given an argument.
expdriver::RunEnv env_from_args(int argc, char** argv);

struct Stats {
  double mean = 0.0;
  double stddev = 0.0;
};

inline Stats stats_of(const std::vector<double>& samples) {
  Stats stats;
  if (samples.empty()) return stats;
  for (double s : samples) stats.mean += s;
  stats.mean /= static_cast<double>(samples.size());
  double var = 0.0;
  for (double s : samples) var += (s - stats.mean) * (s - stats.mean);
  stats.stddev = std::sqrt(var / static_cast<double>(samples.size()));
  return stats;
}

// ---- message rate (Figures 1-6) ----

struct RateParams {
  std::string parcelport;
  std::size_t msg_size = 8;
  std::size_t batch = 100;
  std::size_t total_msgs = 10000;
  double attempted_rate = 0.0;  // messages/s; 0 = unlimited
  unsigned workers = 4;
  std::string platform = "expanse";
  std::size_t zero_copy_threshold = 8192;  // HPX default
  std::size_t max_connections = 8192;      // connection-cache cap
  unsigned fabric_rails = 0;               // 0 = platform default
  // Multi-zchunk shape: each message carries this many zero-copy chunks of
  // msg_size bytes instead of one inline payload (each chunk must exceed
  // zero_copy_threshold to travel zero-copy). Supported: 0 (plain payload,
  // the default), 1, 2, 4.
  std::size_t zchunk_count = 0;
  // Shaped wire (any field > 0 turns wall-clock gating on, like the
  // open-loop harness): per-packet latency, line rate, and a NIC
  // message-rate cap. A pkt_rate cap makes a small-message flood
  // message-rate-bound — the regime where coalescing pays — instead of
  // host-CPU-bound. 0 everywhere = the platform's zero-time fabric.
  double bandwidth_gbps = 0.0;
  double latency_us = 0.0;
  double pkt_rate_mpps = 0.0;
  // Fault injection on the wire (default: none); the chaos sweep's regimes.
  fabric::FaultConfig faults;
};

struct RateResult {
  double achieved_injection_rate = 0.0;  // messages/s
  double message_rate = 0.0;             // messages/s
};

RateResult run_message_rate(const RateParams& params);

/// Repeats the rate benchmark and prints one CSV row:
/// config,attempted_K/s,injection_K/s,rate_K/s,rate_stddev_K/s
/// Returns the mean message rate (K/s).
double report_rate_point(const RateParams& params, int runs);

// ---- latency (Figures 7-9) ----

struct LatencyParams {
  std::string parcelport;
  std::size_t msg_size = 8;
  unsigned window = 1;  // concurrent ping-pong chains
  unsigned steps = 100; // round trips per chain
  unsigned workers = 4;
  std::string platform = "expanse";
  std::size_t zero_copy_threshold = 8192;
  unsigned fabric_rails = 0;  // 0 = platform default
  // Multi-zchunk shape: each hop carries this many zero-copy chunks of
  // msg_size bytes instead of one inline payload. Supported: 0 (plain
  // payload, the default), 2, 4.
  std::size_t zchunk_count = 0;
};

double run_latency_us(const LatencyParams& params);

// ---- Octo-Tiger proxy (Figures 10-11) ----

struct OctoParams {
  std::string parcelport;
  std::string platform = "expanse";
  std::uint32_t localities = 2;
  int level = 3;
  int steps = 3;
  unsigned workers = 2;
};

double run_octo_steps_per_second(const OctoParams& params);

// ---- collective rounds (docs/collectives.md ablation) ----

struct CollBenchParams {
  std::string parcelport;  // may carry a coll<ALGO> token
  std::string platform = "expanse";
  std::uint32_t localities = 4;
  unsigned workers = 2;
  std::string op = "allreduce";  // allreduce | broadcast | alltoall | barrier
  std::size_t payload_bytes = 8; // per-rank block for alltoall
  int iters = 50;                // collectives timed back to back
  // Shaped wire (any field > 0 switches the fabric to wall-clock gating).
  double bandwidth_gbps = 0.0;
  double latency_us = 0.0;
  double pkt_rate_mpps = 0.0;
  unsigned fabric_rails = 0;
};

/// Mean wall-clock microseconds per collective across `iters` back-to-back
/// rounds (barrier-fenced, measured on rank 0).
double run_collective_us(const CollBenchParams& params);

/// Prints the standard benchmark header: figure id, paper expectation, env.
void print_header(const char* figure, const char* expectation,
                  const expdriver::RunEnv& env);

/// Installs a callback that receives the telemetry registry snapshot of each
/// benchmark run, captured just before the runtime stops. The experiment
/// driver uses it to pull per-point counters (suite telemetry probes); pass
/// nullptr to remove. Not thread-safe vs a running benchmark.
void set_snapshot_sink(std::function<void(const telemetry::Snapshot&)> sink);

/// Feeds `runtime`'s telemetry snapshot to the installed snapshot sink
/// (no-op without one). Benchmark entry points living outside harness.cpp
/// call this just before stopping the runtime they drove.
void capture_harness_snapshot(const amt::Runtime& runtime);

}  // namespace bench
