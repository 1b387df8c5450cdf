// Open-loop load generator for the serving-path experiments.
//
// Closed-loop benchmarks (like the §4.1 message-rate harness) let a slow
// server throttle its own clients, which hides queueing delay: the classic
// coordinated-omission trap. This generator is open-loop — every request's
// arrival time is drawn up front from a seeded stochastic process, and a
// request's latency is measured from its *scheduled* arrival, not from the
// moment the generator got around to sending it. A server past saturation
// therefore shows the true unbounded queueing tail instead of a flat line.
//
// Shape of a run:
//   * build_schedule() turns an ArrivalConfig into absolute arrival offsets,
//     a pure function of the seed (bit-for-bit reproducible),
//   * `generators` tasks on locality 0 fire the requests at their offsets
//     through Locality::try_apply (fire-and-forget, admissible — the
//     admission policy may shed them),
//   * the sink action runs at the destination and records the one-way
//     sojourn latency (delivery time minus scheduled arrival) into a
//     telemetry HDR histogram — no response parcel, so the measured path is
//     exactly the serving path under test,
//   * the run ends when every accepted request was either delivered or
//     deadline-dropped; Result carries the conservation check
//     (accepted == completed + deadline_drops, generated == accepted + shed).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "amt/parcelport.hpp"
#include "fabric/fault.hpp"
#include "telemetry/registry.hpp"

namespace loadgen {

/// Arrival process of the offered load. Both processes target the same
/// long-run rate; kBurst concentrates it into on/off bursts (a two-state
/// MMPP), which stresses the admission bound far harder at equal load.
struct ArrivalConfig {
  enum class Process : std::uint8_t { kPoisson, kBurst };
  Process process = Process::kPoisson;
  double rate_rps = 1000.0;    // long-run offered load, requests/second
  std::uint64_t seed = 2026;   // the schedule is a pure function of it
  // kBurst shape: exponential ON periods of mean burst_on_ms during which
  // arrivals are Poisson at rate_rps / burst_duty, separated by exponential
  // OFF periods sized so the ON fraction is burst_duty.
  double burst_duty = 0.25;
  double burst_on_ms = 2.0;
};

/// Absolute arrival offsets (nanoseconds from run start), one per request,
/// non-decreasing. Pure function of `config` and `n`.
std::vector<std::uint64_t> build_schedule(const ArrivalConfig& config,
                                          std::size_t n);

/// One entry of the request-size mix: `weight` is a relative frequency.
struct SizeMixEntry {
  std::size_t bytes = 64;
  double weight = 1.0;
};

/// Parses a size-mix string like "64:9,4096:1" (bytes:weight pairs).
std::vector<SizeMixEntry> parse_size_mix(const std::string& text);

struct Params {
  std::string parcelport = "lci_psr_cq_pin_i";
  std::uint32_t localities = 2;  // requests fan out to ranks 1..L-1
  unsigned workers = 2;          // worker threads per locality
  std::size_t requests = 4000;   // offered requests (schedule length)
  ArrivalConfig arrival;
  std::vector<SizeMixEntry> size_mix;  // empty -> single 64-byte class
  std::size_t zero_copy_threshold = 8192;
  std::size_t max_connections = 8192;
  // Shaped fabric (zero_time off) so saturation is a property of the model,
  // not of the host machine: capacity ~= bandwidth / mean request size.
  // The defaults put the knee near a few thousand requests/s.
  double bandwidth_gbps = 0.13;
  double latency_us = 100.0;
  unsigned fabric_rails = 1;
  fabric::FaultConfig faults;  // compose with the chaos regimes
  // Deadline policy (dl<N> token): max queue age before a parcel is dropped
  // at flush time; written into AdmissionConfig::deadline_us.
  double admit_deadline_us = amt::AdmissionConfig{}.deadline_us;
};

struct Result {
  // Request accounting (exact, from the runtime's admission atomics).
  std::uint64_t generated = 0;       // requests the schedule offered
  std::uint64_t accepted = 0;        // admitted into the parcel layer
  std::uint64_t shed = 0;            // refused at the admission bound
  std::uint64_t deadline_drops = 0;  // dropped stale from a parcel queue
  std::uint64_t completed = 0;       // delivered and executed at the sink
  std::uint64_t block_waits = 0;     // sends that waited (block policy)
  std::int64_t peak_queue_depth = 0;
  /// accepted == completed + deadline_drops and
  /// generated == accepted + shed, checked at quiescence.
  bool conserved = false;
  /// FNV-1a over the arrival offsets actually used: equal hash ==
  /// bit-for-bit equal schedule.
  std::uint64_t schedule_hash = 0;

  double offered_kps = 0.0;  // configured long-run arrival rate
  double goodput_kps = 0.0;  // completed / wall-clock
  // Sojourn latency (scheduled arrival -> sink execution), from the run's
  // telemetry HDR histogram. Zero in AMTNET_TELEMETRY_DISABLED builds.
  double p50_us = 0.0;
  double p99_us = 0.0;
  double p999_us = 0.0;
  double max_us = 0.0;
  /// p99 of the generator's own firing lateness vs the schedule — high
  /// values mean the generator (not the server) was the bottleneck.
  double gen_lag_p99_us = 0.0;
  double wall_s = 0.0;
};

/// Runs one open-loop experiment. Admission policy comes from the parcelport
/// config tokens (shed<N>/block<N>/dl<N>), the deadline from
/// admit_deadline_us. One run at a time per process (the sink channels
/// through globals, like the bench harness).
Result run_open_loop(const Params& params);

/// Installs a callback receiving the telemetry snapshot of each run, taken
/// just before the runtime stops (the bench harness wires its own sink in
/// here so suite probes work). Pass nullptr to remove.
void set_snapshot_sink(std::function<void(const telemetry::Snapshot&)> sink);

}  // namespace loadgen
