#include "loadgen/loadgen.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdlib>
#include <stdexcept>

#include "common/clock.hpp"
#include "common/rng.hpp"
#include "stack/stack.hpp"

namespace loadgen {

namespace {

// One run active at a time: the sink action reaches the run's state through
// these globals, the same channel the bench harness uses for its actions.
std::atomic<std::int64_t> g_t0_ns{0};
std::atomic<std::uint64_t> g_completed{0};
telemetry::Histogram* g_latency_hist = nullptr;

std::function<void(const telemetry::Snapshot&)> g_snapshot_sink;

/// The serving action. Runs at the destination locality; records the one-way
/// sojourn from the request's *scheduled* arrival (not its send time — that
/// is the open-loop, no-coordinated-omission contract) to execution here.
void openloop_sink(std::uint64_t offset_ns, std::vector<std::uint8_t> payload) {
  (void)payload;
  const common::Nanos scheduled =
      g_t0_ns.load(std::memory_order_relaxed) +
      static_cast<common::Nanos>(offset_ns);
  const common::Nanos now = common::now_ns();
  const std::uint64_t sojourn =
      now > scheduled ? static_cast<std::uint64_t>(now - scheduled) : 0;
  if (g_latency_hist != nullptr) g_latency_hist->record(sojourn);
  g_completed.fetch_add(1, std::memory_order_release);
}

/// Deterministic per-request size-class pick: a pure hash of (seed, index),
/// independent of thread interleaving so the request stream is reproducible.
std::size_t pick_class(std::uint64_t seed, std::size_t index,
                       const std::vector<double>& cumulative) {
  if (cumulative.size() <= 1) return 0;
  std::uint64_t state =
      seed ^ (0x9e3779b97f4a7c15ULL * (static_cast<std::uint64_t>(index) + 1));
  const double u = common::unit_open_from_bits(common::splitmix64(state));
  for (std::size_t c = 0; c < cumulative.size(); ++c) {
    if (u < cumulative[c]) return c;
  }
  return cumulative.size() - 1;
}

}  // namespace

std::vector<std::uint64_t> build_schedule(const ArrivalConfig& config,
                                          std::size_t n) {
  std::vector<std::uint64_t> schedule;
  schedule.reserve(n);
  if (n == 0) return schedule;
  if (config.rate_rps <= 0.0) {
    throw std::invalid_argument("loadgen: rate_rps must be positive");
  }
  common::Xoshiro256 rng(config.seed);
  if (config.process == ArrivalConfig::Process::kPoisson) {
    const double gap_mean_ns = 1e9 / config.rate_rps;
    double t = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      t += rng.next_exponential(gap_mean_ns);
      schedule.push_back(static_cast<std::uint64_t>(t));
    }
    return schedule;
  }
  // Two-state MMPP: exponential ON windows with Poisson arrivals at
  // rate/duty, exponential OFF windows sized so the ON fraction is `duty`
  // (long-run rate stays rate_rps). A gap overshooting the ON window is
  // discarded — memoryless, so the process is unchanged.
  const double duty = std::clamp(config.burst_duty, 0.01, 1.0);
  const double on_mean_ns = std::max(config.burst_on_ms, 1e-3) * 1e6;
  const double off_mean_ns = on_mean_ns * (1.0 - duty) / duty;
  const double gap_mean_ns = duty * 1e9 / config.rate_rps;
  double t = 0.0;
  while (schedule.size() < n) {
    const double on_end = t + rng.next_exponential(on_mean_ns);
    for (;;) {
      t += rng.next_exponential(gap_mean_ns);
      if (t >= on_end) break;
      schedule.push_back(static_cast<std::uint64_t>(t));
      if (schedule.size() == n) return schedule;
    }
    t = on_end;
    if (off_mean_ns > 0.0) t += rng.next_exponential(off_mean_ns);
  }
  return schedule;
}

std::vector<SizeMixEntry> parse_size_mix(const std::string& text) {
  std::vector<SizeMixEntry> mix;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t end = text.find(',', pos);
    if (end == std::string::npos) end = text.size();
    const std::string item = text.substr(pos, end - pos);
    pos = end + 1;
    if (item.empty()) continue;
    SizeMixEntry entry;
    const std::size_t colon = item.find(':');
    entry.bytes = static_cast<std::size_t>(
        std::strtoull(item.c_str(), nullptr, 10));
    if (colon != std::string::npos) {
      entry.weight = std::strtod(item.c_str() + colon + 1, nullptr);
    }
    if (entry.bytes == 0 || entry.weight <= 0.0) {
      throw std::invalid_argument("loadgen: bad size-mix entry '" + item +
                                  "' (want bytes:weight, both positive)");
    }
    mix.push_back(entry);
  }
  return mix;
}

void set_snapshot_sink(std::function<void(const telemetry::Snapshot&)> sink) {
  g_snapshot_sink = std::move(sink);
}

Result run_open_loop(const Params& params) {
  if (params.localities < 2) {
    throw std::invalid_argument("loadgen: need at least 2 localities");
  }
  const ArrivalConfig& arrival = params.arrival;

  amtnet::StackOptions options;
  options.parcelport = params.parcelport;
  options.num_localities = static_cast<amt::Rank>(params.localities);
  options.threads_per_locality = params.workers;
  options.platform = "loopback";
  options.zero_copy_threshold = params.zero_copy_threshold;
  options.max_connections = params.max_connections;
  options.fabric_rails = params.fabric_rails;
  options.faults = params.faults;
  amt::RuntimeConfig config = amtnet::make_runtime_config(options);
  config.parcelport.admission.deadline_us = params.admit_deadline_us;
  // Shaped fabric: wall-clock latency/bandwidth gating makes the saturation
  // capacity a property of the model (bandwidth / mean request size), not of
  // the host machine, so the latency knee lands at the same offered load on
  // every machine.
  config.fabric.zero_time = false;
  config.fabric.latency_us = params.latency_us;
  config.fabric.bandwidth_gbps = params.bandwidth_gbps;

  amt::Runtime runtime(config, amtnet::default_parcelport_factory());
  runtime.start();
  amt::Locality& loc0 = runtime.locality(0);

  const std::vector<std::uint64_t> schedule =
      build_schedule(arrival, params.requests);

  // Size mix: payload buffers per class plus the cumulative weight table the
  // per-request hash picks against.
  std::vector<SizeMixEntry> mix = params.size_mix;
  if (mix.empty()) mix.push_back(SizeMixEntry{});
  double total_weight = 0.0;
  for (const SizeMixEntry& entry : mix) total_weight += entry.weight;
  std::vector<double> cumulative;
  std::vector<std::vector<std::uint8_t>> payloads;
  double acc = 0.0;
  for (const SizeMixEntry& entry : mix) {
    acc += entry.weight / total_weight;
    cumulative.push_back(acc);
    payloads.emplace_back(entry.bytes, 0x42);
  }

  g_completed.store(0);
  g_latency_hist = &runtime.telemetry().histogram("loadgen/latency_ns");
  telemetry::Histogram& lag_hist =
      runtime.telemetry().histogram("loadgen/gen_lag_ns");

  std::atomic<std::uint64_t> accepted_local{0};
  std::atomic<std::uint64_t> shed_local{0};
  std::atomic<bool> pacer_done{false};
  const amt::Rank fanout = static_cast<amt::Rank>(params.localities - 1);
  const std::uint64_t seed = arrival.seed;

  // One pacer task owns the clock; each due request becomes its own spawned
  // send task so the sends spread across all workers. (Two pacer tasks would
  // deadlock the pacing: wait_until executes pending tasks inline, so one
  // pacer can swallow its sibling and run that sibling's whole stream before
  // resuming its own, hundreds of milliseconds late.)
  const common::Nanos t0 = common::now_ns();
  g_t0_ns.store(t0);
  loc0.spawn([&, t0] {
    amt::Locality& here = amt::here();
    for (std::size_t i = 0; i < schedule.size(); ++i) {
      const common::Nanos due = t0 + static_cast<common::Nanos>(schedule[i]);
      here.scheduler().wait_until(
          [due] { return common::now_ns() >= due; });
      lag_hist.record(static_cast<std::uint64_t>(common::now_ns() - due));
      here.spawn([&, i] {
        const std::size_t cls = pick_class(seed, i, cumulative);
        const amt::Rank dst = 1 + static_cast<amt::Rank>(i % fanout);
        // try_apply under the block policy waits inside (backpressure slows
        // the client — exactly the cost the policy is meant to expose);
        // under shed or deadline it reports refusal.
        if (amt::here().try_apply<&openloop_sink>(dst, schedule[i],
                                                  payloads[cls])) {
          accepted_local.fetch_add(1, std::memory_order_relaxed);
        } else {
          shed_local.fetch_add(1, std::memory_order_relaxed);
        }
      });
    }
    pacer_done.store(true, std::memory_order_release);
  });

  // Quiescence: every offered request resolved (accepted or shed), and every
  // accepted request either executed at its sink or was deadline-dropped
  // from a parcel queue. This is the conservation invariant the whole
  // subsystem is audited against.
  loc0.scheduler().wait_until([&] {
    if (!pacer_done.load(std::memory_order_acquire)) return false;
    const std::uint64_t accepted =
        accepted_local.load(std::memory_order_relaxed);
    const std::uint64_t shed = shed_local.load(std::memory_order_relaxed);
    if (accepted + shed != schedule.size()) return false;
    const amt::AdmissionStats stats = loc0.admission_stats();
    return g_completed.load(std::memory_order_acquire) +
               stats.deadline_drops >=
           accepted;
  });
  const common::Nanos t_end = common::now_ns();

  Result result;
  result.generated = schedule.size();
  std::uint64_t hash = 0xcbf29ce484222325ULL;  // FNV-1a over the offsets
  for (const std::uint64_t offset : schedule) {
    for (unsigned byte = 0; byte < 8; ++byte) {
      hash ^= (offset >> (8 * byte)) & 0xff;
      hash *= 0x100000001b3ULL;
    }
  }
  result.schedule_hash = hash;
  result.accepted = accepted_local.load();
  result.shed = shed_local.load();
  result.completed = g_completed.load();
  const amt::AdmissionStats stats = loc0.admission_stats();
  result.deadline_drops = stats.deadline_drops;
  result.block_waits = stats.block_waits;
  result.peak_queue_depth = stats.peak_queue_depth;
  result.conserved =
      result.generated == result.accepted + result.shed &&
      result.accepted == result.completed + result.deadline_drops &&
      // When admission is on, the runtime's own tallies must agree with the
      // generator's view of its try_apply outcomes.
      (!loc0.admission_config().on() ||
       (stats.accepted == result.accepted && stats.shed == result.shed));

  result.offered_kps = arrival.rate_rps / 1e3;
  result.wall_s = common::ns_to_s(t_end - t0);
  result.goodput_kps = static_cast<double>(result.completed) /
                       std::max(result.wall_s, 1e-9) / 1e3;
  std::array<std::uint64_t, 3> ns{};
  g_latency_hist->percentiles({{0.5, 0.99, 0.999}}, ns);
  result.p50_us = static_cast<double>(ns[0]) / 1e3;
  result.p99_us = static_cast<double>(ns[1]) / 1e3;
  result.p999_us = static_cast<double>(ns[2]) / 1e3;
  result.max_us = static_cast<double>(g_latency_hist->max()) / 1e3;
  result.gen_lag_p99_us =
      static_cast<double>(lag_hist.percentile(0.99)) / 1e3;

  if (g_snapshot_sink) g_snapshot_sink(runtime.telemetry().snapshot());
  g_latency_hist = nullptr;  // the registry dies with the runtime
  runtime.stop();
  return result;
}

}  // namespace loadgen
