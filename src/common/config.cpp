#include "common/config.hpp"

#include <charconv>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string_view>

namespace common {

namespace {
// Trims on a view so the key and value strings are built once, already
// trimmed (no temporary substr copies).
std::string_view trim(std::string_view text) {
  const auto begin = text.find_first_not_of(" \t\r\n");
  if (begin == std::string_view::npos) return {};
  const auto end = text.find_last_not_of(" \t\r\n");
  return text.substr(begin, end - begin + 1);
}
}  // namespace

std::vector<std::string> split_trim(const std::string& text, char delim) {
  std::vector<std::string> out;
  const std::string_view view(text);
  std::size_t start = 0;
  while (start <= view.size()) {
    const auto pos = view.find(delim, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(trim(view.substr(start)));
      break;
    }
    out.emplace_back(trim(view.substr(start, pos - start)));
    start = pos + 1;
  }
  while (!out.empty() && out.back().empty()) out.pop_back();
  return out;
}

KvConfig KvConfig::parse(const std::string& text) {
  KvConfig config;
  for (const auto& piece : split_trim(text, ',')) {
    if (piece.empty()) continue;
    const std::string_view view(piece);
    const auto eq = view.find('=');
    if (eq == std::string_view::npos) {
      // A bare key acts as a boolean flag.
      config.kv_.insert_or_assign(piece, std::string("1"));
    } else {
      config.kv_.insert_or_assign(std::string(trim(view.substr(0, eq))),
                                  std::string(trim(view.substr(eq + 1))));
    }
  }
  return config;
}

std::optional<std::string> KvConfig::get(const std::string& key) const {
  const auto it = kv_.find(key);
  if (it == kv_.end()) return std::nullopt;
  return it->second;
}

std::string KvConfig::get_or(const std::string& key,
                             const std::string& fallback) const {
  return get(key).value_or(fallback);
}

std::int64_t KvConfig::get_int_or(const std::string& key,
                                  std::int64_t fallback) const {
  const auto value = get(key);
  if (!value) return fallback;
  return std::strtoll(value->c_str(), nullptr, 10);
}

double KvConfig::get_double_or(const std::string& key, double fallback) const {
  const auto value = get(key);
  if (!value) return fallback;
  return std::strtod(value->c_str(), nullptr);
}

bool KvConfig::get_bool_or(const std::string& key, bool fallback) const {
  const auto value = get(key);
  if (!value) return fallback;
  return *value == "1" || *value == "true" || *value == "yes" ||
         *value == "on";
}

void KvConfig::set(const std::string& key, const std::string& value) {
  kv_[key] = value;
}

bool KvConfig::contains(const std::string& key) const {
  return kv_.count(key) != 0;
}

std::int64_t env_int(const char* name, std::int64_t fallback,
                     std::int64_t min, std::int64_t max) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || *raw == '\0') return fallback;
  const char* end = raw + std::strlen(raw);
  std::int64_t value = 0;
  const auto [stop, error] = std::from_chars(raw, end, value);
  if (error != std::errc() || stop != end || value < min || value > max) {
    throw std::invalid_argument(
        std::string(name) + "=\"" + raw + "\" is not an integer in [" +
        std::to_string(min) + ", " + std::to_string(max) + "]");
  }
  return value;
}

const std::vector<Knob>& knob_registry() {
  using Kind = Knob::Kind;
  static const std::vector<Knob> knobs = {
      // -- benchmark / driver environment --
      {Kind::kEnv, "AMTNET_BENCH_SCALE", "1.0",
       "multiplies every suite's message/step counts (scaled counts are "
       "clamped to >= 1)",
       "all bench_* binaries, bench_suite"},
      {Kind::kEnv, "AMTNET_BENCH_RUNS", "2",
       "recorded repetitions per data point; the driver reports the median "
       "of N plus mean/stddev",
       "bench_suite --run"},
      {Kind::kEnv, "AMTNET_BENCH_WARMUP", "1",
       "discarded leading runs per data point (cold-start: first runtime "
       "construction, allocator warm-up)",
       "bench_suite --run"},
      {Kind::kEnv, "AMTNET_BENCH_WORKERS", "8",
       "worker threads per locality for suite points that do not pin their "
       "own count",
       "all bench_* binaries"},
      {Kind::kEnv, "AMTNET_LOG", "warn",
       "stack log level: error|warn|info|debug", "any binary"},
      // -- telemetry --
      {Kind::kEnv, "AMTNET_TELEMETRY", "1",
       "0/off/false: kill switch for timing instrumentation (no clock "
       "reads, no tracing; counters stay on)",
       "bench_overhead_probe"},
      {Kind::kEnv, "AMTNET_TRACE_FILE", "bench_profile_trace.json",
       "where bench_profile writes its Chrome trace", "bench_profile"},
      // -- LCI parcelport --
      {Kind::kEnv, "AMTNET_LCI_PACKET_POOL", "4096",
       "send-side packet-pool size in minilci (a pool of 1 forces fast-path "
       "pool exhaustion — the credit-conservation regression setup)",
       "test_amt AdmissionTest"},
      // -- chaos test harness --
      {Kind::kEnv, "AMTNET_CHAOS_SEEDS", "1..8 in CI",
       "comma-separated seed sweep for the chaos test harness",
       "test_chaos"},
      // -- transport backends (sim | shm) and multi-process launch --
      {Kind::kEnv, "AMTNET_BACKEND", "sim",
       "fabric transport backend: sim (in-process simulated RDMA fabric) or "
       "shm (real POSIX shared-memory fabric); overrides the backend<name> "
       "config token and StackOptions",
       "ablation_backend"},
      {Kind::kEnv, "AMTNET_SHM_RANK", "-1 (single-process)",
       "shm backend: the locality rank hosted by THIS process; set per "
       "process by amtnet_launch. Unset/-1 constructs every rank in one "
       "process (conformance-test mode)",
       "amtnet_launch"},
      {Kind::kEnv, "AMTNET_SHM_RANKS", "unset",
       "shm backend: total locality count of the multi-process run; "
       "overrides StackOptions::num_localities (set by amtnet_launch)",
       "amtnet_launch"},
      {Kind::kEnv, "AMTNET_SHM_SESSION", "per-fabric unique",
       "shm backend: rendezvous namespace shared by all processes of one "
       "run; segment names derive from it (set by amtnet_launch)",
       "amtnet_launch"},
      {Kind::kEnv, "AMTNET_SHM_RING_DEPTH", "256",
       "shm backend: slots per directed per-pair ring (rounded up to a "
       "power of two); each slot holds one eager datagram",
       "ablation_backend"},
      {Kind::kEnv, "AMTNET_SHM_FORCE_FALLBACK", "0",
       "shm backend: 1 disables the direct (same-process) and cross-memory "
       "attach copy modes so one-sided put/get takes the segmented "
       "ring-record path (testing)",
       "test_backends"},
      {Kind::kEnv, "AMTNET_CPU_FIRST", "unset (no pinning)",
       "first CPU of this process's affinity range; worker/progress threads "
       "pin into [first, first+count) (set per rank by amtnet_launch)",
       "amtnet_launch"},
      {Kind::kEnv, "AMTNET_CPU_COUNT", "hardware cores",
       "number of CPUs in this process's affinity range",
       "amtnet_launch"},
      // -- parcelport config-name tokens (Table 1 + ablations) --
      {Kind::kConfigToken, "mpi | lci", "lci",
       "backend selection prefix of the configuration name",
       "fig1_msgrate_8b"},
      {Kind::kConfigToken, "psr | sr", "psr",
       "LCI header protocol: one-sided dynamic put vs two-sided send/recv",
       "fig2_msgrate_8b_lci"},
      {Kind::kConfigToken, "cq | sy", "cq",
       "LCI completion mechanism: completion queue vs synchronizer",
       "fig5_msgrate_16k_lci"},
      {Kind::kConfigToken, "pin | mt", "pin",
       "progress engine: dedicated pinned thread vs idle worker threads "
       "(paper alias: rp = pin)",
       "fig2_msgrate_8b_lci"},
      {Kind::kConfigToken, "_i", "off",
       "send-immediate: bypass the parcel queue and connection cache",
       "ablation_aggregation"},
      {Kind::kConfigToken, "pd<N>", "unbounded",
       "LCI follow-up pipeline depth (pd1 = serialized one-op walk, no "
       "token = unbounded)",
       "ablation_pipeline"},
      {Kind::kConfigToken, "pt<K>", "unbounded",
       "LCI progress-ticket bound: max concurrent NIC pollers in mt mode "
       "(no token = every idle worker polls)",
       "ablation_progress"},
      {Kind::kConfigToken, "rs<N>", "16",
       "LCI rendezvous-state shard count (rs1 = the single global-table "
       "baseline)",
       "ablation_progress"},
      {Kind::kConfigToken, "fp | fpoff", "on",
       "LCI small-parcel fast path: a parcel whose count-1 batch frame fits "
       "the eager threshold rides that single put-with-completion frame, "
       "skipping connection acquisition and follow-up transfers (fpoff = "
       "kill switch)",
       "ablation_fastpath"},
      {Kind::kConfigToken, "agg<N> | aggt<U>", "off",
       "LCI adaptive aggregation: coalesce fast-path parcels bound for a "
       "backpressured destination into one batch frame of at most N bytes "
       "(agg<N>, minimum 24 B, the one-parcel frame overhead), flushed by "
       "size, window stall (the buffer absorbed every outstanding admission "
       "credit), age (aggt<U> microseconds, default 200), idle background "
       "work, or stop (no agg<N> token = off)",
       "ablation_aggregation"},
      {Kind::kConfigToken, "shed<N> | block<N> | dl<N>", "off",
       "send-path admission control with per-destination window N: shed "
       "refuses surplus fire-and-forget parcels at the bound, block "
       "backpressures the producer task, dl admits up to N but drops "
       "parcels whose queue age exceeds AdmissionConfig::deadline_us "
       "(default 1000 us)",
       "openloop"},
      {Kind::kConfigToken, "coll<ALGO>", "auto",
       "collective algorithm family for CollectiveGroup ops (collcentral | "
       "colltree | collrd | collring; no token = auto selection); applies "
       "to every backend",
       "ablation_collectives"},
      {Kind::kConfigToken, "fine", "off (coarse)",
       "fine-grained progress lock in the MPI/UCX layer",
       "ablation_mpi_lock"},
      {Kind::kConfigToken, "orig", "off (improved)",
       "pre-optimisation MPI parcelport (static 512B header, tag-release "
       "protocol)",
       "ablation_mpi_original"},
      // -- CMake options --
      {Kind::kCMake, "AMTNET_TELEMETRY_DISABLED", "OFF",
       "compile every telemetry primitive to an inline no-op",
       "bench_overhead_probe"},
      {Kind::kCMake, "AMTNET_SANITIZE", "off",
       "thread|address sanitizer build", "CI tsan job"},
  };
  return knobs;
}

}  // namespace common
