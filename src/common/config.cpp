#include "common/config.hpp"

#include <cstdlib>

namespace common {

namespace {
std::string trim(const std::string& text) {
  const auto begin = text.find_first_not_of(" \t\r\n");
  if (begin == std::string::npos) return {};
  const auto end = text.find_last_not_of(" \t\r\n");
  return text.substr(begin, end - begin + 1);
}
}  // namespace

std::vector<std::string> split_trim(const std::string& text, char delim) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= text.size()) {
    const auto pos = text.find(delim, start);
    if (pos == std::string::npos) {
      out.push_back(trim(text.substr(start)));
      break;
    }
    out.push_back(trim(text.substr(start, pos - start)));
    start = pos + 1;
  }
  while (!out.empty() && out.back().empty()) out.pop_back();
  return out;
}

KvConfig KvConfig::parse(const std::string& text) {
  KvConfig config;
  for (const auto& piece : split_trim(text, ',')) {
    if (piece.empty()) continue;
    const auto eq = piece.find('=');
    if (eq == std::string::npos) {
      config.kv_[trim(piece)] = "1";  // bare key acts as a boolean flag
    } else {
      config.kv_[trim(piece.substr(0, eq))] = trim(piece.substr(eq + 1));
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
      {Kind::kEnv, "AMTNET_LCI_PIPELINE_DEPTH", "0 (unbounded)",
       "max in-flight follow-up pieces per connection when the config name "
       "carries no pd<N> token",
       "ablation_pipeline"},
      {Kind::kEnv, "AMTNET_LCI_PACKET_CACHE", "32",
       "per-thread packet-pool magazine capacity in minilci (0: every "
       "allocation hits the shared free list)",
       "bench_micro_ops"},
      {Kind::kEnv, "AMTNET_LCI_PROGRESS_THREADS", "0 (unbounded)",
       "max worker threads polling the NIC concurrently in mt mode (the "
       "progress-ticket bound) when the config name carries no pt<K> token",
       "ablation_progress"},
      {Kind::kEnv, "AMTNET_LCI_RDV_SHARDS", "16",
       "rendezvous-state table shards in minilci (rounded up to a power of "
       "two; 1 = single global table) when the name carries no rs<N> token",
       "ablation_progress"},
      {Kind::kEnv, "AMTNET_LCI_AGG", "0 (off)",
       "adaptive aggregation: batch-frame byte cap for per-destination "
       "coalescing of fast-path parcels under backpressure (0/off disables; "
       "clamped to [minimum frame, eager threshold]); only read when the "
       "config name carries no agg token",
       "ablation_aggregation"},
      {Kind::kEnv, "AMTNET_LCI_AGG_AGE_US", "200",
       "adaptive aggregation: microseconds a partially filled batch may age "
       "before it is flushed anyway (0 disables the age trigger; size, "
       "window-stall, and idle flushes still apply); only read when the "
       "config name carries no aggt token",
       "ablation_aggregation"},
      // -- collectives (CollectiveGroup algorithm selection) --
      {Kind::kEnv, "AMTNET_COLL_ALGO", "auto",
       "force a collective algorithm family (central|tree|rd|ring) for ops "
       "that have a member of it; auto = payload size x locality count "
       "selection (see docs/collectives.md); overrides the coll<ALGO> "
       "config token",
       "ablation_collectives"},
      {Kind::kEnv, "AMTNET_COLL_SEG_BYTES", "8192",
       "segment size for the pipelined binomial broadcast (store-and-"
       "forward pipelining above the large-payload crossover)",
       "ablation_collectives"},
      {Kind::kEnv, "AMTNET_COLL_LARGE_BYTES", "16384",
       "small/large payload crossover: above it broadcast pipelines "
       "segments and allreduce switches from recursive doubling to the "
       "ring (bandwidth-optimal) algorithm",
       "ablation_collectives"},
      {Kind::kEnv, "AMTNET_COLL_WINDOW", "16",
       "bounded round-window slot count for in-flight collective epochs "
       "(each slot is an independently locked shard; minimum 2)",
       "test_collectives"},
      {Kind::kEnv, "AMTNET_LCI_PACKET_POOL", "4096",
       "send-side packet-pool size in minilci (a pool of 1 forces fast-path "
       "pool exhaustion — the credit-conservation regression setup)",
       "test_amt AdmissionTest"},
      {Kind::kEnv, "AMTNET_REL_SCAN_QUANTUM", "64",
       "progress ticks between retransmit scans in the reliability layer "
       "(0: scan on every progress call)",
       "bench_chaos_sweep"},
      // -- fault injection (see docs/ and README for the full model) --
      {Kind::kEnv, "AMTNET_FAULT_DROP", "0",
       "P(drop) per two-sided datagram", "bench_chaos_sweep, test_chaos"},
      {Kind::kEnv, "AMTNET_FAULT_DUP", "0",
       "P(duplicate delivery) per datagram", "bench_chaos_sweep"},
      {Kind::kEnv, "AMTNET_FAULT_CORRUPT", "0",
       "P(single bit-flip) per payload", "bench_chaos_sweep"},
      {Kind::kEnv, "AMTNET_FAULT_CORRUPT_MIN", "0",
       "only corrupt payloads >= this size (bytes)", "test_chaos"},
      {Kind::kEnv, "AMTNET_FAULT_DELAY", "0",
       "P(latency spike) per packet", "bench_chaos_sweep"},
      {Kind::kEnv, "AMTNET_FAULT_DELAY_US", "50",
       "latency-spike magnitude (microseconds)", "bench_chaos_sweep"},
      {Kind::kEnv, "AMTNET_FAULT_BROWNOUT", "0",
       "P(entering a brownout) per post", "bench_chaos_sweep"},
      {Kind::kEnv, "AMTNET_FAULT_BROWNOUT_POSTS", "64",
       "posts rejected (kRetry) per brownout", "test_chaos"},
      {Kind::kEnv, "AMTNET_FAULT_RNR", "0",
       "P(entering an RNR storm) per poll", "bench_chaos_sweep"},
      {Kind::kEnv, "AMTNET_FAULT_RNR_POLLS", "32",
       "polls stalled per RNR storm", "test_chaos"},
      {Kind::kEnv, "AMTNET_FAULT_SEED", "fixed constant",
       "seed of the deterministic fault streams (any u64)", "test_chaos"},
      {Kind::kEnv, "AMTNET_FAULT_INTEGRITY", "0",
       "1: arm the CRC/sequence integrity layer with all fault "
       "probabilities 0",
       "bench_chaos_sweep"},
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
      // -- serving path: admission control and the open-loop load generator --
      {Kind::kEnv, "AMTNET_ADMIT_POLICY", "off",
       "send-path admission policy override: off|shed|block|deadline "
       "(config-name tokens take precedence)",
       "openloop"},
      {Kind::kEnv, "AMTNET_ADMIT_BOUND", "64",
       "per-destination admission window: parcels accepted but not yet "
       "executed at the destination (credits return from the destination's "
       "handler, so the window spans the whole serving path)",
       "openloop"},
      {Kind::kEnv, "AMTNET_ADMIT_DEADLINE_US", "1000",
       "deadline policy: max queue age in microseconds before a parcel is "
       "dropped at flush time",
       "openloop"},
      {Kind::kEnv, "AMTNET_LOADGEN_SEED", "2026",
       "overrides the open-loop arrival-schedule seed (the schedule is "
       "bit-for-bit reproducible per seed)",
       "openloop"},
      // -- parcelport config-name tokens (Table 1 + ablations) --
      {Kind::kConfigToken, "mpi | lci | tcp", "lci",
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
       "LCI follow-up pipeline depth (pd1 = serialized one-op walk, "
       "pdinf/no token = unbounded)",
       "ablation_pipeline"},
      {Kind::kConfigToken, "pt<K>", "unbounded",
       "LCI progress-ticket bound: max concurrent NIC pollers in mt mode "
       "(ptinf/no token = every idle worker polls)",
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
      {Kind::kConfigToken, "agg<N> | aggt<U> | aggoff", "off",
       "LCI adaptive aggregation: coalesce fast-path parcels bound for a "
       "backpressured destination into one batch frame of at most N bytes "
       "(agg<N>, minimum 24 B, the one-parcel frame overhead), flushed by "
       "size, window stall (the buffer absorbed every outstanding admission "
       "credit), age (aggt<U> microseconds), idle background work, or stop "
       "(aggoff = kill switch)",
       "ablation_aggregation"},
      {Kind::kConfigToken, "shed<N> | block<N> | dl<N>", "off",
       "send-path admission control with per-destination window N: shed "
       "refuses surplus fire-and-forget parcels at the bound, block "
       "backpressures the producer task, dl admits up to N but drops "
       "parcels whose queue age exceeds AMTNET_ADMIT_DEADLINE_US",
       "openloop"},
      {Kind::kConfigToken, "coll<ALGO>", "auto",
       "collective algorithm family for CollectiveGroup ops (collcentral | "
       "colltree | collrd | collring | collauto); applies to every backend "
       "and is overridden by AMTNET_COLL_ALGO",
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
