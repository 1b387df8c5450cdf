#include "suites.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "expdriver/driver.hpp"
#include "expdriver/registry.hpp"
#include "fft.hpp"
#include "harness.hpp"
#include "loadgen/loadgen.hpp"

namespace bench::suites {

namespace {

using expdriver::Labels;
using expdriver::PointKind;
using expdriver::PointSpec;
using expdriver::RunEnv;
using expdriver::Sample;
using expdriver::SuiteRegistry;
using expdriver::SuiteResult;
using expdriver::SuiteSpec;

// The paper's configuration sets (Table 1).
const std::vector<const char*> kElevenConfigs = {
    "lci_psr_cq_pin", "lci_psr_cq_pin_i", "lci_psr_cq_mt_i",
    "lci_psr_sy_pin_i", "lci_psr_sy_mt_i", "lci_sr_cq_pin_i",
    "lci_sr_cq_mt_i", "lci_sr_sy_pin_i", "lci_sr_sy_mt_i", "mpi", "mpi_i"};

// Unified workload bases shared by every suite measuring the same shape
// (previously each bench main hard-coded its own slightly different counts:
// fig3 ran 5000-message floods against fig1's 6000, fig6 ran 1000 against
// fig4/5's 1200, and the octo benches disagreed on step counts — so
// "identical" configurations were never actually identical runs).
constexpr std::size_t k8bFloodMsgs = 6000;    // 8 B flood, batch 100
constexpr std::size_t k16kFloodMsgs = 1200;   // 16 KiB flood, batch 10
constexpr int kLatencySteps8b = 40;           // 8 B windowed ping-pong
constexpr int kLatencySteps16k = 25;          // 16 KiB windowed ping-pong
constexpr int kLatencyStepsSized = 60;        // size-sweep ping-pong
constexpr int kOctoSteps = 3;                 // proxy-app time steps

std::string kps_label(double kps) {
  if (kps == 0.0) return "unlimited";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g", kps);
  return buf;
}

PointSpec rate_point(const std::string& config, std::size_t msg_size,
                     std::size_t batch, std::size_t base_total,
                     double attempted_kps) {
  PointSpec p;
  p.kind = PointKind::kRate;
  p.parcelport = config;
  p.msg_size = msg_size;
  p.batch = batch;
  p.base_total_msgs = base_total;
  p.attempted_rate = attempted_kps * 1e3;
  p.labels = {{"config", config},
              {"msg_size", std::to_string(msg_size)},
              {"attempted_kps", kps_label(attempted_kps)}};
  return p;
}

PointSpec latency_point(const std::string& config, std::size_t msg_size,
                        unsigned window, int base_steps) {
  PointSpec p;
  p.kind = PointKind::kLatency;
  p.parcelport = config;
  p.msg_size = msg_size;
  p.window = window;
  p.base_steps = base_steps;
  p.labels = {{"config", config},
              {"msg_size", std::to_string(msg_size)},
              {"window", std::to_string(window)}};
  return p;
}

PointSpec octo_point(const std::string& config, const std::string& platform,
                     std::uint32_t localities, int level) {
  PointSpec p;
  p.kind = PointKind::kOcto;
  p.parcelport = config;
  p.platform = platform;
  p.localities = localities;
  p.level = level;
  p.base_steps = kOctoSteps;
  p.workers = 2;  // proxy-app convention of the original figure benches
  p.labels = {{"config", config},
              {"platform", platform},
              {"localities", std::to_string(localities)}};
  return p;
}

PointSpec openloop_point(const std::string& config, double offered_rps,
                         const std::string& process) {
  PointSpec p;
  p.kind = PointKind::kOpenLoop;
  p.parcelport = config;
  p.attempted_rate = offered_rps;
  // ~0.5 s of offered load per sample at scale 1.0, so every point sees the
  // same observation window regardless of its rate.
  p.base_total_msgs = static_cast<std::size_t>(offered_rps / 2.0);
  p.ol_process = process;
  p.workers = 2;
  p.labels = {{"config", config},
              {"process", process},
              {"offered_rps", kps_label(offered_rps)}};
  return p;
}

PointSpec coll_point(const std::string& config, const std::string& op,
                     const std::string& algo, std::uint32_t localities,
                     std::size_t payload_bytes, int base_iters) {
  PointSpec p;
  p.kind = PointKind::kColl;
  p.parcelport = config;
  p.coll_op = op;
  p.localities = localities;
  p.msg_size = payload_bytes;
  p.base_steps = base_iters;
  p.workers = 2;
  p.labels = {{"config", config},
              {"op", op},
              {"algo", algo},
              {"localities", std::to_string(localities)},
              {"payload", std::to_string(payload_bytes)}};
  return p;
}

PointSpec fft_point(const std::string& config, std::uint32_t localities,
                    std::size_t dim, int base_iters) {
  PointSpec p;
  p.kind = PointKind::kFft;
  p.parcelport = config;
  p.localities = localities;
  p.fft_dim = dim;
  p.base_steps = base_iters;
  p.workers = 2;
  p.labels = {{"config", config},
              {"localities", std::to_string(localities)},
              {"dim", std::to_string(dim)}};
  return p;
}

// ---- derived console summaries (the views the paper plots) ---------------

/// Figure 3/6 view: per config, the peak rate_kps median across the
/// injection-rate sweep.
void print_peak_by_config(const SuiteResult& result) {
  std::printf("\n# peak message rate per config (paper's bar view)\n");
  std::printf("config,peak_message_rate_K/s\n");
  std::vector<std::pair<std::string, double>> peaks;  // insertion order
  for (const auto& point : result.points) {
    const auto config = point.labels.find("config");
    const auto* rate = point.metric("rate_kps");
    if (config == point.labels.end() || rate == nullptr) continue;
    auto it = std::find_if(peaks.begin(), peaks.end(), [&](const auto& e) {
      return e.first == config->second;
    });
    if (it == peaks.end()) {
      peaks.push_back({config->second, rate->median});
    } else if (rate->median > it->second) {
      it->second = rate->median;
    }
  }
  for (const auto& [config, peak] : peaks) {
    std::printf("%s,%.1f\n", config.c_str(), peak);
  }
  std::fflush(stdout);
}

/// Figure 10/11 view: lci-over-mpi speedup columns per locality count.
void print_octo_speedups(const SuiteResult& result) {
  std::map<std::string, std::map<std::string, double>> by_config;
  for (const auto& point : result.points) {
    const auto config = point.labels.find("config");
    const auto localities = point.labels.find("localities");
    const auto* steps = point.metric("steps_per_s");
    if (config == point.labels.end() || localities == point.labels.end() ||
        steps == nullptr) {
      continue;
    }
    by_config[config->second][localities->second] = steps->median;
  }
  const auto& lci = by_config["lci_psr_cq_pin_i"];
  std::printf("\n# speedup columns (right axis of the paper's figure)\n");
  std::printf("localities,lci_over_mpi,lci_over_mpi_i\n");
  for (const auto& [localities, lci_steps] : lci) {
    const auto mpi = by_config["mpi"].find(localities);
    const auto mpi_i = by_config["mpi_i"].find(localities);
    if (mpi == by_config["mpi"].end() || mpi_i == by_config["mpi_i"].end()) {
      continue;
    }
    std::printf("%s,%.3f,%.3f\n", localities.c_str(),
                lci_steps / mpi->second, lci_steps / mpi_i->second);
  }
  std::fflush(stdout);
}

/// §3.1 ablation view: improved-over-original app speedup.
void print_mpi_original_speedup(const SuiteResult& result) {
  double improved = 0.0, original = 0.0;
  for (const auto& point : result.points) {
    const auto config = point.labels.find("config");
    const auto* steps = point.metric("steps_per_s");
    if (config == point.labels.end() || steps == nullptr) continue;
    if (config->second == "mpi") improved = steps->median;
    if (config->second == "mpi_orig") original = steps->median;
  }
  if (original > 0.0) {
    std::printf("\n# improved/original app speedup: %.3f\n",
                improved / original);
    std::fflush(stdout);
  }
}

/// Progress-engine ablation view: per config (completion x tickets x
/// shards), the rate_kps median at each pinned worker count — the scaling
/// curves the ablation argues over.
void print_progress_scaling(const SuiteResult& result) {
  // variant -> workers -> rate, insertion-ordered by first appearance.
  std::vector<std::pair<std::string, std::map<int, double>>> rows;
  for (const auto& point : result.points) {
    const auto config = point.labels.find("config");
    const auto workers = point.labels.find("workers");
    const auto* rate = point.metric("rate_kps");
    if (config == point.labels.end() || workers == point.labels.end() ||
        rate == nullptr) {
      continue;
    }
    auto it = std::find_if(rows.begin(), rows.end(), [&](const auto& row) {
      return row.first == config->second;
    });
    if (it == rows.end()) {
      rows.push_back({config->second, {}});
      it = rows.end() - 1;
    }
    it->second[std::atoi(workers->second.c_str())] = rate->median;
  }
  std::printf("\n# 16KiB flood rate (K/s) by progress-pool width\n");
  std::printf("config,w1,w2,w4,w8\n");
  for (const auto& [config, by_workers] : rows) {
    std::printf("%s", config.c_str());
    for (int workers : {1, 2, 4, 8}) {
      const auto rate = by_workers.find(workers);
      if (rate == by_workers.end()) {
        std::printf(",-");
      } else {
        std::printf(",%.1f", rate->second);
      }
    }
    std::printf("\n");
  }
  std::fflush(stdout);
}

// ---- suite definitions ----------------------------------------------------

SuiteSpec fig1() {
  SuiteSpec s;
  s.name = "fig1_msgrate_8b";
  s.figure = "Figure 1";
  s.title = "8B message rate vs injection rate (mpi, mpi_i, lci_psr_cq_pin, "
            "lci_psr_cq_pin_i)";
  s.expectation =
      "rates first track the injection rate then plateau; mpi (without "
      "send-immediate) degrades past its peak; lci plateaus highest";
  for (const char* config :
       {"mpi", "mpi_i", "lci_psr_cq_pin", "lci_psr_cq_pin_i"}) {
    for (double rate : {2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 0.0}) {
      s.points.push_back(rate_point(config, 8, 100, k8bFloodMsgs, rate));
    }
  }
  s.probes = {{"fabric_packets", "fabric/", "/packets_sent"}};
  return s;
}

SuiteSpec fig2() {
  SuiteSpec s;
  s.name = "fig2_msgrate_8b_lci";
  s.figure = "Figure 2";
  s.title = "8B message rate vs injection rate (8 LCI variants, _i)";
  s.expectation =
      "pin > mt (dedicated progress thread wins, up to 2.6x); psr > sr "
      "(one-sided put header wins, up to 3.5x); cq vs sy minor at 8B";
  for (const char* config :
       {"lci_psr_cq_pin_i", "lci_psr_cq_mt_i", "lci_psr_sy_pin_i",
        "lci_psr_sy_mt_i", "lci_sr_cq_pin_i", "lci_sr_cq_mt_i",
        "lci_sr_sy_pin_i", "lci_sr_sy_mt_i"}) {
    for (double rate : {4.0, 16.0, 64.0, 0.0}) {
      s.points.push_back(rate_point(config, 8, 100, k8bFloodMsgs, rate));
    }
  }
  return s;
}

SuiteSpec fig3() {
  SuiteSpec s;
  s.name = "fig3_peak_8b";
  s.figure = "Figure 3";
  s.title = "peak 8B message rate across injection rates (11 configs)";
  s.expectation =
      "lci_psr_cq_pin_i highest; all mt variants clustered well below the "
      "pin variants; mpi variants lowest";
  for (const char* config : kElevenConfigs) {
    for (double rate : {8.0, 32.0, 0.0}) {
      s.points.push_back(rate_point(config, 8, 100, k8bFloodMsgs, rate));
    }
  }
  s.post_summary = print_peak_by_config;
  return s;
}

SuiteSpec fig4() {
  SuiteSpec s;
  s.name = "fig4_msgrate_16k";
  s.figure = "Figure 4";
  s.title = "16KiB message rate vs injection rate (mpi, mpi_i, "
            "lci_psr_cq_pin, lci_psr_cq_pin_i)";
  s.expectation =
      "lci sustains its plateau (paper: up to 30x mpi); both mpi variants' "
      "achieved rate decays as injection pressure grows; aggregation (no _i) "
      "does not help lci at this size";
  s.smoke = true;
  for (const char* config :
       {"mpi", "mpi_i", "lci_psr_cq_pin", "lci_psr_cq_pin_i"}) {
    for (double rate : {1.0, 2.0, 4.0, 8.0, 16.0, 0.0}) {
      s.points.push_back(
          rate_point(config, 16 * 1024, 10, k16kFloodMsgs, rate));
    }
  }
  s.probes = {{"fabric_packets", "fabric/", "/packets_sent"}};
  return s;
}

SuiteSpec fig5() {
  SuiteSpec s;
  s.name = "fig5_msgrate_16k_lci";
  s.figure = "Figure 5";
  s.title = "16KiB message rate vs injection rate (8 LCI variants, _i)";
  s.expectation =
      "cq variants plateau smoothly and ~25-30% above sy variants (which "
      "oscillate); pin beats mt by 17-50%";
  for (const char* config :
       {"lci_psr_cq_pin_i", "lci_psr_cq_mt_i", "lci_psr_sy_pin_i",
        "lci_psr_sy_mt_i", "lci_sr_cq_pin_i", "lci_sr_cq_mt_i",
        "lci_sr_sy_pin_i", "lci_sr_sy_mt_i"}) {
    for (double rate : {2.0, 8.0, 0.0}) {
      s.points.push_back(
          rate_point(config, 16 * 1024, 10, k16kFloodMsgs, rate));
    }
  }
  return s;
}

SuiteSpec fig6() {
  SuiteSpec s;
  s.name = "fig6_peak_16k";
  s.figure = "Figure 6";
  s.title = "peak 16KiB message rate across injection rates (11 configs)";
  s.expectation =
      "cq+pin variants on top; sy variants ~25-30% lower; mt variants "
      "capped by progress contention; mpi variants at the bottom";
  for (const char* config : kElevenConfigs) {
    for (double rate : {4.0, 0.0}) {
      s.points.push_back(
          rate_point(config, 16 * 1024, 10, k16kFloodMsgs, rate));
    }
  }
  s.post_summary = print_peak_by_config;
  return s;
}

SuiteSpec fig7() {
  SuiteSpec s;
  s.name = "fig7_latency_size";
  s.figure = "Figure 7";
  s.title = "one-way latency vs message size, window 1 (11 configs)";
  s.expectation =
      "lci_psr_cq_pin(_i) lowest across sizes; mpi_i competitive below 1KB "
      "then 3-5x worse for large messages; send-immediate always helps lci "
      "latency";
  for (const char* config : kElevenConfigs) {
    for (std::size_t size : {8u, 64u, 512u, 4096u, 16384u, 65536u}) {
      s.points.push_back(latency_point(config, size, 1, kLatencyStepsSized));
    }
  }
  // Straddle the small-parcel fast-path threshold: the ping-pong's count-1
  // batch frame is payload + 53 B (16 B batch header + 8 B entry header +
  // 4 B action id + 8 B promise id + two u32 args + a 9 B inline-vector
  // prefix), and the fast path takes frames up to the 8192 B eager
  // threshold. These two payloads put the frame at threshold -8 B and
  // +8 B, so the curve shows the step where parcels leave the one-message
  // path — only meaningful for the LCI rows; the MPI rows have no fast path
  // but keep the sweep aligned. (test_parcelports pins this arithmetic
  // against the fastpath counters.)
  for (const char* config : kElevenConfigs) {
    for (std::size_t size : {8192u - 53 - 8, 8192u - 53 + 8}) {
      s.points.push_back(latency_point(config, size, 1, kLatencyStepsSized));
    }
  }
  return s;
}

SuiteSpec fig8() {
  SuiteSpec s;
  s.name = "fig8_latency_window_8b";
  s.figure = "Figure 8";
  s.title = "8B one-way latency vs window size (11 configs)";
  s.expectation =
      "latency grows with window everywhere; lci_psr_cq_pin_i stays lowest; "
      "mpi_i beats mpi at small windows but crosses over (paper: window 8) "
      "as concurrency grows";
  for (const char* config : kElevenConfigs) {
    for (unsigned window : {1u, 2u, 4u, 8u, 16u, 32u, 64u}) {
      s.points.push_back(latency_point(config, 8, window, kLatencySteps8b));
    }
  }
  return s;
}

SuiteSpec fig9() {
  SuiteSpec s;
  s.name = "fig9_latency_window_16k";
  s.figure = "Figure 9";
  s.title = "16KiB one-way latency vs window size (11 configs)";
  s.expectation =
      "the mpi/lci gap widens with the window (paper: mpi_i vs "
      "lci_psr_cq_pin_i grows from 2x at window 1 to 9.6x at window 64)";
  for (const char* config : kElevenConfigs) {
    for (unsigned window : {1u, 2u, 4u, 8u, 16u, 32u, 64u}) {
      s.points.push_back(
          latency_point(config, 16 * 1024, window, kLatencySteps16k));
    }
  }
  return s;
}

SuiteSpec fig10() {
  SuiteSpec s;
  s.name = "fig10_octotiger_expanse";
  s.figure = "Figure 10";
  s.title = "Octo-Tiger proxy strong scaling, Expanse profile";
  s.expectation =
      "lci >= mpi >= mpi_i at every node count, gap growing with nodes; "
      "mpi_i disproportionately bad on the high-core-count platform "
      "(blocking-lock convoy; paper: up to 13.6x)";
  for (const char* config : {"mpi", "mpi_i", "lci_psr_cq_pin_i"}) {
    for (std::uint32_t localities : {2u, 4u, 6u, 8u}) {
      s.points.push_back(octo_point(config, "expanse", localities, 3));
    }
  }
  s.post_summary = print_octo_speedups;
  return s;
}

SuiteSpec fig11() {
  SuiteSpec s;
  s.name = "fig11_octotiger_rostam";
  s.figure = "Figure 11";
  s.title = "Octo-Tiger proxy strong scaling, Rostam profile";
  s.expectation =
      "smaller gaps than on Expanse (fewer cores, fewer nodes): lci ~1.04x "
      "over mpi and ~1.08x over mpi_i at the largest node count";
  for (const char* config : {"mpi", "mpi_i", "lci_psr_cq_pin_i"}) {
    for (std::uint32_t localities : {2u, 4u, 8u}) {
      s.points.push_back(octo_point(config, "rostam", localities, 2));
    }
  }
  s.post_summary = print_octo_speedups;
  return s;
}

SuiteSpec ablation_mpi_original() {
  SuiteSpec s;
  s.name = "ablation_mpi_original";
  s.figure = "§3.1 ablation";
  s.title = "original vs improved MPI parcelport";
  s.expectation =
      "improved ('mpi') beats original ('mpi_orig') on the proxy app and on "
      "latency for messages that now fit the dynamic header (~20% app-level "
      "in the paper)";
  for (const char* config : {"mpi_orig", "mpi"}) {
    s.points.push_back(octo_point(config, "expanse", 4, 3));
  }
  for (const char* config : {"mpi_orig", "mpi", "mpi_orig_i", "mpi_i"}) {
    for (std::size_t size : {256u, 2048u, 4096u}) {
      s.points.push_back(latency_point(config, size, 4, kLatencySteps8b));
    }
  }
  s.post_summary = print_mpi_original_speedup;
  return s;
}

SuiteSpec ablation_mpi_lock() {
  SuiteSpec s;
  s.name = "ablation_mpi_lock";
  s.figure = "§7.1 ablation";
  s.title = "coarse vs fine-grained progress lock in the MPI layer";
  s.expectation =
      "the fine-grained variant sustains higher 16KiB message rates and "
      "lower windowed latency; the gap grows with concurrency (worker "
      "threads convoy on the blocking lock in MPI_Test)";
  for (const char* config : {"mpi_i", "mpi_fine_i"}) {
    s.points.push_back(rate_point(config, 16 * 1024, 10, k16kFloodMsgs, 0.0));
  }
  for (const char* config : {"mpi_i", "mpi_fine_i"}) {
    for (unsigned window : {1u, 8u, 32u}) {
      s.points.push_back(latency_point(config, 8, window, kLatencySteps8b));
    }
  }
  return s;
}

SuiteSpec ablation_zc_threshold() {
  SuiteSpec s;
  s.name = "ablation_zc_threshold";
  s.figure = "§2.2 ablation";
  s.title = "zero-copy serialization threshold (HPX default 8192)";
  s.expectation =
      "for 4KiB payloads: a tiny threshold forces needless rendezvous "
      "(worse latency); for 16KiB payloads: a huge threshold forces inline "
      "copies of large data through the eager path";
  for (std::size_t threshold : {512u, 8192u, 65536u}) {
    for (const char* config : {"lci_psr_cq_pin_i", "mpi_i"}) {
      PointSpec p = latency_point(config, 4096, 4, kLatencySteps8b);
      p.zero_copy_threshold = threshold;
      p.labels["zc"] = std::to_string(threshold);
      s.points.push_back(std::move(p));
    }
  }
  for (std::size_t threshold : {2048u, 8192u, 65536u}) {
    PointSpec p =
        rate_point("lci_psr_cq_pin_i", 16 * 1024, 10, k16kFloodMsgs, 0.0);
    p.zero_copy_threshold = threshold;
    p.labels["zc"] = std::to_string(threshold);
    s.points.push_back(std::move(p));
  }
  return s;
}

/// Adaptive-aggregation view: per LCI variant, the backpressured 8B flood
/// rate of the adaptive engine over the `_i` bypass and over fp-only — the
/// headline speedups — plus the unloaded-latency ratio (the "load-aware"
/// claim: no batching delay when the destination window is empty).
void print_aggregation_speedup(const SuiteResult& result) {
  struct Row {
    double adaptive = 0.0, fponly = 0.0, bypass = 0.0;
    double lat_adaptive = 0.0, lat_fponly = 0.0;
  };
  std::vector<std::pair<std::string, Row>> rows;  // insertion order
  for (const auto& point : result.points) {
    const auto variant = point.labels.find("variant");
    const auto mode = point.labels.find("mode");
    const auto size = point.labels.find("msg_size");
    if (variant == point.labels.end() || mode == point.labels.end() ||
        size == point.labels.end() || size->second != "8") {
      continue;
    }
    auto it = std::find_if(rows.begin(), rows.end(), [&](const auto& row) {
      return row.first == variant->second;
    });
    if (it == rows.end()) {
      rows.push_back({variant->second, {}});
      it = rows.end() - 1;
    }
    if (const auto* rate = point.metric("rate_kps")) {
      if (mode->second == "adaptive") it->second.adaptive = rate->median;
      if (mode->second == "fponly") it->second.fponly = rate->median;
      if (mode->second == "bypass") it->second.bypass = rate->median;
    }
    if (const auto* lat = point.metric("latency_us")) {
      if (mode->second == "adaptive") it->second.lat_adaptive = lat->median;
      if (mode->second == "fponly") it->second.lat_fponly = lat->median;
    }
  }
  std::printf(
      "\n# adaptive aggregation at 8B under backpressure (rate speedups; "
      "idle_latency_ratio from the unloaded window-1 points)\n");
  std::printf("variant,adaptive_over_bypass,adaptive_over_fponly,"
              "idle_latency_ratio\n");
  double bypass_log_sum = 0.0, fponly_log_sum = 0.0, lat_log_sum = 0.0;
  std::size_t bypass_n = 0, fponly_n = 0, lat_n = 0;
  for (const auto& [variant, row] : rows) {
    const double over_bypass =
        row.bypass > 0.0 ? row.adaptive / row.bypass : 0.0;
    const double over_fponly =
        row.fponly > 0.0 ? row.adaptive / row.fponly : 0.0;
    const double lat_ratio =
        row.lat_fponly > 0.0 ? row.lat_adaptive / row.lat_fponly : 0.0;
    if (over_bypass > 0.0) {
      bypass_log_sum += std::log(over_bypass);
      ++bypass_n;
    }
    if (over_fponly > 0.0) {
      fponly_log_sum += std::log(over_fponly);
      ++fponly_n;
    }
    if (lat_ratio > 0.0) {
      lat_log_sum += std::log(lat_ratio);
      ++lat_n;
    }
    std::printf("%s,%.3f,%.3f,%.3f\n", variant.c_str(), over_bypass,
                over_fponly, lat_ratio);
  }
  if (bypass_n > 0 && fponly_n > 0) {
    std::printf("geomean,%.3f,%.3f,%.3f\n",
                std::exp(bypass_log_sum / bypass_n),
                std::exp(fponly_log_sum / fponly_n),
                lat_n > 0 ? std::exp(lat_log_sum / lat_n) : 0.0);
  }
  std::fflush(stdout);
}

SuiteSpec ablation_aggregation() {
  SuiteSpec s;
  s.name = "ablation_aggregation";
  s.figure = "§3.2.2/§7.1 ablation";
  s.title =
      "parcel aggregation: connection-cache limits vs the adaptive "
      "per-destination coalescing engine";
  s.expectation =
      "historical trade-off (upper half): connection-cache aggregation cuts "
      "per-message pressure but adds locking and batching delay. Adaptive "
      "engine (lower half): on a message-rate-capped wire (0.3 Mpps) under "
      "a backpressured admission window the 8B flood coalesces into batch "
      "frames and beats both the _i bypass and the fp-only path (>=1.2x "
      "geomean; uncoalesced modes peg at the packet cap), while unloaded "
      "single-parcel latency is untouched because an empty destination "
      "window bypasses the buffers entirely";
  s.smoke = true;
  struct Variant {
    const char* label;
    const char* config;
    std::size_t max_connections;
  };
  for (const Variant& variant : {Variant{"immediate", "lci_psr_cq_pin_i", 8192},
                                 Variant{"cache8192", "lci_psr_cq_pin", 8192},
                                 Variant{"cache1", "lci_psr_cq_pin", 1},
                                 Variant{"immediate", "mpi_i", 8192},
                                 Variant{"cache8192", "mpi", 8192},
                                 Variant{"cache1", "mpi", 1}}) {
    PointSpec p = rate_point(variant.config, 8, 100, k8bFloodMsgs, 0.0);
    p.max_connections = variant.max_connections;
    p.labels["variant"] = variant.label;
    s.points.push_back(std::move(p));
  }
  // ---- adaptive aggregation engine --------------------------------------
  // Three modes per variant, all behind the same blocking admission window
  // (the backpressure signal that activates coalescing): the connection-path
  // bypass (fpoff), the count-1 frame fast path alone, and the fast path
  // with the adaptive aggregator on top.
  struct Mode {
    const char* label;
    const char* tokens;  // appended between the variant and "_i_block64"
  };
  const std::vector<Mode> modes = {
      {"bypass", "_fpoff"},
      {"fponly", "_fp"},
      {"adaptive", "_fp_agg8192_aggt200"}};
  const std::vector<const char*> variants = {"psr_cq_pin", "psr_cq_mt",
                                             "sr_cq_mt"};
  for (const char* variant : variants) {
    for (const Mode& mode : modes) {
      const std::string config =
          "lci_" + std::string(variant) + mode.tokens + "_i_block64";
      // The backpressured 8B flood: the window parks senders at 64
      // outstanding parcels, so the aggregator sees a persistently
      // non-empty destination queue and batches. The wire is shaped with a
      // NIC message-rate cap (0.3 Mpps, 10 Gbps, 5 µs) — the regime Yan et
      // al. identify for small-parcel AMT traffic, where per-message NIC
      // cost rather than bytes or host CPU bounds the flood. Uncoalesced
      // modes peg at the cap; batch frames carry many parcels per packet.
      PointSpec p8 = rate_point(config, 8, 100, k8bFloodMsgs, 0.0);
      // 16 KiB flood: over the eager threshold, every parcel must take the
      // rendezvous fallback untouched — aggregation must not tax it. Same
      // shaped wire: at 16 KiB the line rate, not the packet cap, binds.
      PointSpec p16k = rate_point(config, 16 * 1024, 10, k16kFloodMsgs, 0.0);
      for (PointSpec* p : {&p8, &p16k}) {
        p->rate_pkt_mpps = 0.3;
        p->rate_bandwidth_gbps = 10.0;
        p->rate_latency_us = 5.0;
        p->labels["variant"] = variant;
        p->labels["mode"] = mode.label;
        s.points.push_back(std::move(*p));
      }
    }
  }
  // Unloaded single-parcel latency (no admission window, depth always 0):
  // the load-aware switch must keep the aggregator out of the way, so
  // adaptive may not regress over fp-only by more than noise.
  for (const char* variant : variants) {
    for (const Mode& mode : modes) {
      const std::string config =
          "lci_" + std::string(variant) + mode.tokens + "_i";
      PointSpec lat = latency_point(config, 8, 1, 200);
      lat.labels["variant"] = variant;
      lat.labels["mode"] = mode.label;
      s.points.push_back(std::move(lat));
    }
  }
  // The proxy app under the same window: batching must help (or at least
  // not hurt) a real task graph, not just synthetic floods.
  for (const Mode& mode : modes) {
    PointSpec p = octo_point("lci_psr_cq_pin" + std::string(mode.tokens) +
                                 "_i_block64",
                             "expanse", 4, 3);
    p.labels["variant"] = "octo_psr_cq_pin";
    p.labels["mode"] = mode.label;
    s.points.push_back(std::move(p));
  }
  s.probes = {{"agg_batched", "pplci/", "/agg_batched"},
              {"agg_flushes_size", "pplci/", "/agg_flushes_size"},
              {"agg_flushes_stall", "pplci/", "/agg_flushes_stall"},
              {"agg_flushes_age", "pplci/", "/agg_flushes_age"},
              {"agg_flushes_idle", "pplci/", "/agg_flushes_idle"}};
  s.post_summary = print_aggregation_speedup;
  return s;
}

SuiteSpec ablation_rails() {
  SuiteSpec s;
  s.name = "ablation_rails";
  s.figure = "§7.2 ablation";
  s.title = "fabric rails per link (multi-QP striping)";
  s.expectation =
      "more rails relieve per-channel serialisation for 16KiB floods; with "
      "one rail every message of a flow funnels through one channel lock";
  for (unsigned rails : {1u, 2u, 4u, 8u}) {
    for (const char* config : {"lci_psr_cq_pin_i", "mpi_i"}) {
      PointSpec p = rate_point(config, 16 * 1024, 10, k16kFloodMsgs, 0.0);
      p.fabric_rails = rails;
      p.labels["rails"] = std::to_string(rails);
      s.points.push_back(std::move(p));
    }
  }
  return s;
}

SuiteSpec ablation_pipeline() {
  SuiteSpec s;
  s.name = "ablation_pipeline";
  s.figure = "follow-up pipelining ablation";
  s.title = "LCI follow-up pipeline depth (pd1/pd4/pd16/unbounded)";
  s.expectation =
      "unbounded depth sustains a rate >= depth 1, and the gap grows with "
      "the number of zero-copy chunks per message (more independent pieces "
      "to overlap)";
  s.smoke = true;
  struct Depth {
    const char* label;
    const char* config;
  };
  const std::vector<Depth> depths = {{"1", "lci_psr_cq_pin_pd1_i"},
                                     {"4", "lci_psr_cq_pin_pd4_i"},
                                     {"16", "lci_psr_cq_pin_pd16_i"},
                                     {"inf", "lci_psr_cq_pin_i"}};
  for (std::size_t zchunks : {1u, 2u, 4u}) {
    for (const Depth& depth : depths) {
      PointSpec p = rate_point(depth.config, 16 * 1024, 10, 800, 0.0);
      p.zchunk_count = zchunks;
      p.fabric_rails = 4;
      p.labels["depth"] = depth.label;
      p.labels["zchunks"] = std::to_string(zchunks);
      s.points.push_back(std::move(p));
    }
  }
  // Per-message view: single-chain multi-zchunk ping-pong exposes the
  // serialized piece walk directly (the flood above hides it behind
  // cross-message parallelism).
  for (std::size_t zchunks : {2u, 4u}) {
    for (const Depth& depth : depths) {
      PointSpec p = latency_point(depth.config, 16 * 1024, 1, 150);
      p.zchunk_count = zchunks;
      p.fabric_rails = 4;
      p.labels["depth"] = depth.label;
      p.labels["zchunks"] = std::to_string(zchunks);
      s.points.push_back(std::move(p));
    }
  }
  s.probes = {{"send_retries", "pplci/", "/send_retries"}};
  return s;
}

SuiteSpec ablation_progress() {
  SuiteSpec s;
  s.name = "ablation_progress";
  s.figure = "progress-engine scaling ablation";
  s.title =
      "mt progress scaling: rendezvous shards x progress tickets x workers";
  s.expectation =
      "with sharded rendezvous state the 16KiB flood rate holds or improves "
      "as idle workers join the mt progress pool, while the rs1 single-table "
      "baseline flattens first; a small ticket bound (pt1/pt2) keeps most of "
      "the unbounded rate without the full polling herd (progress_skips "
      "counts the turned-away pollers)";
  s.smoke = true;
  struct Tickets {
    const char* label;
    const char* token;  // appended after _mt; "" = unbounded (no token)
  };
  const std::vector<Tickets> tickets = {{"1", "_pt1"},
                                        {"2", "_pt2"},
                                        {"inf", ""}};
  for (const char* comp : {"cq", "sy"}) {
    for (const Tickets& ticket : tickets) {
      for (unsigned workers : {1u, 2u, 4u, 8u}) {
        const std::string config =
            std::string("lci_psr_") + comp + "_mt" + ticket.token + "_i";
        PointSpec p = rate_point(config, 16 * 1024, 10, k16kFloodMsgs, 0.0);
        p.workers = workers;
        p.fabric_rails = 4;
        // Four zero-copy chunks per message: every parcel drives four
        // concurrent rendezvous handshakes through the shared tables, so
        // the point measures progress-path contention, not fabric copies.
        p.zchunk_count = 4;
        p.labels["comp"] = comp;
        p.labels["tickets"] = ticket.label;
        p.labels["workers"] = std::to_string(workers);
        s.points.push_back(std::move(p));
      }
    }
  }
  // The pre-sharding baseline: one global rendezvous table (rs1), every
  // idle worker polling (no pt<K> token). The scaling gap against the rows
  // above is the ablation's headline.
  for (unsigned workers : {1u, 2u, 4u, 8u}) {
    PointSpec p =
        rate_point("lci_psr_cq_mt_rs1_i", 16 * 1024, 10, k16kFloodMsgs, 0.0);
    p.workers = workers;
    p.fabric_rails = 4;
    p.zchunk_count = 4;
    p.labels["comp"] = "cq";
    p.labels["tickets"] = "inf";
    p.labels["shards"] = "1";
    p.labels["workers"] = std::to_string(workers);
    s.points.push_back(std::move(p));
  }
  s.probes = {{"progress_skips", "pplci/", "/progress_skips"}};
  s.post_summary = print_progress_scaling;
  return s;
}

/// Fast-path ablation view: per LCI variant, the 8B flood-rate and 8B
/// latency ratio of fp=on over fp=off — the headline speedup table.
void print_fastpath_speedup(const SuiteResult& result) {
  struct Row {
    double rate_on = 0.0, rate_off = 0.0;
    double lat_on = 0.0, lat_off = 0.0;
  };
  std::vector<std::pair<std::string, Row>> rows;  // insertion order
  for (const auto& point : result.points) {
    const auto variant = point.labels.find("variant");
    const auto fp = point.labels.find("fp");
    const auto size = point.labels.find("msg_size");
    if (variant == point.labels.end() || fp == point.labels.end() ||
        size == point.labels.end() || size->second != "8") {
      continue;
    }
    auto it = std::find_if(rows.begin(), rows.end(), [&](const auto& row) {
      return row.first == variant->second;
    });
    if (it == rows.end()) {
      rows.push_back({variant->second, {}});
      it = rows.end() - 1;
    }
    const bool on = fp->second == "on";
    if (const auto* rate = point.metric("rate_kps")) {
      (on ? it->second.rate_on : it->second.rate_off) = rate->median;
    }
    if (const auto* lat = point.metric("latency_us")) {
      (on ? it->second.lat_on : it->second.lat_off) = lat->median;
    }
  }
  std::printf("\n# fast-path speedup at 8B (fp=on over fp=off)\n");
  std::printf("variant,rate_speedup,latency_ratio\n");
  double rate_log_sum = 0.0, lat_log_sum = 0.0;
  std::size_t rate_n = 0, lat_n = 0;
  for (const auto& [variant, row] : rows) {
    const double rate =
        row.rate_off > 0.0 ? row.rate_on / row.rate_off : 0.0;
    const double lat = row.lat_off > 0.0 ? row.lat_on / row.lat_off : 0.0;
    if (rate > 0.0) {
      rate_log_sum += std::log(rate);
      ++rate_n;
    }
    if (lat > 0.0) {
      lat_log_sum += std::log(lat);
      ++lat_n;
    }
    std::printf("%s,%.3f,%.3f\n", variant.c_str(), rate, lat);
  }
  if (rate_n > 0 && lat_n > 0) {
    std::printf("geomean,%.3f,%.3f\n", std::exp(rate_log_sum / rate_n),
                std::exp(lat_log_sum / lat_n));
  }
  std::fflush(stdout);
}

SuiteSpec ablation_fastpath() {
  SuiteSpec s;
  s.name = "ablation_fastpath";
  s.figure = "small-parcel fast-path ablation";
  s.expectation =
      "with the fast path on, every sub-threshold parcel rides one "
      "count-1 batch frame instead of header + connection bookkeeping: the "
      "8B flood rate improves across all variants (most on sr, which "
      "otherwise pays receiver-connection acquisition per message) and "
      "single-parcel latency drops; at 4KiB the frame still fits and the "
      "win narrows but must not invert";
  s.title =
      "small-parcel fast path on/off (8 LCI variants x 8B/512B/4KiB)";
  s.smoke = true;
  const std::vector<const char*> variants = {
      "psr_cq_pin", "psr_cq_mt", "psr_sy_pin", "psr_sy_mt",
      "sr_cq_pin",  "sr_cq_mt",  "sr_sy_pin",  "sr_sy_mt"};
  struct Mode {
    const char* label;
    const char* token;
  };
  for (const Mode& mode : {Mode{"on", "_fp"}, Mode{"off", "_fpoff"}}) {
    for (const char* variant : variants) {
      const std::string config =
          "lci_" + std::string(variant) + mode.token + "_i";
      // Rate floods at the three sizes the ablation argues over.
      PointSpec p8 = rate_point(config, 8, 100, k8bFloodMsgs, 0.0);
      PointSpec p512 = rate_point(config, 512, 100, k8bFloodMsgs, 0.0);
      PointSpec p4k = rate_point(config, 4096, 10, k16kFloodMsgs, 0.0);
      // Single-parcel (window 1) 8B latency. A deeper chain than the
      // fig8 base: per-hop savings of a few microseconds need more than a
      // couple of round trips per run to rise above scheduler noise at
      // smoke scale.
      PointSpec lat = latency_point(config, 8, 1, 200);
      for (PointSpec* p : {&p8, &p512, &p4k, &lat}) {
        p->labels["variant"] = variant;
        p->labels["fp"] = mode.label;
        s.points.push_back(std::move(*p));
      }
    }
  }
  s.probes = {{"fastpath_hits", "pplci/", "/fastpath_hits"},
              {"fastpath_fallbacks", "pplci/", "/fastpath_fallbacks"}};
  s.post_summary = print_fastpath_speedup;
  return s;
}

/// Open-loop view: per config+process, offered vs goodput and the tail.
void print_openloop_knee(const SuiteResult& result) {
  std::printf("\n# open-loop knee (offered vs goodput and tail)\n");
  std::printf(
      "config,process,offered_kps,goodput_kps,p50_us,p99_us,p999_us,shed\n");
  for (const auto& point : result.points) {
    const auto config = point.labels.find("config");
    const auto process = point.labels.find("process");
    const auto* offered = point.metric("offered_kps");
    const auto* goodput = point.metric("goodput_kps");
    const auto* p50 = point.metric("p50_us");
    const auto* p99 = point.metric("p99_us");
    const auto* p999 = point.metric("p999_us");
    const auto* shed = point.metric("admit_shed");
    if (config == point.labels.end() || offered == nullptr ||
        goodput == nullptr) {
      continue;
    }
    std::printf("%s,%s,%.3f,%.3f,%.1f,%.1f,%.1f,%.0f\n",
                config->second.c_str(),
                process != point.labels.end() ? process->second.c_str() : "-",
                offered->median, goodput->median,
                p50 != nullptr ? p50->median : 0.0,
                p99 != nullptr ? p99->median : 0.0,
                p999 != nullptr ? p999->median : 0.0,
                shed != nullptr ? shed->median : 0.0);
  }
}

SuiteSpec openloop() {
  SuiteSpec s;
  s.name = "openloop";
  s.figure = "serving extra";
  s.title = "open-loop serving: latency knee vs offered load and admission";
  s.expectation =
      "past the shaped-fabric capacity (~3.9k req/s at 4KiB) the "
      "uncontrolled p99.9 explodes with queueing (the knee), goodput "
      "plateaus at capacity; a bounded shed window keeps the tail within a "
      "small factor of sub-saturation while goodput stays at the plateau "
      "(the shed counters show what it cost); blocking never sheds but "
      "parks the queue at the generator, so the measured-from-arrival tail "
      "stays saturated; deadline-drop trades completions for tail";
  s.smoke = true;
  // The knee sweep: admission off across 0.3x..1.5x of saturation.
  for (double rps : {1200.0, 2400.0, 3600.0, 6000.0}) {
    s.points.push_back(openloop_point("lci_psr_cq_pin_i", rps, "poisson"));
  }
  // Admission policies at 1.5x saturation.
  for (const char* config :
       {"lci_psr_cq_pin_i_shed16", "lci_psr_cq_pin_i_shed32",
        "lci_psr_cq_pin_i_block16"}) {
    s.points.push_back(openloop_point(config, 6000.0, "poisson"));
  }
  {
    // Deadline drops need a real queue: no send-immediate and a single
    // cached connection, so parcels wait behind in-flight aggregates; the
    // deadline is pinned below one aggregate's send time so queued parcels
    // reliably go stale.
    PointSpec p = openloop_point("lci_psr_cq_pin_dl512", 6000.0, "poisson");
    p.max_connections = 1;
    p.ol_admit_deadline_us = 200;
    // Double observation window: at smoke scale the stale-queue regime
    // needs time to establish before the median run shows drops.
    p.base_total_msgs *= 2;
    s.points.push_back(std::move(p));
  }
  // Bursty arrivals: the same long-run rate concentrated in on-periods
  // stresses the tail below saturation and the shed window above it.
  s.points.push_back(openloop_point("lci_psr_cq_pin_i", 2400.0, "burst"));
  s.points.push_back(
      openloop_point("lci_psr_cq_pin_i_shed16", 6000.0, "burst"));
  // Cross-parcelport reference: mpi_i through the same serving path.
  s.points.push_back(openloop_point("mpi_i", 2400.0, "poisson"));
  s.points.push_back(openloop_point("mpi_i", 6000.0, "poisson"));
  s.probes = {{"admit_accepted", "amt/", "/admit_accepted"},
              {"admit_shed", "amt/", "/admit_shed"},
              {"admit_deadline_drops", "amt/", "/admit_deadline_drops"}};
  s.post_summary = print_openloop_knee;
  return s;
}

/// docs/collectives.md view: per (op, payload, localities), the speedup of
/// each log-depth algorithm over the centralised root-gather baseline, plus
/// the geomean of the tree/rd wins at >= 8 localities (the claim the docs
/// make; ring is recorded but excluded — its 2(n-1) rounds lose by design on
/// a message-rate-capped wire).
void print_collectives_speedup(const SuiteResult& result) {
  struct Cell {
    std::string op, payload, localities;
    double central = 0.0;
    std::vector<std::pair<std::string, double>> algos;  // insertion order
  };
  std::vector<Cell> cells;
  for (const auto& point : result.points) {
    const auto op = point.labels.find("op");
    const auto algo = point.labels.find("algo");
    const auto payload = point.labels.find("payload");
    const auto localities = point.labels.find("localities");
    const auto* us = point.metric("coll_us");
    if (op == point.labels.end() || algo == point.labels.end() ||
        payload == point.labels.end() || localities == point.labels.end() ||
        us == nullptr) {
      continue;
    }
    auto it = std::find_if(cells.begin(), cells.end(), [&](const Cell& c) {
      return c.op == op->second && c.payload == payload->second &&
             c.localities == localities->second;
    });
    if (it == cells.end()) {
      cells.push_back({op->second, payload->second, localities->second,
                       0.0, {}});
      it = cells.end() - 1;
    }
    if (algo->second == "central") {
      it->central = us->median;
    } else {
      it->algos.emplace_back(algo->second, us->median);
    }
  }
  std::printf("\n# log-depth collectives vs the centralised baseline "
              "(speedup = central_us / algo_us)\n");
  std::printf("op,payload_B,localities,algo,central_us,algo_us,speedup\n");
  double log_sum = 0.0;
  std::size_t log_n = 0;
  for (const Cell& cell : cells) {
    for (const auto& [algo, us] : cell.algos) {
      const double speedup = us > 0.0 ? cell.central / us : 0.0;
      std::printf("%s,%s,%s,%s,%.1f,%.1f,%.3f\n", cell.op.c_str(),
                  cell.payload.c_str(), cell.localities.c_str(),
                  algo.c_str(), cell.central, us, speedup);
      if (speedup > 0.0 && algo != "ring" &&
          std::strtoul(cell.localities.c_str(), nullptr, 10) >= 8) {
        log_sum += std::log(speedup);
        ++log_n;
      }
    }
  }
  if (log_n > 0) {
    std::printf("geomean_tree_rd_at_8plus,,,,,,%.3f\n",
                std::exp(log_sum / static_cast<double>(log_n)));
  }
  std::fflush(stdout);
}

SuiteSpec ablation_collectives() {
  SuiteSpec s;
  s.name = "ablation_collectives";
  s.figure = "docs/collectives.md ablation";
  s.title =
      "collective algorithms: centralised root-gather vs the log-depth "
      "binomial/recursive-doubling/ring families";
  s.expectation =
      "on a message-rate-capped wire (0.02 Mpps per NIC, the only resource "
      "the fabric serialises across a root's fan-out) the centralised "
      "release phase costs (n-1) serialised sends while binomial broadcast "
      "and recursive-doubling allreduce pay only log2(n) rounds, so the "
      "log-depth algorithms win at >= 8 localities and the gap widens with "
      "n. Ring allreduce is bandwidth-optimal but round-count linear: its "
      "sub-threshold chunks dodge the rendezvous handshakes central's "
      "full-payload sends pay, but 2(n-1) gap-paced rounds erode that edge "
      "as n grows — it trails recursive doubling everywhere here and "
      "approaches parity with central by 16 localities, exactly the "
      "crossover flip the docs' alpha-beta model predicts when rounds*alpha "
      "outweighs the per-byte savings";
  s.smoke = true;
  // The wire: generous line rate (bandwidth is near-free for these payload
  // sizes), HDR-class latency, and a per-NIC message-rate cap that makes
  // root fan-out the bottleneck — the regime Yan et al. identify for
  // small-parcel AMT traffic. Payloads stay under the large-payload
  // crossover (CollTuning::large_bytes) so forced-family runs compare
  // un-pipelined algorithms.
  struct Algo {
    const char* label;
    const char* token;
  };
  const std::vector<std::uint32_t> kLocalities = {4, 8, 16};
  auto add = [&](const char* op, const Algo& algo, std::size_t payload) {
    for (const std::uint32_t n : kLocalities) {
      PointSpec p = coll_point(
          std::string("lci_psr_cq_pin_i_coll") + algo.token, op, algo.label,
          n, payload, 40);
      p.rate_bandwidth_gbps = 50.0;
      p.rate_latency_us = 5.0;
      p.rate_pkt_mpps = 0.02;
      s.points.push_back(std::move(p));
    }
  };
  for (const std::size_t payload : {std::size_t{8}, std::size_t{8192}}) {
    add("allreduce", {"central", "central"}, payload);
    add("allreduce", {"rd", "rd"}, payload);
    add("broadcast", {"central", "central"}, payload);
    add("broadcast", {"tree", "tree"}, payload);
  }
  // Ring at the larger payload only: the honest negative result this wire
  // is expected to produce (recorded, excluded from the geomean claim).
  add("allreduce", {"ring", "ring"}, 8192);
  s.probes = {{"coll_msgs", "amt/coll/msgs", ""},
              {"coll_bytes", "amt/coll/bytes", ""}};
  s.post_summary = print_collectives_speedup;
  return s;
}

SuiteSpec fft() {
  SuiteSpec s;
  s.name = "fft";
  s.figure = "docs/collectives.md workload";
  s.title =
      "distributed four-step FFT (row FFTs, all-to-all transpose, row FFTs) "
      "validated bit-exactly against a serial reference";
  s.expectation =
      "the transpose is a bandwidth-heavy all-to-all whose per-locality "
      "block shrinks as 1/n^2, so on the shaped wire the transform time is "
      "dominated by per-message cost and the auto-selected pairwise "
      "exchange tracks or beats the centralised transpose as localities "
      "grow; every run memcmp-validates the distributed result against the "
      "serial four-step reference, so any wire reordering or algorithm bug "
      "aborts the benchmark rather than skewing it";
  s.smoke = true;
  auto add = [&](const std::string& config, std::uint32_t n) {
    PointSpec p = fft_point(config, n, 64, 8);
    p.rate_bandwidth_gbps = 50.0;
    p.rate_latency_us = 5.0;
    p.rate_pkt_mpps = 0.05;
    s.points.push_back(std::move(p));
  };
  for (const std::uint32_t n : {2u, 4u, 8u}) {
    add("lci_psr_cq_pin_i", n);
    add("mpi_i", n);
    add("lci_psr_cq_pin_i_collcentral", n);
  }
  s.probes = {{"coll_msgs", "amt/coll/msgs", ""},
              {"coll_bytes", "amt/coll/bytes", ""}};
  return s;
}

void print_backend_summary(const SuiteResult& result) {
  // One row per (msg_size, metric): sim vs shm medians and their ratio.
  struct Cell {
    std::string metric;
    std::string msg_size;
    double sim = 0.0;
    double shm = 0.0;
  };
  std::vector<Cell> cells;
  for (const auto& point : result.points) {
    const auto config = point.labels.find("config");
    const auto size = point.labels.find("msg_size");
    if (config == point.labels.end() || size == point.labels.end()) continue;
    const bool shm =
        config->second.find("backendshm") != std::string::npos;
    for (const char* metric : {"rate_kps", "latency_us"}) {
      const auto* m = point.metric(metric);
      if (m == nullptr) continue;
      auto it = std::find_if(cells.begin(), cells.end(), [&](const Cell& c) {
        return c.metric == metric && c.msg_size == size->second;
      });
      if (it == cells.end()) {
        cells.push_back({metric, size->second, 0.0, 0.0});
        it = cells.end() - 1;
      }
      (shm ? it->shm : it->sim) = m->median;
    }
  }
  std::printf("\n# shm backend vs the simulator, same parcelport and "
              "traffic (ratio = shm / sim)\n");
  std::printf("metric,msg_size,sim,shm,ratio\n");
  for (const Cell& cell : cells) {
    const double ratio = cell.sim > 0.0 ? cell.shm / cell.sim : 0.0;
    std::printf("%s,%s,%.3f,%.3f,%.3f\n", cell.metric.c_str(),
                cell.msg_size.c_str(), cell.sim, cell.shm, ratio);
    if (cell.metric == "latency_us" && ratio > 3.0) {
      std::printf("# note: shm single-pair latency is %.1fx the simulator's "
                  "(target: within 3x)\n", ratio);
    }
  }
  std::fflush(stdout);
}

SuiteSpec ablation_backend() {
  SuiteSpec s;
  s.name = "ablation_backend";
  s.figure = "transport-backend ablation";
  s.title =
      "fabric backends head to head: the modelled simulator vs POSIX "
      "shared-memory rings, same parcelport and traffic";
  s.expectation =
      "the shm backend replaces the simulator's in-process delivery with "
      "real ring-buffer hand-offs and memcpy/CMA data movement, so its "
      "single-pair numbers carry genuine memory-system cost: latency should "
      "stay within a small factor (target 3x) of the zero-time simulator "
      "and the 8 B eager rate within the same order of magnitude. The "
      "payoff is not single-pair speed but scaling: shm ranks live in "
      "separate processes, so a multi-process launch (bench_ablation_backend's "
      "scaling probe, and amtnet_launch in general) can "
      "use every core instead of time-slicing all localities on one "
      "process's scheduler quantum";
  // Wall-clock measurements of the real machine (the shm rows especially):
  // recorded and compared by eye, never gated — a committed baseline from
  // one machine says nothing about another's memory system.
  s.smoke = false;
  for (const char* config :
       {"lci_psr_cq_pin_i", "lci_psr_cq_pin_i_backendshm"}) {
    for (const std::size_t size : {std::size_t{8}, std::size_t{16384}}) {
      PointSpec p = rate_point(config, size, size == 8 ? 100 : 10,
                               size == 8 ? k8bFloodMsgs : k16kFloodMsgs, 0.0);
      p.platform = "loopback";
      s.points.push_back(std::move(p));
    }
    PointSpec lat = latency_point(config, 8, 1, kLatencyStepsSized);
    lat.platform = "loopback";
    s.points.push_back(std::move(lat));
  }
  s.metric_overrides = {
      {"rate_kps", "kps", false, /*gate=*/false, 0.30},
      {"injection_kps", "kps", false, /*gate=*/false, 0.30},
      {"latency_us", "us", true, /*gate=*/false, 0.30},
  };
  s.post_summary = print_backend_summary;
  return s;
}

}  // namespace

void register_all() {
  static const bool registered = [] {
    SuiteRegistry& registry = SuiteRegistry::instance();
    registry.add(fig1());
    registry.add(fig2());
    registry.add(fig3());
    registry.add(fig4());
    registry.add(fig5());
    registry.add(fig6());
    registry.add(fig7());
    registry.add(fig8());
    registry.add(fig9());
    registry.add(fig10());
    registry.add(fig11());
    registry.add(ablation_mpi_original());
    registry.add(ablation_mpi_lock());
    registry.add(ablation_zc_threshold());
    registry.add(ablation_aggregation());
    registry.add(ablation_rails());
    registry.add(ablation_pipeline());
    registry.add(ablation_progress());
    registry.add(ablation_fastpath());
    registry.add(openloop());
    registry.add(ablation_collectives());
    registry.add(ablation_backend());
    registry.add(fft());
    return true;
  }();
  (void)registered;
}

expdriver::PointRunner make_harness_runner(const SuiteSpec& spec) {
  const std::vector<expdriver::TelemetryProbe> probes = spec.probes;
  return [probes](const PointSpec& p, const RunEnv& env) -> Sample {
    telemetry::Snapshot snapshot;
    bool have_snapshot = false;
    if (!probes.empty()) {
      const auto sink = [&](const telemetry::Snapshot& snap) {
        snapshot = snap;
        have_snapshot = true;
      };
      bench::set_snapshot_sink(sink);
      loadgen::set_snapshot_sink(sink);
    }

    Sample sample;
    const unsigned workers = p.workers != 0 ? p.workers : env.workers;
    switch (p.kind) {
      case PointKind::kRate: {
        RateParams params;
        params.parcelport = p.parcelport;
        params.msg_size = p.msg_size;
        params.batch = p.batch;
        params.total_msgs = expdriver::scaled_count(p.base_total_msgs,
                                                    env.scale);
        params.attempted_rate = p.attempted_rate;
        params.workers = workers;
        params.platform = p.platform;
        params.zero_copy_threshold = p.zero_copy_threshold;
        params.max_connections = p.max_connections;
        params.fabric_rails = p.fabric_rails;
        params.zchunk_count = p.zchunk_count;
        params.bandwidth_gbps = p.rate_bandwidth_gbps;
        params.latency_us = p.rate_latency_us;
        params.pkt_rate_mpps = p.rate_pkt_mpps;
        const RateResult result = run_message_rate(params);
        sample.push_back(
            {"injection_kps", result.achieved_injection_rate / 1e3});
        sample.push_back({"rate_kps", result.message_rate / 1e3});
        break;
      }
      case PointKind::kLatency: {
        LatencyParams params;
        params.parcelport = p.parcelport;
        params.msg_size = p.msg_size;
        params.window = p.window;
        params.steps = static_cast<unsigned>(
            expdriver::scaled_count(static_cast<std::size_t>(p.base_steps),
                                    env.scale));
        params.workers = workers;
        params.platform = p.platform;
        params.zero_copy_threshold = p.zero_copy_threshold;
        params.fabric_rails = p.fabric_rails;
        params.zchunk_count = p.zchunk_count;
        sample.push_back({"latency_us", run_latency_us(params)});
        break;
      }
      case PointKind::kOcto: {
        OctoParams params;
        params.parcelport = p.parcelport;
        params.platform = p.platform;
        params.localities = p.localities;
        params.level = p.level;
        params.steps = static_cast<int>(
            expdriver::scaled_count(static_cast<std::size_t>(p.base_steps),
                                    env.scale));
        params.workers = workers;
        sample.push_back({"steps_per_s", run_octo_steps_per_second(params)});
        break;
      }
      case PointKind::kOpenLoop: {
        loadgen::Params params;
        params.parcelport = p.parcelport;
        params.localities = p.localities;
        params.workers = workers;
        params.requests = expdriver::scaled_count(p.base_total_msgs,
                                                  env.scale);
        params.arrival.rate_rps = p.attempted_rate;
        params.arrival.seed = p.ol_seed;
        params.arrival.process = p.ol_process == "burst"
                                     ? loadgen::ArrivalConfig::Process::kBurst
                                     : loadgen::ArrivalConfig::Process::kPoisson;
        params.size_mix = loadgen::parse_size_mix(p.ol_size_mix);
        params.zero_copy_threshold = p.zero_copy_threshold;
        params.max_connections = p.max_connections;
        params.fabric_rails = p.fabric_rails;
        params.bandwidth_gbps = p.ol_bandwidth_gbps;
        params.latency_us = p.ol_latency_us;
        if (p.ol_admit_deadline_us > 0) {
          params.admit_deadline_us = p.ol_admit_deadline_us;
        }
        const loadgen::Result result = loadgen::run_open_loop(params);
        if (!result.conserved) {
          // Conservation (generated == accepted + shed, accepted ==
          // completed + deadline drops) is the subsystem's contract; a
          // violated run means lost or double-counted requests, so no
          // number it produced can be trusted.
          std::fprintf(stderr,
                       "openloop: request conservation violated "
                       "(generated=%llu accepted=%llu shed=%llu "
                       "completed=%llu deadline_drops=%llu)\n",
                       static_cast<unsigned long long>(result.generated),
                       static_cast<unsigned long long>(result.accepted),
                       static_cast<unsigned long long>(result.shed),
                       static_cast<unsigned long long>(result.completed),
                       static_cast<unsigned long long>(
                           result.deadline_drops));
          std::abort();
        }
        sample.push_back({"goodput_kps", result.goodput_kps});
        sample.push_back({"offered_kps", result.offered_kps});
        sample.push_back({"p50_us", result.p50_us});
        sample.push_back({"p99_us", result.p99_us});
        sample.push_back({"p999_us", result.p999_us});
        sample.push_back({"gen_lag_p99_us", result.gen_lag_p99_us});
        sample.push_back(
            {"peak_queue_depth",
             static_cast<double>(result.peak_queue_depth)});
        // Low 32 bits of the FNV-1a schedule hash (exact in a double):
        // identical across runs and machines under a fixed seed, so any
        // drift in the recorded results flags a reproducibility break.
        sample.push_back(
            {"schedule_hash32",
             static_cast<double>(result.schedule_hash & 0xffffffffull)});
        break;
      }
      case PointKind::kColl: {
        CollBenchParams params;
        params.parcelport = p.parcelport;
        params.platform = p.platform;
        params.localities = p.localities;
        params.workers = workers;
        params.op = p.coll_op;
        params.payload_bytes = p.msg_size;
        params.iters = static_cast<int>(
            expdriver::scaled_count(static_cast<std::size_t>(p.base_steps),
                                    env.scale));
        params.bandwidth_gbps = p.rate_bandwidth_gbps;
        params.latency_us = p.rate_latency_us;
        params.pkt_rate_mpps = p.rate_pkt_mpps;
        params.fabric_rails = p.fabric_rails;
        sample.push_back({"coll_us", run_collective_us(params)});
        break;
      }
      case PointKind::kFft: {
        FftParams params;
        params.parcelport = p.parcelport;
        params.platform = p.platform;
        params.localities = p.localities;
        params.workers = workers;
        params.dim = p.fft_dim;
        params.iters = static_cast<int>(
            expdriver::scaled_count(static_cast<std::size_t>(p.base_steps),
                                    env.scale));
        params.bandwidth_gbps = p.rate_bandwidth_gbps;
        params.latency_us = p.rate_latency_us;
        params.pkt_rate_mpps = p.rate_pkt_mpps;
        params.fabric_rails = p.fabric_rails;
        sample.push_back({"fft_ms", run_fft(params).ms_per_fft});
        break;
      }
    }

    if (!probes.empty()) {
      bench::set_snapshot_sink(nullptr);
      loadgen::set_snapshot_sink(nullptr);
      for (const auto& probe : probes) {
        sample.push_back(
            {probe.metric,
             have_snapshot ? static_cast<double>(snapshot.counter_sum(
                                 probe.prefix, probe.suffix))
                           : 0.0});
      }
    }
    return sample;
  };
}

}  // namespace bench::suites
