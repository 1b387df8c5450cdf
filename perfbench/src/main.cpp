// perfbench: one rank's part of one benchmark run.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --out <dir>
//
// Untraced (--trace 0): the amt rung only, giving the end-to-end metrics.
// Traced (--trace 1): the fabric, minilci and parcelport_lci rungs with
// spans on, then the amt rung once untraced and once traced.
// Two-process workloads run one perfbench per rank under
// `amtnet_launch -n 2`. Each rank writes <dir>/rank<r>.json (metrics,
// registry counters, correctness) and, when traced, <dir>/trace_rank<r>.json
// (Chrome trace); run.py merges them and prints the result line.
#include <sched.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "rungs.hpp"
#include "stats.hpp"
#include "trace.hpp"

namespace {

using namespace perfbench;

struct Output {
  std::map<std::string, double> metrics;
  std::map<std::string, double> counters;
  std::map<std::string, std::vector<double>> series;  // per round / sub-run
  std::vector<std::string> errors;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void absorb(const RungResult& r) {
    attempted += r.attempted;
    failed += r.failed;
    errors.insert(errors.end(), r.errors.begin(), r.errors.end());
  }
};

std::string json_escape(const std::string& s) {
  std::string out;
  for (char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    if (static_cast<unsigned char>(ch) >= 0x20) out += ch;
  }
  return out;
}

void write_map(std::FILE* f, const char* key,
               const std::map<std::string, double>& values) {
  std::fprintf(f, ",\"%s\":{", key);
  const char* sep = "";
  for (const auto& [name, value] : values) {
    std::fprintf(f, "%s\"%s\":%.17g", sep, name.c_str(), value);
    sep = ",";
  }
  std::fputs("}", f);
}

void write_json(const std::string& path, int rank, const Output& o) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) fatal("cannot write " + path);
  std::fprintf(f, "{\"rank\":%d,\"attempted\":%llu,\"failed\":%llu,"
               "\"errors\":[", rank,
               static_cast<unsigned long long>(o.attempted),
               static_cast<unsigned long long>(o.failed));
  for (std::size_t i = 0; i < o.errors.size(); ++i) {
    std::fprintf(f, "%s\"%s\"", i ? "," : "", json_escape(o.errors[i]).c_str());
  }
  std::fputs("]", f);
  write_map(f, "metrics", o.metrics);
  write_map(f, "counters", o.counters);
  std::fputs(",\"series\":{", f);
  const char* sep = "";
  for (const auto& [name, values] : o.series) {
    std::fprintf(f, "%s\"%s\":[", sep, name.c_str());
    for (std::size_t i = 0; i < values.size(); ++i) {
      std::fprintf(f, "%s%.6g", i ? "," : "", values[i]);
    }
    std::fputs("]", f);
    sep = ",";
  }
  std::fputs("}", f);
  std::fputs("}\n", f);
  std::fclose(f);
}

/// Timing metrics of one rung of the ladder (the registry-derived ones are
/// composed by run.py from every rank's counters).
void rung_metrics(const RungResult& r, Output& o) {
  const std::string p = r.rung + ".";
  o.metrics[p + "ns_per_op"] = median(r.round_ns_per_op);
  o.metrics[p + "post_ns_p50"] = percentile(r.post_ns, 0.5);
  o.metrics[p + "post_ns_p99"] = percentile(r.post_ns, 0.99);
  o.metrics[p + "cpu_us_per_op"] = median(r.round_cpu_us_per_op);
  if (r.rung == "amt") return;  // progress is the runtime's own there
  // Where no benchmark-made progress call ever handles an event (the pin
  // floods' parcelport rung: the progress thread delivers), the figure is
  // the cost of the empty calls instead.
  o.metrics[p + "poll_ns_p50"] =
      percentile(r.poll_ns.empty() ? r.empty_poll_ns : r.poll_ns, 0.5);
  o.metrics[p + "poll_useful_frac"] =
      r.polls == 0 ? 0.0
                   : static_cast<double>(r.useful_polls) /
                         static_cast<double>(r.polls);
  if (r.rung == "parcelport_lci") {
    // send() absorbs kRetry internally: its backoff rounds per send.
    const auto it = r.counters.find("pplci/send_retries");
    o.metrics[p + "retry_frac"] =
        r.attempts == 0 || it == r.counters.end()
            ? 0.0
            : it->second / static_cast<double>(r.attempts);
  } else {
    o.metrics[p + "retry_frac"] =
        r.attempts == 0 ? 0.0
                        : static_cast<double>(r.retries) /
                              static_cast<double>(r.attempts);
  }
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> --out <dir>\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  std::string workload;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      workload = value;
    } else if (key == "--seed") {
      opt.seed = std::strtoull(value, nullptr, 10);
    } else if (key == "--seconds") {
      opt.seconds = std::strtod(value, nullptr);
    } else if (key == "--trace") {
      opt.trace = std::strcmp(value, "0") != 0;
    } else if (key == "--out") {
      opt.out_dir = value;
    } else {
      return usage();
    }
  }
  opt.workload = find_workload(workload);
  if (opt.workload == nullptr || opt.seconds <= 0.0) return usage();
  const Workload& w = *opt.workload;

  // Refuse oversubscription instead of reporting it.
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  const long cores = ::sched_getaffinity(0, sizeof(allowed), &allowed) == 0
                         ? CPU_COUNT(&allowed)
                         : ::sysconf(_SC_NPROCESSORS_ONLN);
  if (cores < static_cast<long>(w.threads_total())) {
    std::fprintf(stderr,
                 "perfbench: %s needs %u threads but only %ld cores are "
                 "available; refusing to report oversubscribed numbers\n",
                 w.name, w.threads_total(), cores);
    return 3;
  }
  if (w.processes == 2) {
    const char* rank = std::getenv("AMTNET_SHM_RANK");
    const char* session = std::getenv("AMTNET_SHM_SESSION");
    if (rank == nullptr || session == nullptr) {
      std::fprintf(stderr, "perfbench: %s runs under amtnet_launch -n 2\n",
                   w.name);
      return 2;
    }
    opt.rank = std::atoi(rank);
    opt.session = session;
  }

  Output out;
  std::string chrome;
  try {
    const ControlPtr control =
        map_control(w.processes == 2 ? opt.out_dir + "/control.bin" : "");
    Ctx ctx(opt, control.get());
    register_actions();
    if (!opt.trace) {
      const RungResult amt = run_amt_rung(ctx, false, chrome);
      out.absorb(amt);
      out.counters = amt.counters;
      if (ctx.is_sender()) {
        // Sub-runs during which other guests took the most CPU time from
        // the host are left out; the rest are averaged robustly. A tail
        // percentile is what host interference moves most, so rtt_p99 takes
        // the lower quartile of the quiet sub-runs instead.
        auto quiet = [&](const std::vector<double>& v) {
          return interquartile_mean(quiet_subset(v, amt.steal_s));
        };
        out.metrics["msg_rate_kps"] = quiet(amt.round_rate_kps);
        out.metrics["rtt_p50_us"] = quiet(amt.rtt_p50_ns) / 1e3;
        out.metrics["rtt_p99_us"] =
            percentile(quiet_subset(amt.rtt_p99_ns, amt.steal_s), 0.25) / 1e3;
        out.metrics["rtt_samples"] = static_cast<double>(amt.rtt_samples);
        out.metrics["cpu_us_per_op"] = quiet(amt.round_cpu_us_per_op);
        out.metrics["setup_s"] = median(amt.setup_s);
        out.series["rate_kps"] = amt.round_rate_kps;
        out.series["cpu_us_per_op"] = amt.round_cpu_us_per_op;
        out.series["rtt_p50_ns"] = amt.rtt_p50_ns;
        out.series["rtt_p99_ns"] = amt.rtt_p99_ns;
        out.series["setup_s"] = amt.setup_s;
        out.series["steal_s"] = amt.steal_s;
      }
    } else {
      trace::set_enabled(true);
      std::vector<RungResult> ladder;
      ladder.push_back(run_fabric_rung(ctx, chrome));
      ladder.push_back(run_minilci_rung(ctx, chrome));
      ladder.push_back(run_parcelport_rung(ctx, chrome));
      trace::set_enabled(false);
      const RungResult plain = run_amt_rung(ctx, false, chrome);
      ladder.push_back(run_amt_rung(ctx, true, chrome));
      out.absorb(plain);
      out.counters = plain.counters;
      std::vector<std::pair<std::string, double>> costs;
      for (const RungResult& r : ladder) {
        out.absorb(r);
        if (!ctx.is_sender()) continue;
        rung_metrics(r, out);
        costs.emplace_back(r.rung, median(r.round_ns_per_op));
      }
      const RungResult& traced = ladder.back();
      if (!traced.one_way_ns.empty()) {  // recorded where the handler ran
        out.metrics["amt.one_way_us_p50"] = percentile(traced.one_way_ns, 0.5) / 1e3;
        out.metrics["amt.one_way_us_p99"] = percentile(traced.one_way_ns, 0.99) / 1e3;
      }
      if (ctx.is_sender()) {
        for (const auto& [rung, delta] : rung_deltas(costs)) {
          out.metrics[rung + ".self_ns_per_op"] = delta;
        }
        out.metrics["stack.teardown_s"] = median(plain.teardown_s);
        const double base = median(plain.round_ns_per_op);
        out.metrics["trace.overhead_frac"] =
            (median(traced.round_ns_per_op) - base) / base;
      }
      const std::string path =
          opt.out_dir + "/trace_rank" + std::to_string(opt.rank) + ".json";
      if (std::FILE* f = std::fopen(path.c_str(), "w")) {
        const std::string doc = trace::chrome_document(chrome);
        std::fwrite(doc.data(), 1, doc.size(), f);
        std::fclose(f);
      }
    }
  } catch (const std::exception& e) {
    fatal(e.what());
  }
  write_json(opt.out_dir + "/rank" + std::to_string(opt.rank) + ".json",
             opt.rank, out);
  return out.errors.empty() ? 0 : 1;
}
