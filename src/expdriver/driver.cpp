#include "expdriver/driver.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>

#include "common/config.hpp"

namespace expdriver {

std::size_t scaled_count(std::size_t base, double scale) {
  const double scaled = static_cast<double>(base) * scale;
  if (scaled <= 1.0) return 1;
  return static_cast<std::size_t>(std::llround(scaled));
}

namespace {

MetricResult summarize(std::vector<double> samples) {
  MetricResult result;
  if (samples.empty()) return result;
  for (double s : samples) result.mean += s;
  result.mean /= static_cast<double>(samples.size());
  double var = 0.0;
  for (double s : samples) var += (s - result.mean) * (s - result.mean);
  result.stddev = std::sqrt(var / static_cast<double>(samples.size()));
  std::vector<double> sorted = samples;
  std::sort(sorted.begin(), sorted.end());
  const std::size_t n = sorted.size();
  result.median = n % 2 == 1 ? sorted[n / 2]
                             : 0.5 * (sorted[n / 2 - 1] + sorted[n / 2]);
  result.samples = std::move(samples);
  return result;
}

void print_group_header(const PointResult& point) {
  std::string header;
  for (const auto& [key, value] : point.labels) {
    header += key;
    header += ',';
  }
  for (const auto& [name, metric] : point.metrics) {
    header += name;
    header += ',';
    header += name;
    header += "_stddev,";
  }
  if (!header.empty()) header.pop_back();
  std::printf("%s\n", header.c_str());
}

void print_row(const PointResult& point) {
  std::string row;
  char buf[64];
  for (const auto& [key, value] : point.labels) {
    row += value;
    row += ',';
  }
  for (const auto& [name, metric] : point.metrics) {
    std::snprintf(buf, sizeof(buf), "%.3f,%.3f,", metric.median,
                  metric.stddev);
    row += buf;
  }
  if (!row.empty()) row.pop_back();
  std::printf("%s\n", row.c_str());
  std::fflush(stdout);
}

}  // namespace

SuiteResult run_suite(const SuiteSpec& spec, const RunEnv& env,
                      const PointRunner& runner,
                      const DriveOptions& options) {
  SuiteResult result;
  result.suite = spec.name;
  result.figure = spec.figure;
  // Stamp backend identity so shm results can never pass for sim baselines
  // (the comparator refuses cross-backend gating). The env knobs are how
  // amtnet_launch configures ranks, so they are authoritative here.
  if (const char* backend = std::getenv("AMTNET_BACKEND");
      backend != nullptr && *backend != '\0') {
    result.backend = backend;
  }
  result.local_rank = static_cast<int>(common::env_int(
      "AMTNET_SHM_RANK", result.local_rank, -1,
      std::numeric_limits<int>::max()));
  result.env = env;
  result.points.reserve(spec.points.size());

  PointKind group_kind = PointKind::kRate;
  bool group_open = false;
  for (const PointSpec& point : spec.points) {
    for (int i = 0; i < env.warmup; ++i) {
      (void)runner(point, env);
    }
    // metric name -> samples, preserving the runner's emission order.
    std::vector<std::pair<std::string, std::vector<double>>> samples;
    for (int rep = 0; rep < env.repetitions; ++rep) {
      const Sample sample = runner(point, env);
      for (const auto& [name, value] : sample) {
        auto it = std::find_if(samples.begin(), samples.end(),
                               [&](const auto& s) { return s.first == name; });
        if (it == samples.end()) {
          samples.push_back({name, {value}});
        } else {
          it->second.push_back(value);
        }
      }
    }

    PointResult point_result;
    point_result.labels = point.labels;
    point_result.labels["kind"] = point_kind_name(point.kind);
    for (auto& [name, metric_samples] : samples) {
      point_result.metrics.emplace_back(name,
                                        summarize(std::move(metric_samples)));
    }

    if (options.print_csv) {
      if (!group_open || group_kind != point.kind) {
        if (group_open) std::printf("\n");
        print_group_header(point_result);
        group_kind = point.kind;
        group_open = true;
      }
      print_row(point_result);
    }
    result.points.push_back(std::move(point_result));
  }

  if (spec.post_summary) spec.post_summary(result);
  return result;
}

}  // namespace expdriver
