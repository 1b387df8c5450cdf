// Arithmetic shared by every rung: percentiles, span self time and the
// rung-to-rung deltas. Header-only and free of amtnet dependencies so the
// self-test can check it in isolation.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile (q in [0, 1]) of `samples`: the smallest value
/// with at least q * n samples at or below it. Returns 0 for an empty input.
inline double percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double n = static_cast<double>(samples.size());
  std::size_t rank = static_cast<std::size_t>(std::ceil(q * n));
  if (rank < 1) rank = 1;
  if (rank > samples.size()) rank = samples.size();
  return samples[rank - 1];
}

inline double median(const std::vector<double>& samples) {
  return percentile(samples, 0.5);
}

/// Interquartile mean: the mean of the middle half of `samples` (a quarter,
/// rounded down, dropped at each end). Unlike the median it moves smoothly
/// when the samples fall into two clusters; unlike the mean it ignores up to
/// a quarter of outliers at either end. Returns 0 for an empty input.
inline double interquartile_mean(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t cut = samples.size() / 4;
  double sum = 0.0;
  for (std::size_t i = cut; i < samples.size() - cut; ++i) sum += samples[i];
  return sum / static_cast<double>(samples.size() - 2 * cut);
}

/// The values of the sub-runs whose `noise` (the time other guests took
/// from the host's CPUs during that sub-run) is at most the median noise:
/// at least half of them, all of them when the noise never varies.
/// `values` and `noise` are indexed alike; any other shape returns `values`.
inline std::vector<double> quiet_subset(const std::vector<double>& values,
                                        const std::vector<double>& noise) {
  if (values.size() != noise.size() || values.empty()) return values;
  const double limit = median(noise);
  std::vector<double> quiet;
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (noise[i] <= limit) quiet.push_back(values[i]);
  }
  return quiet;
}

/// Number of samples strictly above the q-percentile's rank; a percentile is
/// reported only when at least ten samples lie beyond it.
inline std::size_t samples_beyond(std::size_t n, double q) {
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  return n > rank ? n - rank : 0;
}

/// One closed interval of a span tree: [start, end] with the index of its
/// parent span in the same vector (-1 for a root).
struct Interval {
  std::int64_t start = 0;
  std::int64_t end = 0;
  std::int64_t parent = -1;
};

/// Self time of every span: its duration minus the part of its interval that
/// its direct children cover (overlapping children count once; child time
/// outside the parent's interval does not count).
inline std::vector<std::int64_t> self_times(const std::vector<Interval>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans.size());
  for (const Interval& span : spans) {
    if (span.parent < 0 ||
        static_cast<std::size_t>(span.parent) >= spans.size()) {
      continue;
    }
    const Interval& parent = spans[static_cast<std::size_t>(span.parent)];
    const std::int64_t lo = std::max(span.start, parent.start);
    const std::int64_t hi = std::min(span.end, parent.end);
    if (hi > lo) {
      children[static_cast<std::size_t>(span.parent)].emplace_back(lo, hi);
    }
  }
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& cover = children[i];
    std::sort(cover.begin(), cover.end());
    std::int64_t covered = 0;
    std::int64_t run_lo = 0;
    std::int64_t run_hi = 0;
    bool open = false;
    for (const auto& [lo, hi] : cover) {
      if (open && lo <= run_hi) {
        run_hi = std::max(run_hi, hi);
        continue;
      }
      if (open) covered += run_hi - run_lo;
      run_lo = lo;
      run_hi = hi;
      open = true;
    }
    if (open) covered += run_hi - run_lo;
    self[i] = (spans[i].end - spans[i].start) - covered;
  }
  return self;
}

/// Per-rung cost from the ladder: the lowest rung's value is its own cost,
/// every higher rung's is its value minus the rung directly below it.
/// `ladder` is ordered bottom (fabric) to top (amt).
inline std::vector<std::pair<std::string, double>> rung_deltas(
    const std::vector<std::pair<std::string, double>>& ladder) {
  std::vector<std::pair<std::string, double>> deltas;
  deltas.reserve(ladder.size());
  for (std::size_t i = 0; i < ladder.size(); ++i) {
    const double below = i == 0 ? 0.0 : ladder[i - 1].second;
    deltas.emplace_back(ladder[i].first, ladder[i].second - below);
  }
  return deltas;
}

}  // namespace perfbench
