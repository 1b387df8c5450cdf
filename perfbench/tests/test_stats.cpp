// Self-test of the benchmark's arithmetic: percentiles, span self time and
// rung deltas. Exits non-zero on the first failed check.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "stats.hpp"
#include "trace.hpp"

namespace {

int g_failures = 0;

void check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAILED: %s\n", what);
    ++g_failures;
  }
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

void test_percentile() {
  using perfbench::percentile;
  std::vector<double> empty;
  check(percentile(empty, 0.5) == 0.0, "empty input gives 0");
  std::vector<double> one{7.0};
  check(percentile(one, 0.99) == 7.0, "single sample is every percentile");
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);  // unsorted input
  check(percentile(v, 0.5) == 50.0, "p50 of 1..100 is 50 (nearest rank)");
  check(percentile(v, 0.99) == 99.0, "p99 of 1..100 is 99");
  check(percentile(v, 1.0) == 100.0, "p100 is the maximum");
  check(percentile(v, 0.0) == 1.0, "p0 is the minimum");
  std::vector<double> odd{3, 1, 2};
  check(perfbench::median(odd) == 2.0, "median of three");
  check(perfbench::interquartile_mean(empty) == 0.0, "empty input: IQM 0");
  std::vector<double> eight{100, 1, 2, 3, 4, 5, 6, -50};
  check(near(perfbench::interquartile_mean(eight), 3.5),
        "IQM of 8 drops 2 at each end: mean(2..5)");
  check(near(perfbench::interquartile_mean(odd), 2.0), "IQM of 3 keeps all");
  const std::vector<double> values{10, 20, 30, 40, 50};
  const auto quiet = perfbench::quiet_subset(values, {0.3, 0.0, 0.1, 0.0, 0.2});
  check(quiet == std::vector<double>({20, 30, 40}),
        "quiet subset keeps sub-runs at or below the median noise");
  check(perfbench::quiet_subset(values, {0, 0, 0, 0, 0}) == values,
        "no noise keeps every sub-run");
  check(perfbench::quiet_subset(values, {0, 0}) == values,
        "mismatched shapes keep every sub-run");
  check(perfbench::samples_beyond(1000, 0.99) == 10, "1000 samples: 10 beyond p99");
  check(perfbench::samples_beyond(999, 0.99) == 9, "999 samples: 9 beyond p99");
}

void test_self_time() {
  using perfbench::Interval;
  // root [0,100] with children [10,30] and [20,50] (overlapping: 40 covered)
  // and a grandchild [12,14] under the first child.
  std::vector<Interval> spans = {
      {0, 100, -1}, {10, 30, 0}, {20, 50, 0}, {12, 14, 1}};
  const auto self = perfbench::self_times(spans);
  check(self[0] == 60, "root self = 100 - union(children) = 60");
  check(self[1] == 18, "child self = 20 - grandchild 2");
  check(self[2] == 30, "leaf self = its duration");
  check(self[3] == 2, "grandchild self = its duration");
  // A child sticking out of its parent counts only inside the parent.
  std::vector<Interval> clipped = {{0, 10, -1}, {5, 20, 0}};
  check(perfbench::self_times(clipped)[0] == 5, "child clipped to the parent");
  // Disjoint children add up.
  std::vector<Interval> disjoint = {{0, 100, -1}, {0, 10, 0}, {90, 100, 0}};
  check(perfbench::self_times(disjoint)[0] == 80, "disjoint children add");
}

void test_trace_self_time() {
  using perfbench::trace::Span;
  std::vector<Span> spans(2);
  spans[0].start = 100;
  spans[0].end = 200;
  spans[1].start = 120;
  spans[1].end = 170;
  spans[1].parent = 0;
  const auto self = perfbench::trace::self_times(spans);
  check(self[0] == 50 && self[1] == 50, "trace spans: poll minus handler");
}

void test_rung_deltas() {
  const auto deltas = perfbench::rung_deltas(
      {{"fabric", 100.0}, {"minilci", 250.0}, {"parcelport_lci", 400.0},
       {"amt", 1000.0}});
  check(deltas.size() == 4, "one delta per rung");
  check(deltas[0].first == "fabric" && near(deltas[0].second, 100.0),
        "lowest rung is its own cost");
  check(near(deltas[1].second, 150.0), "minilci = minilci - fabric");
  check(near(deltas[2].second, 150.0), "parcelport = parcelport - minilci");
  check(near(deltas[3].second, 600.0), "amt = amt - parcelport");
  double total = 0.0;
  for (const auto& d : deltas) total += d.second;
  check(near(total, 1000.0), "deltas add up to the top rung");
}

}  // namespace

int main() {
  test_percentile();
  test_self_time();
  test_trace_self_time();
  test_rung_deltas();
  if (g_failures == 0) std::puts("perfbench_selftest: all checks passed");
  return g_failures == 0 ? EXIT_SUCCESS : EXIT_FAILURE;
}
