// Tests for the experiment driver (src/expdriver/) and its binding to the
// bench suite registry (bench/suites.cpp):
//   * every registered suite has a unique name that `bench_suite --run`
//     can select and that makes a valid results file name,
//   * the schema-versioned results JSON round-trips byte-for-byte,
//   * the baseline comparator flags real regressions and tolerates noise,
//     in the right direction per metric,
//   * the docs renderer is idempotent (byte-identical on unchanged input),
//   * the driver applies the uniform warmup/median-of-N policy,
//   * the knob registry's environment rows match the AMTNET_* variables
//     read in the tree, both ways (docs/tuning.md cannot silently go stale),
//   * every suite's config name is canonical (name() round-trips it).
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "amt/parcelport.hpp"
#include "common/config.hpp"
#include "expdriver/compare.hpp"
#include "expdriver/driver.hpp"
#include "expdriver/json.hpp"
#include "expdriver/registry.hpp"
#include "expdriver/render.hpp"
#include "expdriver/results.hpp"
#include "suites.hpp"

namespace {

using expdriver::CompareOptions;
using expdriver::CompareReport;
using expdriver::Json;
using expdriver::Labels;
using expdriver::MetricSpec;
using expdriver::PointKind;
using expdriver::PointSpec;
using expdriver::RunEnv;
using expdriver::Sample;
using expdriver::SuiteRegistry;
using expdriver::SuiteResult;
using expdriver::SuiteSpec;

std::string read_all(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

// ---- suite registry --------------------------------------------------------

// `bench_suite --run <name>` is the only way to run a suite, and each suite
// writes BENCH_<name>.json: every name must be unique, usable as a file-name
// stem, and distinct from the CLI's "all" / "smoke" selectors.
TEST(SuiteRegistry, NamesAreUnique) {
  bench::suites::register_all();
  std::set<std::string> names;
  for (const SuiteSpec* spec : SuiteRegistry::instance().all()) {
    EXPECT_TRUE(names.insert(spec->name).second)
        << "duplicate suite " << spec->name;
    EXPECT_EQ(SuiteRegistry::instance().find(spec->name), spec);
    ASSERT_FALSE(spec->name.empty());
    EXPECT_TRUE(std::all_of(spec->name.begin(), spec->name.end(), [](char c) {
      return std::islower(static_cast<unsigned char>(c)) ||
             std::isdigit(static_cast<unsigned char>(c)) || c == '_';
    })) << "suite name '" << spec->name << "' is not a file-name stem";
    EXPECT_NE(spec->name, "all");
    EXPECT_NE(spec->name, "smoke");
  }
}

// Baselines and results are keyed on config names, so every suite name must
// be the canonical spelling ParcelportConfig::name() prints back.
TEST(SuiteRegistry, ConfigNamesRoundTrip) {
  bench::suites::register_all();
  for (const SuiteSpec* spec : SuiteRegistry::instance().all()) {
    for (const PointSpec& point : spec->points) {
      if (point.parcelport.empty()) continue;
      EXPECT_EQ(amt::ParcelportConfig::parse(point.parcelport).name(),
                point.parcelport)
          << spec->name;
    }
  }
}

TEST(SuiteRegistry, PointLabelsAreUniqueWithinEachSuite) {
  bench::suites::register_all();
  for (const SuiteSpec* spec : SuiteRegistry::instance().all()) {
    std::set<std::string> seen;
    for (const PointSpec& point : spec->points) {
      std::string key = expdriver::point_kind_name(point.kind);
      for (const auto& [k, v] : point.labels) key += "|" + k + "=" + v;
      EXPECT_TRUE(seen.insert(key).second)
          << spec->name << ": duplicate point identity " << key;
    }
  }
}

TEST(SuiteRegistry, SmokeSubsetIsNonEmptyAndRegistered) {
  bench::suites::register_all();
  const auto smoke = SuiteRegistry::instance().smoke();
  ASSERT_FALSE(smoke.empty());
  for (const SuiteSpec* spec : smoke) {
    EXPECT_NE(SuiteRegistry::instance().find(spec->name), nullptr);
  }
}

TEST(SuiteRegistry, FindUnknownReturnsNull) {
  bench::suites::register_all();
  EXPECT_EQ(SuiteRegistry::instance().find("no_such_suite"), nullptr);
}

// ---- driver policy --------------------------------------------------------

SuiteSpec stub_suite() {
  SuiteSpec spec;
  spec.name = "stub";
  spec.figure = "Figure 0";
  spec.title = "stub";
  PointSpec a;
  a.kind = PointKind::kRate;
  a.labels = {{"config", "a"}};
  PointSpec b;
  b.kind = PointKind::kRate;
  b.labels = {{"config", "b"}};
  spec.points = {a, b};
  return spec;
}

TEST(Driver, WarmupRunsAreDiscardedAndMedianIsComputed) {
  const SuiteSpec spec = stub_suite();
  RunEnv env;
  env.repetitions = 3;
  env.warmup = 2;
  int calls = 0;
  // Values per call: 100, 200, ... The two warmup calls per point must not
  // contaminate the samples.
  const auto runner = [&calls](const PointSpec&, const RunEnv&) -> Sample {
    ++calls;
    return {{"rate_kps", 100.0 * calls}};
  };
  expdriver::DriveOptions options;
  options.print_csv = false;
  const SuiteResult result =
      expdriver::run_suite(spec, env, runner, options);
  EXPECT_EQ(calls, 2 * (2 + 3));
  ASSERT_EQ(result.points.size(), 2u);
  const auto* metric = result.points[0].metric("rate_kps");
  ASSERT_NE(metric, nullptr);
  // Point 0: calls 1,2 are warmup; samples are 300,400,500 -> median 400.
  EXPECT_DOUBLE_EQ(metric->median, 400.0);
  EXPECT_DOUBLE_EQ(metric->mean, 400.0);
  ASSERT_EQ(metric->samples.size(), 3u);
  // The driver stamps every point with its benchmark shape.
  EXPECT_EQ(result.points[0].labels.at("kind"), "rate");
}

TEST(Driver, EvenSampleCountMedianAveragesTheMiddlePair) {
  const SuiteSpec spec = stub_suite();
  RunEnv env;
  env.repetitions = 4;
  env.warmup = 0;
  int calls = 0;
  const double values[] = {10.0, 40.0, 20.0, 30.0};
  const auto runner = [&](const PointSpec&, const RunEnv&) -> Sample {
    return {{"rate_kps", values[calls++ % 4]}};
  };
  expdriver::DriveOptions options;
  options.print_csv = false;
  const SuiteResult result =
      expdriver::run_suite(spec, env, runner, options);
  EXPECT_DOUBLE_EQ(result.points[0].metric("rate_kps")->median, 25.0);
}

TEST(Driver, ScaledCountClampsToOne) {
  EXPECT_EQ(expdriver::scaled_count(6000, 1.0), 6000u);
  EXPECT_EQ(expdriver::scaled_count(6000, 0.5), 3000u);
  EXPECT_EQ(expdriver::scaled_count(2, 0.01), 1u);   // would round to 0
  EXPECT_EQ(expdriver::scaled_count(0, 1.0), 1u);    // degenerate base
}

// ---- metric gate policy ---------------------------------------------------

TEST(MetricPolicy, PerKindDefaultsAndOverrides) {
  SuiteSpec spec = stub_suite();
  const MetricSpec rate = expdriver::metric_spec_for(spec, "rate_kps");
  EXPECT_FALSE(rate.lower_is_better);
  EXPECT_TRUE(rate.gate);
  const MetricSpec latency = expdriver::metric_spec_for(spec, "latency_us");
  EXPECT_TRUE(latency.lower_is_better);
  EXPECT_TRUE(latency.gate);
  const MetricSpec injection =
      expdriver::metric_spec_for(spec, "injection_kps");
  EXPECT_FALSE(injection.gate);
  // Unknown (telemetry-probe) metrics are recorded but never gated.
  const MetricSpec probe = expdriver::metric_spec_for(spec, "send_retries");
  EXPECT_FALSE(probe.gate);

  MetricSpec tighter;
  tighter.name = "rate_kps";
  tighter.rel_tolerance = 0.05;
  spec.metric_overrides = {tighter};
  EXPECT_DOUBLE_EQ(expdriver::metric_spec_for(spec, "rate_kps").rel_tolerance,
                   0.05);
}

// ---- results JSON ---------------------------------------------------------

SuiteResult sample_result() {
  const SuiteSpec spec = stub_suite();
  RunEnv env;
  env.scale = 0.25;
  env.repetitions = 3;
  env.warmup = 1;
  env.workers = 2;
  int calls = 0;
  const auto runner = [&calls](const PointSpec&, const RunEnv&) -> Sample {
    ++calls;
    return {{"rate_kps", 123.456789 + calls}, {"injection_kps", 7.0 / 3.0}};
  };
  expdriver::DriveOptions options;
  options.print_csv = false;
  return expdriver::run_suite(spec, env, runner, options);
}

TEST(Results, JsonRoundTripsByteForByte) {
  const SuiteResult result = sample_result();
  const std::string text = expdriver::results_to_json(result);
  const auto parsed = expdriver::results_from_json(text);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->schema, expdriver::kResultSchema);
  EXPECT_EQ(parsed->suite, "stub");
  ASSERT_EQ(parsed->points.size(), result.points.size());
  EXPECT_EQ(expdriver::results_to_json(*parsed), text);
}

TEST(Results, UnknownSchemaIsRejected) {
  const SuiteResult result = sample_result();
  std::string text = expdriver::results_to_json(result);
  const std::string from = expdriver::kResultSchema;
  text.replace(text.find(from), from.size(), "amtnet-bench-v999");
  EXPECT_FALSE(expdriver::results_from_json(text).has_value());
  EXPECT_FALSE(expdriver::results_from_json("not json").has_value());
  EXPECT_FALSE(expdriver::results_from_json("{}").has_value());
}

TEST(Results, FileNameIsCanonical) {
  EXPECT_EQ(expdriver::results_file_name("fig1_msgrate_8b"),
            "BENCH_fig1_msgrate_8b.json");
}

TEST(Json, ParseDumpRoundTrip) {
  const std::string text =
      R"({"a":[1,2.5,-3],"b":{"nested":"va\"lue"},"c":true,"d":null})";
  const auto parsed = Json::parse(text);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->dump(), text);
  EXPECT_FALSE(Json::parse("{\"a\":}").has_value());
  EXPECT_FALSE(Json::parse("[1,2,]").has_value());
  EXPECT_FALSE(Json::parse("[1] trailing").has_value());
}

// ---- comparator -----------------------------------------------------------

SuiteResult result_with(const std::string& metric, double median,
                        bool latency_kind = false) {
  SuiteResult result;
  result.suite = "stub";
  result.figure = "Figure 0";
  expdriver::PointResult point;
  point.labels = {{"config", "a"},
                  {"kind", latency_kind ? "latency" : "rate"}};
  expdriver::MetricResult value;
  value.median = median;
  value.mean = median;
  value.samples = {median};
  point.metrics.emplace_back(metric, value);
  result.points.push_back(point);
  return result;
}

TEST(Compare, FlagsThirtyPercentRateDrop) {
  const SuiteResult baseline = result_with("rate_kps", 100.0);
  const SuiteResult regressed = result_with("rate_kps", 65.0);
  const CompareReport report =
      expdriver::compare_results(nullptr, baseline, regressed);
  EXPECT_TRUE(report.failed());
  ASSERT_FALSE(report.regressions.empty());
  EXPECT_NE(report.regressions[0].find("rate_kps"), std::string::npos);
}

TEST(Compare, PassesWithinToleranceJitter) {
  const SuiteResult baseline = result_with("rate_kps", 100.0);
  const CompareReport worse =
      expdriver::compare_results(nullptr, baseline, result_with("rate_kps", 97.0));
  EXPECT_FALSE(worse.failed());
  const CompareReport better =
      expdriver::compare_results(nullptr, baseline, result_with("rate_kps", 103.0));
  EXPECT_FALSE(better.failed());
}

TEST(Compare, DirectionAwareForLatency) {
  const SuiteResult baseline = result_with("latency_us", 100.0, true);
  // Latency *increase* beyond tolerance regresses...
  EXPECT_TRUE(expdriver::compare_results(
                  nullptr, baseline, result_with("latency_us", 140.0, true))
                  .failed());
  // ...a large *decrease* is an improvement note, never a failure.
  const CompareReport faster = expdriver::compare_results(
      nullptr, baseline, result_with("latency_us", 50.0, true));
  EXPECT_FALSE(faster.failed());
  EXPECT_FALSE(faster.notes.empty());
}

TEST(Compare, ToleranceScaleWidensTheBand) {
  const SuiteResult baseline = result_with("rate_kps", 100.0);
  const SuiteResult regressed = result_with("rate_kps", 55.0);
  EXPECT_TRUE(
      expdriver::compare_results(nullptr, baseline, regressed).failed());
  CompareOptions wide;
  wide.tolerance_scale = 2.0;  // 30% band -> 60%
  EXPECT_FALSE(
      expdriver::compare_results(nullptr, baseline, regressed, wide).failed());
}

TEST(Compare, MissingPointAndMissingMetricAreRegressions) {
  const SuiteResult baseline = result_with("rate_kps", 100.0);
  SuiteResult empty;
  empty.suite = "stub";
  EXPECT_TRUE(expdriver::compare_results(nullptr, baseline, empty).failed());

  SuiteResult no_metric = result_with("other_metric", 5.0);
  EXPECT_TRUE(
      expdriver::compare_results(nullptr, baseline, no_metric).failed());
}

TEST(Compare, UngatedMetricsNeverFail) {
  const SuiteResult baseline = result_with("injection_kps", 100.0);
  const SuiteResult regressed = result_with("injection_kps", 10.0);
  EXPECT_FALSE(
      expdriver::compare_results(nullptr, baseline, regressed).failed());
}

TEST(Compare, EnvironmentMismatchIsAHardFailure) {
  const SuiteResult baseline = result_with("rate_kps", 100.0);
  SuiteResult other = result_with("rate_kps", 100.0);
  other.env.scale = 0.5;
  EXPECT_TRUE(expdriver::compare_results(nullptr, baseline, other).failed());
  SuiteResult other_suite = result_with("rate_kps", 100.0);
  other_suite.suite = "different";
  EXPECT_TRUE(
      expdriver::compare_results(nullptr, baseline, other_suite).failed());
}

// ---- docs renderer --------------------------------------------------------

TEST(Render, FiguresMdIsDeterministicAndIdempotent) {
  bench::suites::register_all();
  const auto suites = SuiteRegistry::instance().all();
  expdriver::ResultsBySuite results;
  SuiteResult r = sample_result();
  r.suite = suites[0]->name;
  results.emplace(r.suite, r);

  const std::string once = expdriver::render_figures_md(suites, results);
  const std::string twice = expdriver::render_figures_md(suites, results);
  EXPECT_EQ(once, twice);
  // Rendering from the *parsed* serialization must also be identical —
  // otherwise `--render` after `--run` vs after a fresh checkout differ.
  const auto reparsed =
      expdriver::results_from_json(expdriver::results_to_json(r));
  ASSERT_TRUE(reparsed.has_value());
  expdriver::ResultsBySuite results2;
  results2.emplace(reparsed->suite, *reparsed);
  EXPECT_EQ(expdriver::render_figures_md(suites, results2), once);
  // Every suite appears in the map table.
  for (const SuiteSpec* spec : suites) {
    EXPECT_NE(once.find(spec->name), std::string::npos) << spec->name;
  }
}

TEST(Render, ReplaceBetweenKeepsMarkersAndRejectsMissingOnes) {
  const std::string content = "head\nBEGIN\nold\nEND\ntail\n";
  const auto replaced =
      expdriver::replace_between(content, "BEGIN", "END", "new\n");
  ASSERT_TRUE(replaced.has_value());
  EXPECT_EQ(*replaced, "head\nBEGIN\nnew\nEND\ntail\n");
  // Idempotent: replacing again with the same payload changes nothing.
  EXPECT_EQ(expdriver::replace_between(*replaced, "BEGIN", "END", "new\n"),
            *replaced);
  EXPECT_FALSE(
      expdriver::replace_between(content, "MISSING", "END", "x").has_value());
  EXPECT_FALSE(
      expdriver::replace_between(content, "END", "BEGIN", "x").has_value());
}

TEST(Render, CommittedDocsCarryTheMarkers) {
  const std::string root = AMTNET_REPO_ROOT;
  const std::string experiments = read_all(root + "/EXPERIMENTS.md");
  EXPECT_NE(experiments.find(expdriver::kExperimentsBegin),
            std::string::npos);
  EXPECT_NE(experiments.find(expdriver::kExperimentsEnd), std::string::npos);
  const std::string tuning = read_all(root + "/docs/tuning.md");
  EXPECT_NE(tuning.find(expdriver::kKnobsBegin), std::string::npos);
  EXPECT_NE(tuning.find(expdriver::kKnobsEnd), std::string::npos);
}

// ---- knob registry vs the tree --------------------------------------------

// Two-way: every AMTNET_* variable the tree reads has a kEnv row, and every
// kEnv row is read somewhere — a deleted read whose row lingers fails too.
TEST(KnobRegistry, EnvironmentRowsMatchTheReadsInTheTree) {
  std::set<std::string> known;
  for (const common::Knob& knob : common::knob_registry()) {
    if (knob.kind == common::Knob::Kind::kEnv) known.insert(knob.name);
  }
  EXPECT_EQ(known.size(), 17u);

  // Scan every source file for getenv / env_int calls whose first argument
  // is an AMTNET_ string literal.
  std::set<std::string> used;
  const std::string root = AMTNET_REPO_ROOT;
  for (const char* dir : {"/src", "/bench", "/tools", "/tests",
                          "/perfbench/src"}) {
    const std::string base = root + dir;
    if (!std::filesystem::exists(base)) continue;
    for (const auto& entry :
         std::filesystem::recursive_directory_iterator(base)) {
      const std::string ext = entry.path().extension().string();
      if (ext != ".cpp" && ext != ".hpp") continue;
      const std::string text = read_all(entry.path().string());
      for (const std::string reader : {"getenv(", "env_int("}) {
        for (std::size_t pos = text.find(reader); pos != std::string::npos;
             pos = text.find(reader, pos + 1)) {
          // The literal may sit on the next line after a wrapped call.
          std::size_t begin = text.find_first_not_of(" \t\r\n",
                                                     pos + reader.size());
          if (begin == std::string::npos ||
              text.compare(begin, 8, "\"AMTNET_") != 0) {
            continue;
          }
          ++begin;
          const std::size_t end = text.find('"', begin);
          if (end != std::string::npos) {
            used.insert(text.substr(begin, end - begin));
          }
        }
      }
    }
  }
  const auto joined = [](const std::vector<std::string>& names) {
    std::string out;
    for (const auto& name : names) out += name + " ";
    return out;
  };
  std::vector<std::string> unregistered;
  for (const std::string& name : used) {
    if (known.count(name) == 0) unregistered.push_back(name);
  }
  EXPECT_TRUE(unregistered.empty())
      << "environment variables read in the tree but absent from "
         "common::knob_registry() (docs/tuning.md would go stale): "
      << joined(unregistered);
  std::vector<std::string> unread;
  for (const std::string& name : known) {
    if (used.count(name) == 0) unread.push_back(name);
  }
  EXPECT_TRUE(unread.empty())
      << "kEnv rows that nothing in the tree reads (delete the row): "
      << joined(unread);
}

TEST(KnobRegistry, NamesAreUniqueAndDescribed) {
  std::set<std::string> seen;
  for (const common::Knob& knob : common::knob_registry()) {
    EXPECT_TRUE(seen.insert(knob.name).second)
        << "duplicate knob " << knob.name;
    EXPECT_FALSE(knob.description.empty()) << knob.name;
  }
}

}  // namespace
