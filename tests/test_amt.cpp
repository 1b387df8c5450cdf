// Tests for the AMT runtime: serialization (incl. zero-copy thresholds and
// the transmission chunk), scheduler, futures/continuations/latches, the
// typed action layer over the loopback parcelport, parcel aggregation, the
// connection cache, and the send-immediate path.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <numeric>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "amt/loopback_parcelport.hpp"
#include "amt/runtime.hpp"
#include "amt/serialization.hpp"
#include "amt/wire_header.hpp"
#include "test_util.hpp"

using amt::ConnectionCache;
using amt::Future;
using amt::InMessage;
using amt::InputArchive;
using amt::Latch;
using amt::Locality;
using amt::OutMessage;
using amt::OutputArchive;
using amt::Promise;
using amt::Runtime;
using amt::RuntimeConfig;
using amt::Scheduler;

// ---------------- serialization ----------------

namespace {

InMessage to_inmessage(OutMessage&& out, amt::Rank source = 0) {
  InMessage in;
  in.source = source;
  in.main_chunk = std::move(out.main_chunk);
  for (const auto& chunk : out.zchunks) {
    in.zchunks.emplace_back(chunk.data, chunk.data + chunk.size);
  }
  return in;
}

}  // namespace

TEST(Serialization, ScalarsRoundTrip) {
  OutputArchive out;
  out << 42 << 3.5 << std::uint8_t{7} << std::int64_t{-9};
  const auto msg = to_inmessage(out.finish());
  InputArchive in(msg);
  int a = 0;
  double b = 0;
  std::uint8_t c = 0;
  std::int64_t d = 0;
  in >> a >> b >> c >> d;
  EXPECT_EQ(a, 42);
  EXPECT_DOUBLE_EQ(b, 3.5);
  EXPECT_EQ(c, 7);
  EXPECT_EQ(d, -9);
  EXPECT_TRUE(in.exhausted());
}

TEST(Serialization, StringsRoundTrip) {
  OutputArchive out;
  out << std::string("hello") << std::string("") << std::string("worlds");
  const auto msg = to_inmessage(out.finish());
  InputArchive in(msg);
  std::string a, b, c;
  in >> a >> b >> c;
  EXPECT_EQ(a, "hello");
  EXPECT_EQ(b, "");
  EXPECT_EQ(c, "worlds");
}

TEST(Serialization, SmallVectorStaysInline) {
  OutputArchive out(/*zero_copy_threshold=*/64);
  std::vector<std::uint32_t> v(8);
  std::iota(v.begin(), v.end(), 0u);  // 32 bytes < 64
  out << v;
  EXPECT_EQ(out.num_zchunks(), 0u);
  const auto msg = to_inmessage(out.finish());
  InputArchive in(msg);
  std::vector<std::uint32_t> got;
  in >> got;
  EXPECT_EQ(got, v);
}

TEST(Serialization, LargeVectorBecomesZeroCopyChunk) {
  OutputArchive out(/*zero_copy_threshold=*/64);
  std::vector<std::uint32_t> v(100);
  std::iota(v.begin(), v.end(), 5u);  // 400 bytes > 64
  out << v;
  EXPECT_EQ(out.num_zchunks(), 1u);
  const auto msg = to_inmessage(out.finish());
  ASSERT_EQ(msg.zchunks.size(), 1u);
  EXPECT_EQ(msg.zchunks[0].size(), 400u);
  InputArchive in(msg);
  std::vector<std::uint32_t> got;
  in >> got;
  EXPECT_EQ(got, v);
}

TEST(Serialization, ThresholdBoundaryIsExclusive) {
  // Exactly threshold bytes stays inline; threshold+1 goes zero-copy.
  OutputArchive out(/*zero_copy_threshold=*/16);
  std::vector<std::uint8_t> at(16), over(17);
  out << at << over;
  EXPECT_EQ(out.num_zchunks(), 1u);
}

TEST(Serialization, RvalueVectorMovesIntoKeepalive) {
  OutputArchive out(/*zero_copy_threshold=*/8);
  std::vector<double> v(100, 1.5);
  const double* storage = v.data();
  out << std::move(v);
  auto msg = out.finish();
  ASSERT_EQ(msg.zchunks.size(), 1u);
  // Zero-copy: the chunk points at the original storage.
  EXPECT_EQ(static_cast<const void*>(msg.zchunks[0].data),
            static_cast<const void*>(storage));
}

TEST(Serialization, MixedPayloadWithMultipleChunks) {
  OutputArchive out(/*zero_copy_threshold=*/32);
  std::vector<float> big1(64, 2.0f);
  std::vector<float> big2(64, 3.0f);
  std::vector<float> small(2, 4.0f);
  out << 7 << big1 << std::string("mid") << small << big2;
  EXPECT_EQ(out.num_zchunks(), 2u);
  const auto msg = to_inmessage(out.finish());
  InputArchive in(msg);
  int x;
  std::vector<float> a, b, c;
  std::string s;
  in >> x >> a >> s >> b >> c;
  EXPECT_EQ(x, 7);
  EXPECT_EQ(a, big1);
  EXPECT_EQ(s, "mid");
  EXPECT_EQ(b, small);
  EXPECT_EQ(c, big2);
}

TEST(Serialization, NestedContainers) {
  OutputArchive out;
  std::vector<std::string> names{"a", "bb", "ccc"};
  std::vector<std::vector<int>> nested{{1, 2}, {}, {3}};
  out << names << nested;
  const auto msg = to_inmessage(out.finish());
  InputArchive in(msg);
  std::vector<std::string> got_names;
  std::vector<std::vector<int>> got_nested;
  in >> got_names >> got_nested;
  EXPECT_EQ(got_names, names);
  EXPECT_EQ(got_nested, nested);
}

TEST(Serialization, TransmissionChunkEncodesSizes) {
  OutputArchive out(/*zero_copy_threshold=*/8);
  out << std::vector<std::uint8_t>(100) << std::vector<std::uint8_t>(200);
  const auto msg = out.finish();
  const auto tchunk = msg.make_tchunk();
  const auto sizes = amt::parse_tchunk(tchunk.data(), tchunk.size());
  ASSERT_EQ(sizes.size(), 2u);
  EXPECT_EQ(sizes[0], 100u);
  EXPECT_EQ(sizes[1], 200u);
}

TEST(Serialization, OptionalRoundTrip) {
  OutputArchive out;
  std::optional<std::string> some("abc"), none;
  out << some << none;
  const auto msg = to_inmessage(out.finish());
  InputArchive in(msg);
  std::optional<std::string> a, b("junk");
  in >> a >> b;
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(*a, "abc");
  EXPECT_FALSE(b.has_value());
}

TEST(Serialization, MapsRoundTrip) {
  OutputArchive out;
  std::map<std::string, int> ordered{{"a", 1}, {"b", 2}};
  std::unordered_map<int, std::vector<int>> unordered{{1, {2, 3}}, {4, {}}};
  out << ordered << unordered;
  const auto msg = to_inmessage(out.finish());
  InputArchive in(msg);
  std::map<std::string, int> got_ordered;
  std::unordered_map<int, std::vector<int>> got_unordered;
  in >> got_ordered >> got_unordered;
  EXPECT_EQ(got_ordered, ordered);
  EXPECT_EQ(got_unordered, unordered);
  EXPECT_TRUE(in.exhausted());
}

// ---------------- scheduler ----------------

TEST(SchedulerTest, ExecutesSpawnedTasks) {
  Scheduler scheduler(2, "t");
  scheduler.start();
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    scheduler.spawn([&] { count.fetch_add(1); });
  }
  ASSERT_TRUE(testutil::spin_until([&] { return count.load() == 100; }));
  scheduler.stop();
}

TEST(SchedulerTest, TasksSpawnTasks) {
  Scheduler scheduler(2, "t");
  scheduler.start();
  std::atomic<int> count{0};
  scheduler.spawn([&] {
    for (int i = 0; i < 50; ++i) {
      scheduler.spawn([&] { count.fetch_add(1); });
    }
  });
  ASSERT_TRUE(testutil::spin_until([&] { return count.load() == 50; }));
  scheduler.stop();
}

TEST(SchedulerTest, BackgroundHookRunsWhenIdle) {
  Scheduler scheduler(1, "t");
  std::atomic<int> background_calls{0};
  scheduler.set_background([&](unsigned) {
    background_calls.fetch_add(1);
    return false;
  });
  scheduler.start();
  ASSERT_TRUE(
      testutil::spin_until([&] { return background_calls.load() > 10; }));
  scheduler.stop();
}

TEST(SchedulerTest, WaitUntilHelpsExecuteTasks) {
  Scheduler scheduler(1, "t");
  scheduler.start();
  std::atomic<bool> flag{false};
  Latch done(1);
  scheduler.spawn([&] {
    // This task waits for a later task: wait_until must run it nested.
    scheduler.spawn([&] { flag.store(true); });
    scheduler.wait_until([&] { return flag.load(); });
    done.count_down();
  });
  done.wait(scheduler);
  EXPECT_TRUE(flag.load());
  scheduler.stop();
}

TEST(SchedulerTest, StealingBalancesAcrossWorkers) {
  Scheduler scheduler(4, "t");
  scheduler.start();
  std::atomic<int> count{0};
  Latch latch(1);
  // One task fans out 200 subtasks from a single worker queue; the others
  // must steal to finish quickly.
  scheduler.spawn([&] {
    for (int i = 0; i < 200; ++i) {
      scheduler.spawn([&] { count.fetch_add(1); });
    }
    latch.count_down();
  });
  latch.wait(scheduler);
  ASSERT_TRUE(testutil::spin_until([&] { return count.load() == 200; }));
  EXPECT_GE(scheduler.tasks_executed(), 201u);
  scheduler.stop();
}

// ---------------- futures ----------------

TEST(FutureTest, SetThenGet) {
  Promise<int> promise;
  auto future = promise.get_future();
  EXPECT_FALSE(future.ready());
  promise.set_value(5);
  EXPECT_TRUE(future.ready());
  EXPECT_EQ(future.get(), 5);
  EXPECT_EQ(future.value(), 5);
}

TEST(FutureTest, VoidFuture) {
  Promise<void> promise;
  auto future = promise.get_future();
  EXPECT_FALSE(future.ready());
  promise.set_value();
  future.get();
  EXPECT_TRUE(future.ready());
}

TEST(FutureTest, ContinuationAfterAndBeforeReady) {
  Promise<int> promise;
  auto future = promise.get_future();
  std::atomic<int> fired{0};
  future.then([&] { fired.fetch_add(1); });
  promise.set_value(1);
  future.then([&] { fired.fetch_add(1); });  // already ready: runs inline
  EXPECT_EQ(fired.load(), 2);
}

TEST(FutureTest, GetBlocksUntilOtherThreadSets) {
  Promise<std::string> promise;
  auto future = promise.get_future();
  std::thread setter([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    promise.set_value("done");
  });
  EXPECT_EQ(future.get(), "done");
  setter.join();
}

TEST(FutureTest, ContinuationRunsOnScheduler) {
  Scheduler scheduler(1, "t");
  scheduler.start();
  Promise<int> promise(&scheduler);
  auto future = promise.get_future();
  std::atomic<bool> ran_on_worker{false};
  future.then([&] { ran_on_worker.store(scheduler.on_worker()); });
  promise.set_value(3);
  ASSERT_TRUE(testutil::spin_until([&] { return future.ready(); }));
  ASSERT_TRUE(testutil::spin_until([&] { return ran_on_worker.load(); }));
  scheduler.stop();
}

TEST(FutureTest, WhenAllWaitsForEveryInput) {
  std::vector<Promise<int>> promises;
  std::vector<Future<int>> futures;
  for (int i = 0; i < 5; ++i) {
    promises.emplace_back();
    futures.push_back(promises.back().get_future());
  }
  auto all = amt::when_all(futures);
  for (int i = 0; i < 4; ++i) {
    promises[static_cast<size_t>(i)].set_value(i);
    EXPECT_FALSE(all.ready());
  }
  promises[4].set_value(4);
  EXPECT_TRUE(all.ready());
  // Inputs stay readable after when_all fires.
  EXPECT_EQ(futures[2].value(), 2);
}

TEST(FutureTest, WhenAllOfNothingIsReady) {
  std::vector<Future<int>> futures;
  EXPECT_TRUE(amt::when_all(futures).ready());
}

// ---------------- connection cache ----------------

TEST(ConnectionCacheTest, CapsConcurrentConnections) {
  ConnectionCache cache(2);
  EXPECT_TRUE(cache.try_acquire());
  EXPECT_TRUE(cache.try_acquire());
  EXPECT_FALSE(cache.try_acquire());
  EXPECT_EQ(cache.acquire_failures(), 1u);
  cache.release();
  EXPECT_TRUE(cache.try_acquire());
  EXPECT_EQ(cache.in_use(), 2u);
  cache.release();
  cache.release();
  EXPECT_EQ(cache.in_use(), 0u);
}

TEST(ConnectionCacheTest, ContendedAcquireNeverOvershootsOrStarves) {
  // Regression for the optimistic fetch_add reserve: N concurrent losers
  // could push in_use() past the cap transiently, and with a cap of 1 two
  // acquirers could both fail even though a slot was free the whole time.
  constexpr int kThreads = 8;
  constexpr int kItersPerThread = 20000;
  ConnectionCache cache(1);
  std::atomic<std::size_t> max_observed{0};
  std::atomic<std::uint64_t> acquired{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kItersPerThread; ++i) {
        if (cache.try_acquire()) {
          const std::size_t seen = cache.in_use();
          std::size_t prev = max_observed.load();
          while (seen > prev && !max_observed.compare_exchange_weak(prev, seen)) {
          }
          acquired.fetch_add(1);
          cache.release();
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(cache.in_use(), 0u);
  EXPECT_LE(max_observed.load(), 1u) << "in_use() overshot the cap";
  EXPECT_GT(acquired.load(), 0u);
}

TEST(ConnectionCacheTest, CapOneTwoThreadsOneMustWin) {
  // The sharpest form of the race: with a free slot and exactly two
  // acquirers, at least one must succeed on every round.
  ConnectionCache cache(1);
  for (int round = 0; round < 5000; ++round) {
    std::atomic<int> wins{0};
    std::thread a([&] {
      if (cache.try_acquire()) wins.fetch_add(1);
    });
    std::thread b([&] {
      if (cache.try_acquire()) wins.fetch_add(1);
    });
    a.join();
    b.join();
    ASSERT_GE(wins.load(), 1) << "both acquirers failed with a free slot";
    ASSERT_LE(wins.load(), 1) << "cap of one admitted two connections";
    for (int i = 0; i < wins.load(); ++i) cache.release();
  }
}

// ---------------- actions over the loopback parcelport ----------------

namespace actions {

std::atomic<int> ping_count{0};
std::atomic<std::uint64_t> sum_received{0};

void ping() { ping_count.fetch_add(1); }

// Deliberately slow handler: holds the admission window open long enough
// that an unpaced sender reliably overruns a small bound.
void slow_ping() {
  std::this_thread::sleep_for(std::chrono::microseconds(100));
  ping_count.fetch_add(1);
}

int add(int a, int b) { return a + b; }

double vector_sum(std::vector<double> values) {
  double sum = 0;
  for (double v : values) sum += v;
  return sum;
}

std::string greet(std::string name, int times) {
  std::string out;
  for (int i = 0; i < times; ++i) out += name;
  return out;
}

void consume_large(std::vector<std::uint64_t> values) {
  std::uint64_t sum = 0;
  for (auto v : values) sum += v;
  sum_received.fetch_add(sum);
}

amt::Rank where_am_i() { return amt::here().rank(); }

}  // namespace actions

namespace {

RuntimeConfig loopback_config(amt::Rank localities = 2,
                              bool send_immediate = false) {
  RuntimeConfig config;
  config.num_localities = localities;
  config.threads_per_locality = 2;
  config.fabric = fabric::Profile::loopback(localities);
  config.parcelport.send_immediate = send_immediate;
  return config;
}

}  // namespace

class RuntimeActions : public ::testing::TestWithParam<bool> {};

TEST_P(RuntimeActions, FireAndForgetAction) {
  Runtime runtime(loopback_config(2, GetParam()),
                  amt::loopback_parcelport_factory());
  runtime.start();
  actions::ping_count.store(0);
  runtime.locality(0).spawn(
      [&] { amt::here().apply<&actions::ping>(1); });
  ASSERT_TRUE(
      testutil::spin_until([&] { return actions::ping_count.load() == 1; }));
  runtime.stop();
}

TEST_P(RuntimeActions, AsyncActionReturnsValue) {
  Runtime runtime(loopback_config(2, GetParam()),
                  amt::loopback_parcelport_factory());
  runtime.start();
  std::atomic<int> result{0};
  Latch done(1);
  runtime.locality(0).spawn([&] {
    auto future = amt::here().async<&actions::add>(1, 20, 22);
    result.store(future.get());
    done.count_down();
  });
  done.wait(runtime.locality(0).scheduler());
  EXPECT_EQ(result.load(), 42);
  runtime.stop();
}

TEST_P(RuntimeActions, StringsAndMultipleArgs) {
  Runtime runtime(loopback_config(2, GetParam()),
                  amt::loopback_parcelport_factory());
  runtime.start();
  std::string result;
  Latch done(1);
  runtime.locality(0).spawn([&] {
    result = amt::here().async<&actions::greet>(1, std::string("ab"), 3).get();
    done.count_down();
  });
  done.wait(runtime.locality(0).scheduler());
  EXPECT_EQ(result, "ababab");
  runtime.stop();
}

TEST_P(RuntimeActions, LargeVectorArgumentGoesZeroCopy) {
  Runtime runtime(loopback_config(2, GetParam()),
                  amt::loopback_parcelport_factory());
  runtime.start();
  std::vector<double> values(4096, 0.5);  // 32 KiB > 8 KiB threshold
  double result = 0;
  Latch done(1);
  runtime.locality(0).spawn([&] {
    result = amt::here().async<&actions::vector_sum>(1, values).get();
    done.count_down();
  });
  done.wait(runtime.locality(0).scheduler());
  EXPECT_DOUBLE_EQ(result, 2048.0);
  runtime.stop();
}

TEST_P(RuntimeActions, SelfSendWorks) {
  Runtime runtime(loopback_config(2, GetParam()),
                  amt::loopback_parcelport_factory());
  runtime.start();
  int result = 0;
  Latch done(1);
  runtime.locality(1).spawn([&] {
    result = amt::here().async<&actions::add>(1, 1, 2).get();
    done.count_down();
  });
  done.wait(runtime.locality(1).scheduler());
  EXPECT_EQ(result, 3);
  runtime.stop();
}

TEST_P(RuntimeActions, HereReportsDestination) {
  Runtime runtime(loopback_config(3, GetParam()),
                  amt::loopback_parcelport_factory());
  runtime.start();
  amt::Rank result = 99;
  Latch done(1);
  runtime.locality(0).spawn([&] {
    result = amt::here().async<&actions::where_am_i>(2).get();
    done.count_down();
  });
  done.wait(runtime.locality(0).scheduler());
  EXPECT_EQ(result, 2u);
  runtime.stop();
}

TEST_P(RuntimeActions, ManyConcurrentAsyncs) {
  Runtime runtime(loopback_config(2, GetParam()),
                  amt::loopback_parcelport_factory());
  runtime.start();
  constexpr int kCount = 500;
  std::atomic<std::int64_t> total{0};
  Latch done(kCount);
  runtime.locality(0).spawn([&] {
    for (int i = 0; i < kCount; ++i) {
      auto future = amt::here().async<&actions::add>(1, i, 1);
      future.then([&, future] {
        total.fetch_add(future.value());
        done.count_down();
      });
    }
  });
  done.wait(runtime.locality(0).scheduler());
  // sum of (i + 1) for i in [0, kCount)
  EXPECT_EQ(total.load(), static_cast<std::int64_t>(kCount) * (kCount + 1) / 2);
  runtime.stop();
}

INSTANTIATE_TEST_SUITE_P(SendModes, RuntimeActions,
                         ::testing::Values(false, true));

TEST(RuntimeAggregation, QueuedParcelsAggregateUnderConnectionPressure) {
  // With one connection allowed, every flush after the first must aggregate
  // multiple parcels into a single HPX message.
  RuntimeConfig config = loopback_config(2, /*send_immediate=*/false);
  config.max_connections = 1;
  Runtime runtime(config, amt::loopback_parcelport_factory());
  runtime.start();
  actions::ping_count.store(0);
  constexpr int kParcels = 200;
  runtime.locality(0).spawn([&] {
    for (int i = 0; i < kParcels; ++i) amt::here().apply<&actions::ping>(1);
  });
  ASSERT_TRUE(testutil::spin_until(
      [&] { return actions::ping_count.load() == kParcels; }));
  const auto stats = runtime.locality(0).stats();
  EXPECT_EQ(stats.parcels_sent, static_cast<std::uint64_t>(kParcels));
  // Aggregation must have batched at least some messages (loopback delivery
  // is synchronous, so this is conservative).
  EXPECT_LE(stats.messages_sent, stats.parcels_sent);
  runtime.stop();
}

TEST(RuntimeSendImmediate, OneMessagePerParcel) {
  Runtime runtime(loopback_config(2, /*send_immediate=*/true),
                  amt::loopback_parcelport_factory());
  runtime.start();
  actions::ping_count.store(0);
  constexpr int kParcels = 50;
  runtime.locality(0).spawn([&] {
    for (int i = 0; i < kParcels; ++i) amt::here().apply<&actions::ping>(1);
  });
  ASSERT_TRUE(testutil::spin_until(
      [&] { return actions::ping_count.load() == kParcels; }));
  const auto stats = runtime.locality(0).stats();
  EXPECT_EQ(stats.messages_sent, stats.parcels_sent);
  runtime.stop();
}

TEST(RuntimeLargeArgs, SumArrivesIntact) {
  Runtime runtime(loopback_config(2), amt::loopback_parcelport_factory());
  runtime.start();
  actions::sum_received.store(0);
  std::vector<std::uint64_t> values(10000);
  std::iota(values.begin(), values.end(), 1ull);
  const std::uint64_t expected =
      std::accumulate(values.begin(), values.end(), 0ull);
  runtime.locality(0).spawn(
      [&] { amt::here().apply<&actions::consume_large>(1, values); });
  ASSERT_TRUE(testutil::spin_until(
      [&] { return actions::sum_received.load() == expected; }));
  runtime.stop();
}

// ---------------- parcelport config names (Table 1) ----------------

TEST(ParcelportConfigTest, ParsesPaperNames) {
  using amt::ParcelportConfig;
  const auto baseline = ParcelportConfig::parse("lci_psr_cq_pin_i");
  EXPECT_EQ(baseline.kind, ParcelportConfig::Kind::kLci);
  EXPECT_EQ(baseline.protocol, ParcelportConfig::Protocol::kPutSendRecv);
  EXPECT_EQ(baseline.completion, ParcelportConfig::CompType::kQueue);
  EXPECT_EQ(baseline.progress, ParcelportConfig::ProgressType::kPinned);
  EXPECT_TRUE(baseline.send_immediate);
  EXPECT_EQ(baseline.name(), "lci_psr_cq_pin_i");

  const auto mpi = ParcelportConfig::parse("mpi");
  EXPECT_EQ(mpi.kind, ParcelportConfig::Kind::kMpi);
  EXPECT_FALSE(mpi.send_immediate);
  EXPECT_EQ(mpi.name(), "mpi");

  const auto variant = ParcelportConfig::parse("lci_sr_sy_mt");
  EXPECT_EQ(variant.protocol, ParcelportConfig::Protocol::kSendRecv);
  EXPECT_EQ(variant.completion, ParcelportConfig::CompType::kSync);
  EXPECT_EQ(variant.progress, ParcelportConfig::ProgressType::kWorker);
  EXPECT_EQ(variant.name(), "lci_sr_sy_mt");

  // rp is the paper's alias for the pinned progress thread.
  EXPECT_EQ(ParcelportConfig::parse("lci_psr_cq_rp_i").name(),
            "lci_psr_cq_pin_i");
}

TEST(ParcelportConfigTest, PipelineDepthToken) {
  using amt::ParcelportConfig;
  const auto bounded = ParcelportConfig::parse("lci_psr_cq_pin_pd4_i");
  EXPECT_EQ(bounded.lci_pipeline_depth, 4u);
  EXPECT_TRUE(bounded.send_immediate);
  EXPECT_EQ(bounded.name(), "lci_psr_cq_pin_pd4_i");

  // Unbounded is the default and stays out of the canonical name.
  EXPECT_EQ(ParcelportConfig::parse("lci_psr_cq_pin").lci_pipeline_depth, 0u);

  EXPECT_EQ(ParcelportConfig::parse("lci_sr_sy_mt_pd16").name(),
            "lci_sr_sy_mt_pd16");
  EXPECT_THROW(ParcelportConfig::parse("lci_psr_cq_pin_pd0"),
               std::invalid_argument);
  EXPECT_THROW(ParcelportConfig::parse("lci_psr_cq_pin_pdx"),
               std::invalid_argument);
}

TEST(ParcelportConfigTest, AblationNames) {
  using amt::ParcelportConfig;
  const auto fine = ParcelportConfig::parse("mpi_fine_i");
  EXPECT_FALSE(fine.mpi_coarse_lock);
  EXPECT_TRUE(fine.send_immediate);
  const auto orig = ParcelportConfig::parse("mpi_orig");
  EXPECT_TRUE(orig.mpi_original);
}

TEST(ParcelportConfigTest, RejectsUnknownTokens) {
  EXPECT_THROW(amt::ParcelportConfig::parse("lci_bogus"),
               std::invalid_argument);
  EXPECT_THROW(amt::ParcelportConfig::parse("psr_cq"),
               std::invalid_argument);
  // The fast path is on or off; its cap is the eager threshold, not a token.
  EXPECT_THROW(amt::ParcelportConfig::parse("lci_psr_cq_mt_fp512_i"),
               std::invalid_argument);
  // Only the paper's two parcelports exist; "tcp" is an unknown token.
  EXPECT_THROW(amt::ParcelportConfig::parse("tcp"), std::invalid_argument);
  EXPECT_THROW(amt::ParcelportConfig::parse("tcp_i"), std::invalid_argument);
  // The token is the only way to force a collective family, so an unknown
  // family fails here, at parse time.
  EXPECT_THROW(amt::ParcelportConfig::parse("mpi_i_collbogus"),
               std::invalid_argument);
  // Spellings of "no token" are not tokens: leaving the token out is the one
  // way to ask for unbounded depth/tickets, no aggregation, auto collectives.
  for (const char* name : {"lci_psr_cq_pin_pdinf", "lci_psr_cq_mt_ptinf",
                           "lci_psr_cq_pin_aggoff_i", "mpi_i_collauto"}) {
    EXPECT_THROW(amt::ParcelportConfig::parse(name), std::invalid_argument)
        << name;
  }
}

TEST(ParcelportConfigTest, AdmissionTokens) {
  using amt::AdmissionConfig;
  using amt::ParcelportConfig;
  const auto shed = ParcelportConfig::parse("lci_psr_cq_pin_i_shed32");
  EXPECT_EQ(shed.admission.policy, AdmissionConfig::Policy::kShed);
  EXPECT_EQ(shed.admission.queue_bound, 32u);
  EXPECT_TRUE(shed.admission.on());
  EXPECT_EQ(shed.name(), "lci_psr_cq_pin_i_shed32");

  const auto block = ParcelportConfig::parse("lci_psr_cq_pin_i_block16");
  EXPECT_EQ(block.admission.policy, AdmissionConfig::Policy::kBlock);
  EXPECT_EQ(block.admission.queue_bound, 16u);
  EXPECT_EQ(block.name(), "lci_psr_cq_pin_i_block16");

  const auto deadline = ParcelportConfig::parse("lci_psr_cq_pin_dl512");
  EXPECT_EQ(deadline.admission.policy, AdmissionConfig::Policy::kDeadline);
  EXPECT_EQ(deadline.admission.queue_bound, 512u);
  EXPECT_EQ(deadline.name(), "lci_psr_cq_pin_dl512");

  // The tokens compose with every parcelport kind, not just lci.
  EXPECT_EQ(ParcelportConfig::parse("mpi_i_shed8").admission.queue_bound, 8u);
  EXPECT_EQ(ParcelportConfig::parse("mpi_i_shed8").name(), "mpi_i_shed8");

  // Admission off is the default and stays out of the canonical name.
  EXPECT_FALSE(ParcelportConfig::parse("lci_psr_cq_pin_i").admission.on());

  // A zero bound would admit nothing and wedge forever: reject it loudly.
  EXPECT_THROW(ParcelportConfig::parse("lci_psr_cq_pin_i_shed0"),
               std::invalid_argument);
  EXPECT_THROW(ParcelportConfig::parse("lci_psr_cq_pin_i_shedx"),
               std::invalid_argument);
}

TEST(ParcelportConfigTest, AggregationTokens) {
  using amt::ParcelportConfig;
  const auto agg = ParcelportConfig::parse("lci_psr_cq_pin_agg2048_i");
  EXPECT_EQ(agg.lci_agg, 2048u);
  EXPECT_EQ(agg.lci_agg_age_us, -1);  // age absent: the 200 us default
  EXPECT_EQ(agg.name(), "lci_psr_cq_pin_agg2048_i");

  const auto aged = ParcelportConfig::parse("lci_sr_sy_mt_agg1024_aggt100_i");
  EXPECT_EQ(aged.lci_agg, 1024u);
  EXPECT_EQ(aged.lci_agg_age_us, 100);
  EXPECT_EQ(aged.name(), "lci_sr_sy_mt_agg1024_aggt100_i");

  // No agg token: aggregation off, and nothing in the canonical name.
  const auto unset = ParcelportConfig::parse("lci_psr_cq_pin_i");
  EXPECT_EQ(unset.lci_agg, 0u);
  EXPECT_EQ(unset.name(), "lci_psr_cq_pin_i");

  // The tokens compose with the fast-path and admission tokens.
  const auto full =
      ParcelportConfig::parse("lci_psr_cq_mt_fp_agg2048_aggt50_i_block8");
  EXPECT_EQ(full.lci_fastpath, 1);
  EXPECT_EQ(full.lci_agg, 2048u);
  EXPECT_EQ(full.lci_agg_age_us, 50);
  EXPECT_EQ(full.name(), "lci_psr_cq_mt_fp_agg2048_aggt50_i_block8");

  // A cap below the minimum one-parcel frame could never flush anything:
  // reject it at parse rather than wedging the aggregator at runtime.
  static_assert(amt::kMinAggFrameBytes == 24);
  EXPECT_THROW(ParcelportConfig::parse("lci_psr_cq_pin_agg23_i"),
               std::invalid_argument);
  EXPECT_THROW(ParcelportConfig::parse("lci_psr_cq_pin_agg16_i"),
               std::invalid_argument);
  EXPECT_NO_THROW(ParcelportConfig::parse("lci_psr_cq_pin_agg24_i"));
}

// ---------------- admission control over the loopback parcelport ----------

namespace {

RuntimeConfig admission_config(amt::AdmissionConfig::Policy policy,
                               std::uint32_t bound,
                               amt::Rank localities = 2) {
  RuntimeConfig config = loopback_config(localities);
  config.parcelport.admission.policy = policy;
  config.parcelport.admission.queue_bound = bound;
  return config;
}

}  // namespace

TEST(AdmissionTest, ShedRefusesAtBoundAndConserves) {
  // A tight window and a tight injection loop: the sender outruns the
  // destination's handler execution, so some try_apply calls must be
  // refused at the bound — and at quiescence every admitted parcel has
  // executed (credits return from the destination, not from send
  // completion).
  Runtime runtime(
      admission_config(amt::AdmissionConfig::Policy::kShed, 4),
      amt::loopback_parcelport_factory());
  runtime.start();
  actions::ping_count.store(0);
  constexpr int kParcels = 400;
  std::atomic<int> accepted{0};
  std::atomic<int> shed{0};
  std::atomic<bool> sender_done{false};
  runtime.locality(0).spawn([&] {
    for (int i = 0; i < kParcels; ++i) {
      if (amt::here().try_apply<&actions::slow_ping>(1)) {
        accepted.fetch_add(1);
      } else {
        shed.fetch_add(1);
      }
    }
    sender_done.store(true);
  });
  ASSERT_TRUE(testutil::spin_until([&] {
    return sender_done.load() &&
           actions::ping_count.load() == accepted.load();
  }));
  EXPECT_EQ(accepted.load() + shed.load(), kParcels);
  EXPECT_GT(accepted.load(), 0);
  EXPECT_GT(shed.load(), 0);

  const auto stats = runtime.locality(0).admission_stats();
  EXPECT_EQ(stats.accepted, static_cast<std::uint64_t>(accepted.load()));
  EXPECT_EQ(stats.shed, static_cast<std::uint64_t>(shed.load()));
  EXPECT_EQ(stats.deadline_drops, 0u);
  EXPECT_LE(stats.peak_queue_depth, 4);
  runtime.stop();
}

TEST(AdmissionTest, BlockPolicyDelaysButDeliversEverything) {
  Runtime runtime(
      admission_config(amt::AdmissionConfig::Policy::kBlock, 2),
      amt::loopback_parcelport_factory());
  runtime.start();
  actions::ping_count.store(0);
  constexpr int kParcels = 100;
  runtime.locality(0).spawn([&] {
    for (int i = 0; i < kParcels; ++i) amt::here().apply<&actions::ping>(1);
  });
  ASSERT_TRUE(testutil::spin_until(
      [&] { return actions::ping_count.load() == kParcels; }));
  const auto stats = runtime.locality(0).admission_stats();
  EXPECT_EQ(stats.accepted, static_cast<std::uint64_t>(kParcels));
  EXPECT_EQ(stats.shed, 0u);  // block never refuses
  EXPECT_LE(stats.peak_queue_depth, 2);
  runtime.stop();
}

TEST(AdmissionTest, ResponseTrafficIsExemptFromShedding) {
  // async actions carry a promise: they are request/response pairs the
  // caller is already throttling, so the admission window counts them but
  // must never refuse them — a shed response would strand a future forever.
  Runtime runtime(
      admission_config(amt::AdmissionConfig::Policy::kShed, 1),
      amt::loopback_parcelport_factory());
  runtime.start();
  std::atomic<std::int64_t> total{0};
  constexpr int kCount = 50;
  Latch done(kCount);
  runtime.locality(0).spawn([&] {
    for (int i = 0; i < kCount; ++i) {
      auto future = amt::here().async<&actions::add>(1, i, 1);
      future.then([&, future] {
        total.fetch_add(future.value());
        done.count_down();
      });
    }
  });
  done.wait(runtime.locality(0).scheduler());
  EXPECT_EQ(total.load(),
            static_cast<std::int64_t>(kCount) * (kCount + 1) / 2);
  runtime.stop();
}

TEST(AdmissionTest, DeadlineDropsStaleQueuedParcelsAndConserves) {
  // Aggregation path (no send-immediate) with a single cached connection:
  // parcels queue behind in-flight flushes. A zero deadline makes every
  // queued parcel stale at its flush, so drops are guaranteed — and every
  // accepted parcel must still be accounted for: executed or dropped.
  RuntimeConfig config =
      admission_config(amt::AdmissionConfig::Policy::kDeadline, 1u << 20);
  config.parcelport.admission.deadline_us = 0.0;
  config.parcelport.send_immediate = false;
  config.max_connections = 1;
  Runtime runtime(config, amt::loopback_parcelport_factory());
  runtime.start();
  actions::ping_count.store(0);
  constexpr int kParcels = 300;
  std::atomic<bool> sender_done{false};
  runtime.locality(0).spawn([&] {
    for (int i = 0; i < kParcels; ++i) amt::here().apply<&actions::ping>(1);
    sender_done.store(true);
  });
  ASSERT_TRUE(testutil::spin_until([&] {
    if (!sender_done.load()) return false;
    const auto stats = runtime.locality(0).admission_stats();
    return stats.accepted ==
           static_cast<std::uint64_t>(actions::ping_count.load()) +
               stats.deadline_drops;
  }));
  const auto stats = runtime.locality(0).admission_stats();
  EXPECT_EQ(stats.accepted, static_cast<std::uint64_t>(kParcels));
  EXPECT_GT(stats.deadline_drops, 0u);
  runtime.stop();
}

TEST(AdmissionTest, MultiThreadedBoundedQueueStress) {
  // TSan target: concurrent senders on every locality hammer overlapping
  // destinations through tight shed windows. The per-destination window
  // bookkeeping (outstanding counters, peak CAS, credit release from the
  // destination's handler task) must stay exact under contention:
  // generated == accepted + shed and accepted == executed at quiescence.
  constexpr amt::Rank kLocalities = 3;
  constexpr int kSenders = 4;     // spawned tasks per locality
  constexpr int kPerSender = 150;
  Runtime runtime(
      admission_config(amt::AdmissionConfig::Policy::kShed, 8, kLocalities),
      amt::loopback_parcelport_factory());
  runtime.start();
  actions::ping_count.store(0);
  std::atomic<int> accepted{0};
  std::atomic<int> shed{0};
  std::atomic<int> senders_done{0};
  for (amt::Rank loc = 0; loc < kLocalities; ++loc) {
    for (int s = 0; s < kSenders; ++s) {
      runtime.locality(loc).spawn([&, loc, s] {
        for (int i = 0; i < kPerSender; ++i) {
          const amt::Rank dst =
              (loc + 1 + static_cast<amt::Rank>((s + i) % (kLocalities - 1))) %
              kLocalities;
          if (amt::here().try_apply<&actions::ping>(dst)) {
            accepted.fetch_add(1);
          } else {
            shed.fetch_add(1);
          }
        }
        senders_done.fetch_add(1);
      });
    }
  }
  ASSERT_TRUE(testutil::spin_until([&] {
    return senders_done.load() == kLocalities * kSenders &&
           actions::ping_count.load() == accepted.load();
  }));
  EXPECT_EQ(accepted.load() + shed.load(),
            kLocalities * kSenders * kPerSender);
  std::uint64_t total_accepted = 0;
  std::uint64_t total_shed = 0;
  for (amt::Rank loc = 0; loc < kLocalities; ++loc) {
    const auto stats = runtime.locality(loc).admission_stats();
    total_accepted += stats.accepted;
    total_shed += stats.shed;
    EXPECT_LE(stats.peak_queue_depth, 8);
  }
  EXPECT_EQ(total_accepted, static_cast<std::uint64_t>(accepted.load()));
  EXPECT_EQ(total_shed, static_cast<std::uint64_t>(shed.load()));
  runtime.stop();
}

// -------- LCI small-parcel fast path: credit return + TSan flood ----------
//
// These run over the REAL network stack (fabric -> minilci -> LCI
// parcelport), not the loopback: the fast path delivers parcels from a
// handler completion fired in progress context, and both the admission
// window bookkeeping and the handler delivery itself must stay exact under
// concurrency (the LciFastpath* filter is part of the CI tsan job).

#include "parcelport_lci/parcelport_lci.hpp"
#include "stack/stack.hpp"

namespace {

amt::RuntimeConfig lci_fastpath_config(const char* parcelport,
                                       amt::Rank localities,
                                       unsigned workers) {
  amtnet::StackOptions options;
  options.parcelport = parcelport;
  options.num_localities = localities;
  options.threads_per_locality = workers;
  options.platform = "loopback";
  return amtnet::make_runtime_config(options);
}

std::uint64_t fastpath_hits(amt::Runtime& runtime, amt::Rank localities) {
  std::uint64_t hits = 0;
  const auto snap = runtime.telemetry().snapshot();
  for (amt::Rank r = 0; r < localities; ++r) {
    hits += snap.counter("pplci/loc" + std::to_string(r) + "/fastpath_hits");
  }
  return hits;
}

}  // namespace

TEST(AdmissionTest, FastpathParcelsReturnCreditsAndConserve) {
  // Fast-path parcels never touch a ReceiverConnection, so the admission
  // credit must come back from the destination's handler task — the same
  // on_message -> admission_release path as every other parcel. A tight
  // shed window with a slow handler: if fast-path delivery leaked credits
  // the window would wedge and the executed count could never catch up
  // with `accepted`; conservation must hold exactly at quiescence.
  amt::RuntimeConfig config = lci_fastpath_config("lci_psr_cq_mt_fp_i", 2, 2);
  config.parcelport.admission.policy = amt::AdmissionConfig::Policy::kShed;
  config.parcelport.admission.queue_bound = 4;
  amt::Runtime runtime(config, amtnet::default_parcelport_factory());
  runtime.start();
  actions::ping_count.store(0);
  constexpr int kParcels = 300;
  std::atomic<int> accepted{0};
  std::atomic<int> shed{0};
  std::atomic<bool> sender_done{false};
  runtime.locality(0).spawn([&] {
    for (int i = 0; i < kParcels; ++i) {
      if (amt::here().try_apply<&actions::slow_ping>(1)) {
        accepted.fetch_add(1);
      } else {
        shed.fetch_add(1);
      }
    }
    sender_done.store(true);
  });
  ASSERT_TRUE(testutil::spin_until([&] {
    return sender_done.load() &&
           actions::ping_count.load() == accepted.load();
  }));
  EXPECT_EQ(accepted.load() + shed.load(), kParcels);
  EXPECT_GT(accepted.load(), 0);

  const auto stats = runtime.locality(0).admission_stats();
  EXPECT_EQ(stats.accepted, static_cast<std::uint64_t>(accepted.load()));
  EXPECT_EQ(stats.shed, static_cast<std::uint64_t>(shed.load()));
  EXPECT_LE(stats.peak_queue_depth, 4);
#ifndef AMTNET_TELEMETRY_DISABLED
  // Every accepted ping is tiny and must have travelled the fast path.
  EXPECT_GE(fastpath_hits(runtime, 2),
            static_cast<std::uint64_t>(accepted.load()));
#endif
  runtime.stop();
}

TEST(LciFastpathFlood, MultiThreadedSendersTsanClean) {
  // TSan target: concurrent sender tasks on both localities flood small
  // parcels through the fast path while mt-mode workers race over the
  // progress engine — the handler completion (and the per-source seq
  // tracker behind it) fires from whichever thread holds the NIC. Every
  // parcel must be dispatched exactly once.
  constexpr int kSenders = 3;
  constexpr int kPerSender = 120;
  amt::RuntimeConfig config = lci_fastpath_config("lci_psr_cq_mt_fp_i", 2, 4);
  amt::Runtime runtime(config, amtnet::default_parcelport_factory());
  runtime.start();
  actions::ping_count.store(0);
  for (amt::Rank loc = 0; loc < 2; ++loc) {
    for (int s = 0; s < kSenders; ++s) {
      runtime.locality(loc).spawn([&, loc] {
        for (int i = 0; i < kPerSender; ++i) {
          amt::here().apply<&actions::ping>(1 - loc);
        }
      });
    }
  }
  constexpr int kTotal = 2 * kSenders * kPerSender;
  ASSERT_TRUE(testutil::spin_until(
      [&] { return actions::ping_count.load() == kTotal; },
      std::chrono::milliseconds(20000)));
#ifndef AMTNET_TELEMETRY_DISABLED
  EXPECT_EQ(fastpath_hits(runtime, 2), static_cast<std::uint64_t>(kTotal));
#endif
  runtime.stop();
}

TEST(AdmissionTest, PoolExhaustedFastpathFallsBackAndConserves) {
  // Forces packet-pool exhaustion (a one-packet pool) under a concurrent
  // small-parcel flood: fast-path sends whose bounded alloc loop comes up
  // empty must fall back to the connection path with exactly one fallback
  // count and NO credit skew — pre-fix, the exhausted branch could
  // double-count the parcel against the admission window, so `accepted ==
  // executed` never converged. The test holds the pool's only packet until
  // the first fallback is counted, so exhaustion does not depend on how
  // the senders race.
  setenv("AMTNET_LCI_PACKET_POOL", "1", 1);
  amt::RuntimeConfig config = lci_fastpath_config("lci_psr_cq_mt_fp_i", 2, 4);
  config.parcelport.admission.policy = amt::AdmissionConfig::Policy::kBlock;
  config.parcelport.admission.queue_bound = 64;
  // A tiny TX window under a 64-deep flood: once the packet is back,
  // injections still spend most of their time in kRetry holding it, so
  // the pool keeps running dry for the rest of the flood too.
  config.fabric.tx_window = 8;
  amt::Runtime runtime(config, amtnet::default_parcelport_factory());
  runtime.start();
  unsetenv("AMTNET_LCI_PACKET_POOL");
  auto* port =
      dynamic_cast<pplci::LciParcelport*>(runtime.locality(0).parcelport());
  ASSERT_NE(port, nullptr);
  std::optional<minilci::PacketBuffer> held = port->try_alloc_packet();
  ASSERT_TRUE(held.has_value());
  actions::ping_count.store(0);
  constexpr int kSenders = 4;
  constexpr int kPerSender = 200;
  std::atomic<int> senders_done{0};
  for (int s = 0; s < kSenders; ++s) {
    runtime.locality(0).spawn([&] {
      for (int i = 0; i < kPerSender; ++i) {
        amt::here().apply<&actions::ping>(1);
      }
      senders_done.fetch_add(1);
    });
  }
#ifndef AMTNET_TELEMETRY_DISABLED
  // A sender can only get past the empty pool by falling back.
  EXPECT_TRUE(testutil::spin_until(
      [&] {
        return runtime.telemetry().snapshot().counter(
                   "pplci/loc0/fastpath_fallbacks") > 0;
      },
      std::chrono::milliseconds(20000)));
#endif
  held.reset();  // the fallback's header needs the packet back
  constexpr int kTotal = kSenders * kPerSender;
  const bool converged = testutil::spin_until(
      [&] {
        return senders_done.load() == kSenders &&
               actions::ping_count.load() == kTotal;
      },
      std::chrono::milliseconds(20000));
  if (!converged) {
    const auto snap0 = runtime.telemetry().snapshot();
    std::fprintf(stderr,
                 "DEBUG senders_done=%d ping_count=%d hits=%llu fb=%llu "
                 "outstanding_peak=%llu accepted=%llu\n",
                 senders_done.load(), actions::ping_count.load(),
                 (unsigned long long)snap0.counter("pplci/loc0/fastpath_hits"),
                 (unsigned long long)snap0.counter(
                     "pplci/loc0/fastpath_fallbacks"),
                 (unsigned long long)runtime.locality(0)
                     .admission_stats()
                     .peak_queue_depth,
                 (unsigned long long)runtime.locality(0)
                     .admission_stats()
                     .accepted);
  }
  ASSERT_TRUE(converged);
  const auto stats = runtime.locality(0).admission_stats();
  EXPECT_EQ(stats.accepted, static_cast<std::uint64_t>(kTotal));
  EXPECT_EQ(stats.shed, 0u);  // block never refuses
#ifndef AMTNET_TELEMETRY_DISABLED
  const auto snap = runtime.telemetry().snapshot();
  const std::uint64_t hits = snap.counter("pplci/loc0/fastpath_hits");
  const std::uint64_t fallbacks =
      snap.counter("pplci/loc0/fastpath_fallbacks");
  EXPECT_GT(fallbacks, 0u)
      << "a one-packet pool never exhausted under a 4-thread flood";
  // Single-count: every small parcel left the send path exactly once,
  // either as a fast-path frame or as one counted fallback.
  EXPECT_EQ(hits + fallbacks, static_cast<std::uint64_t>(kTotal));
#endif
  runtime.stop();
}

TEST(LciFastpathFlood, SendRecvVariantDeliversThroughHandler) {
  // Same flood over the sr protocol (fast-path frames ride tag-reserved
  // medium sends instead of dynamic puts) with the sy completion flavour.
  constexpr int kParcels = 200;
  amt::RuntimeConfig config = lci_fastpath_config("lci_sr_sy_mt_fp_i", 2, 2);
  amt::Runtime runtime(config, amtnet::default_parcelport_factory());
  runtime.start();
  actions::ping_count.store(0);
  runtime.locality(0).spawn([&] {
    for (int i = 0; i < kParcels; ++i) amt::here().apply<&actions::ping>(1);
  });
  ASSERT_TRUE(testutil::spin_until(
      [&] { return actions::ping_count.load() == kParcels; },
      std::chrono::milliseconds(20000)));
#ifndef AMTNET_TELEMETRY_DISABLED
  EXPECT_GE(fastpath_hits(runtime, 2), static_cast<std::uint64_t>(kParcels));
#endif
  runtime.stop();
}

// -------- LCI adaptive aggregation: flush-race TSan stress ----------------
//
// The aggregator's lifecycle has three racing flush triggers: a sender whose
// enqueue tips the buffer over the size cap, idle workers running
// background_work (age poll + idle drain), and stop()'s final flush_all.
// These floods make all three fire concurrently from different threads (the
// LciAggregationFlood filter is part of the CI tsan job); the exact dispatch
// count catches any lost, duplicated, or double-flushed sub-parcel.

TEST(LciAggregationFlood, MultiThreadedSendersTsanClean) {
  constexpr int kSenders = 3;
  constexpr int kPerSender = 150;
  amt::RuntimeConfig config =
      lci_fastpath_config("lci_psr_cq_mt_fp_agg2048_aggt50_i_block8", 2, 4);
  amt::Runtime runtime(config, amtnet::default_parcelport_factory());
  runtime.start();
  actions::ping_count.store(0);
  for (amt::Rank loc = 0; loc < 2; ++loc) {
    for (int s = 0; s < kSenders; ++s) {
      runtime.locality(loc).spawn([&, loc] {
        for (int i = 0; i < kPerSender; ++i) {
          amt::here().apply<&actions::ping>(1 - loc);
        }
      });
    }
  }
  constexpr int kTotal = 2 * kSenders * kPerSender;
  ASSERT_TRUE(testutil::spin_until(
      [&] { return actions::ping_count.load() == kTotal; },
      std::chrono::milliseconds(20000)));
  runtime.stop();
}

TEST(LciAggregationFlood, TinyCapEvictionChurnTsanClean) {
  // A cap barely above one entry: nearly every enqueue evicts the previous
  // occupant, maximizing contention on the swap-under-lock/flush-outside
  // handoff between senders and the background flusher.
  constexpr int kSenders = 3;
  constexpr int kPerSender = 100;
  amt::RuntimeConfig config =
      lci_fastpath_config("lci_sr_cq_mt_fp_agg128_aggt50_i_block8", 2, 4);
  amt::Runtime runtime(config, amtnet::default_parcelport_factory());
  runtime.start();
  actions::ping_count.store(0);
  for (int s = 0; s < kSenders; ++s) {
    runtime.locality(0).spawn([&] {
      for (int i = 0; i < kPerSender; ++i) {
        amt::here().apply<&actions::ping>(1);
      }
    });
  }
  constexpr int kTotal = kSenders * kPerSender;
  ASSERT_TRUE(testutil::spin_until(
      [&] { return actions::ping_count.load() == kTotal; },
      std::chrono::milliseconds(20000)));
  runtime.stop();
}
