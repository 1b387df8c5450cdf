// Transport-backend tests: the shm ring primitive, backend selection
// plumbing, a {sim, shm} conformance sweep over the parcelport configs the
// main e2e suite covers (all 8 LCI variants, fastpath, aggregation, MPI),
// one chaos row on both backends, the ring-fallback path, and a real
// fork()-based two-process ping-pong over POSIX shared memory.
//
// Every shm case skips gracefully on platforms without POSIX shm.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/wait.h>
#include <unistd.h>
#define AMTNET_TEST_HAVE_FORK 1
#endif

#include "fabric/backend_shm.hpp"
#include "fabric/shm_ring.hpp"
#include "stack/stack.hpp"
#include "test_util.hpp"

using amt::Latch;
using amtnet::StackOptions;
using fabric::detail::ShmRecord;
using fabric::detail::ShmRing;
using fabric::detail::ShmSlot;

// ---------------- ShmRing unit tests (plain heap memory) ----------------

namespace {

struct RingBox {
  std::vector<std::byte> mem;
  ShmRing* ring;

  RingBox(std::size_t depth, std::size_t payload_cap)
      : mem(ShmRing::footprint(depth, payload_cap), std::byte{0}),
        ring(reinterpret_cast<ShmRing*>(mem.data())) {
    ring->init(depth, payload_cap);
  }
};

bool push_one(ShmRing& ring, std::uint64_t value) {
  std::uint64_t pos = 0;
  ShmSlot* slot = ring.try_claim(pos);
  if (slot == nullptr) return false;
  slot->record = ShmRecord{};
  slot->record.kind = ShmRecord::kEager;
  slot->record.imm = value;
  slot->record.len = sizeof(value);
  std::memcpy(slot->payload(), &value, sizeof(value));
  ring.publish(slot, pos);
  return true;
}

bool pop_one(ShmRing& ring, std::uint64_t& value) {
  std::uint64_t pos = 0;
  ShmSlot* slot = ring.try_consume(pos);
  if (slot == nullptr) return false;
  EXPECT_EQ(slot->record.kind, ShmRecord::kEager);
  EXPECT_EQ(slot->record.len, sizeof(value));
  std::memcpy(&value, slot->payload(), sizeof(value));
  EXPECT_EQ(slot->record.imm, value);
  ring.release(slot, pos);
  return true;
}

}  // namespace

TEST(ShmRing, FifoAcrossManyWraps) {
  RingBox box(8, 64);  // 8 slots, pushed 100 values: 12+ wraps
  std::uint64_t next_push = 0, next_pop = 0;
  while (next_pop < 100) {
    while (next_push < 100 && push_one(*box.ring, next_push)) ++next_push;
    std::uint64_t value = 0;
    ASSERT_TRUE(pop_one(*box.ring, value));
    EXPECT_EQ(value, next_pop);
    ++next_pop;
  }
  EXPECT_FALSE(box.ring->looks_nonempty());
}

TEST(ShmRing, FullRingRejectsClaimUntilConsumed) {
  RingBox box(4, 32);
  for (std::uint64_t i = 0; i < 4; ++i) ASSERT_TRUE(push_one(*box.ring, i));
  EXPECT_FALSE(push_one(*box.ring, 99));  // full
  std::uint64_t value = 0;
  ASSERT_TRUE(pop_one(*box.ring, value));
  EXPECT_EQ(value, 0u);
  EXPECT_TRUE(push_one(*box.ring, 4));  // one slot freed
  for (std::uint64_t expect = 1; expect <= 4; ++expect) {
    ASSERT_TRUE(pop_one(*box.ring, value));
    EXPECT_EQ(value, expect);
  }
}

TEST(ShmRing, DepthRoundsUpToPowerOfTwo) {
  RingBox box(5, 32);
  EXPECT_EQ(box.ring->capacity, 8u);
  EXPECT_EQ(box.ring->slot_stride % 64, 0u);
}

// Two producers + two consumers hammer one ring; every value arrives exactly
// once. This is the test the TSan CI job leans on for the shm ring.
TEST(ShmRing, ConcurrentProducersConsumersDeliverExactly) {
  RingBox box(16, 64);
  constexpr std::uint64_t kPerProducer = 5000;
  std::atomic<std::uint64_t> popped_sum{0};
  std::atomic<std::uint64_t> popped_count{0};
  auto producer = [&](std::uint64_t base) {
    for (std::uint64_t i = 0; i < kPerProducer;) {
      if (push_one(*box.ring, base + i)) {
        ++i;
      } else {
        std::this_thread::yield();
      }
    }
  };
  auto consumer = [&] {
    while (popped_count.load() < 2 * kPerProducer) {
      std::uint64_t value = 0;
      if (pop_one(*box.ring, value)) {
        popped_sum.fetch_add(value);
        popped_count.fetch_add(1);
      } else {
        std::this_thread::yield();
      }
    }
  };
  std::thread p1(producer, 0), p2(producer, 1u << 20);
  std::thread c1(consumer), c2(consumer);
  p1.join();
  p2.join();
  c1.join();
  c2.join();
  std::uint64_t expected = 0;
  for (std::uint64_t i = 0; i < kPerProducer; ++i) {
    expected += i + ((1u << 20) + i);
  }
  EXPECT_EQ(popped_count.load(), 2 * kPerProducer);
  EXPECT_EQ(popped_sum.load(), expected);
}

// ---------------- backend selection plumbing ----------------

TEST(BackendSelection, ValidateRejectsUnknownNames) {
  EXPECT_NO_THROW(fabric::validate_backend_name("sim"));
  EXPECT_NO_THROW(fabric::validate_backend_name("shm"));
  EXPECT_THROW(fabric::validate_backend_name("ibv"), std::invalid_argument);
  EXPECT_THROW(fabric::validate_backend_name(""), std::invalid_argument);
}

TEST(BackendSelection, ParcelportTokenSelectsBackend) {
  const auto config =
      amt::ParcelportConfig::parse("lci_psr_cq_pin_i_backendshm");
  EXPECT_EQ(config.fabric_backend, "shm");
  // name() round-trips the token; sim (the default) stays unannotated so
  // every committed baseline keeps its historical name.
  EXPECT_NE(config.name().find("backendshm"), std::string::npos);
  const auto sim = amt::ParcelportConfig::parse("lci_psr_cq_pin_i");
  EXPECT_EQ(sim.fabric_backend, "sim");
  EXPECT_EQ(sim.name().find("backend"), std::string::npos);
  EXPECT_THROW(amt::ParcelportConfig::parse("mpi_backendibv"),
               std::invalid_argument);
}

TEST(BackendSelection, OptionsBeatTokenAndEnvBeatsBoth) {
  StackOptions options;
  options.parcelport = "lci_psr_cq_pin_i_backendshm";
  options.backend = "sim";
  EXPECT_EQ(amtnet::make_runtime_config(options).fabric.backend, "sim");

  ::setenv("AMTNET_BACKEND", "shm", 1);
  EXPECT_EQ(amtnet::make_runtime_config(options).fabric.backend, "shm");
  ::unsetenv("AMTNET_BACKEND");
}

// Launch variables are parsed strictly: junk must not silently become rank
// or locality count 0. make_runtime_config builds a config and starts no
// threads.
TEST(BackendSelection, MalformedLaunchVariablesThrowByName) {
  const StackOptions options;
  for (const char* bad : {"abc", "0", "-1", "4x"}) {
    ::setenv("AMTNET_SHM_RANKS", bad, 1);
    try {
      (void)amtnet::make_runtime_config(options);
      ADD_FAILURE() << "AMTNET_SHM_RANKS=" << bad << " accepted";
    } catch (const std::invalid_argument& error) {
      EXPECT_NE(std::string(error.what()).find("AMTNET_SHM_RANKS"),
                std::string::npos);
    }
  }
  ::setenv("AMTNET_SHM_RANKS", "3", 1);
  EXPECT_EQ(amtnet::make_runtime_config(options).num_localities, 3u);
  ::unsetenv("AMTNET_SHM_RANKS");

  ::setenv("AMTNET_SHM_RANK", "x", 1);
  EXPECT_THROW((void)amtnet::make_runtime_config(options),
               std::invalid_argument);
  ::unsetenv("AMTNET_SHM_RANK");
  ::setenv("AMTNET_CPU_COUNT", "0", 1);
  EXPECT_THROW((void)amtnet::make_runtime_config(options),
               std::invalid_argument);
  ::unsetenv("AMTNET_CPU_COUNT");
}

// ---------------- {sim, shm} conformance sweep ----------------

namespace conformance {

std::atomic<std::uint64_t> counter{0};

void bump(std::uint64_t amount) { counter.fetch_add(amount); }

std::uint64_t echo_add(std::uint64_t value) { return value + 1; }

double dot(std::vector<double> a, std::vector<double> b) {
  double sum = 0;
  for (std::size_t i = 0; i < a.size(); ++i) sum += a[i] * b[i];
  return sum;
}

struct Param {
  const char* backend;
  const char* config;
};

std::string param_name(const ::testing::TestParamInfo<Param>& info) {
  return std::string(info.param.backend) + "_" + info.param.config;
}

/// The conformance body: a result round trip, a zero-copy round trip, and a
/// bidirectional small-parcel flood — the union of what the main e2e sweep
/// checks, condensed so the {sim, shm} product stays fast.
void run_conformance(const StackOptions& options) {
  auto runtime = amtnet::make_runtime(options);
  counter.store(0);

  std::uint64_t echoed = 0;
  double dotted = 0;
  Latch done(1);
  std::vector<double> a(4096, 2.0), b(4096, 3.0);  // 2 x 32 KiB zero-copy
  runtime->locality(0).spawn([&] {
    echoed = amt::here().async<&echo_add>(1, std::uint64_t{41}).get();
    dotted = amt::here().async<&dot>(1, a, b).get();
    done.count_down();
  });
  done.wait(runtime->locality(0).scheduler());
  EXPECT_EQ(echoed, 42u);
  EXPECT_DOUBLE_EQ(dotted, 4096.0 * 6.0);

  constexpr int kParcels = 200;
  for (amt::Rank r = 0; r < 2; ++r) {
    runtime->locality(r).spawn([&, r] {
      for (int i = 1; i <= kParcels; ++i) {
        amt::here().apply<&bump>(1 - r, static_cast<std::uint64_t>(i));
      }
    });
  }
  const std::uint64_t expected = 2ull * kParcels * (kParcels + 1) / 2;
  ASSERT_TRUE(testutil::spin_until(
      [&] { return counter.load() == expected; },
      std::chrono::milliseconds(20000)))
      << "delivered sum " << counter.load() << "/" << expected;
  runtime->stop();
}

}  // namespace conformance

class BackendConformance
    : public ::testing::TestWithParam<conformance::Param> {};

TEST_P(BackendConformance, RoundTripsZeroCopyAndFloodDeliverExactly) {
  const conformance::Param param = GetParam();
  if (std::string(param.backend) == "shm" && !fabric::shm_available()) {
    GTEST_SKIP() << "POSIX shared memory unavailable on this platform";
  }
  StackOptions options;
  options.parcelport = param.config;
  options.backend = param.backend;
  options.num_localities = 2;
  options.threads_per_locality = 2;
  options.platform = "loopback";
  conformance::run_conformance(options);
}

INSTANTIATE_TEST_SUITE_P(
    SimAndShm, BackendConformance,
    ::testing::ValuesIn(std::vector<conformance::Param>{
        // Both backends x {all 8 LCI variants, fastpath, aggregation, MPI}.
        // The sim rows guard against the sweep itself regressing; the shm
        // rows are the acceptance matrix for the real-memory backend.
        {"sim", "lci_psr_cq_pin_i"},
        {"shm", "lci_psr_cq_pin_i"},
        {"shm", "lci_psr_cq_mt_i"},
        {"shm", "lci_psr_sy_pin_i"},
        {"shm", "lci_psr_sy_mt_i"},
        {"shm", "lci_sr_cq_pin_i"},
        {"shm", "lci_sr_cq_mt_i"},
        {"shm", "lci_sr_sy_pin_i"},
        {"shm", "lci_sr_sy_mt_i"},
        {"sim", "lci_psr_cq_pin_fp_i"},
        {"shm", "lci_psr_cq_pin_fp_i"},
        {"sim", "lci_psr_cq_mt_fp_agg2048_i_block16"},
        {"shm", "lci_psr_cq_mt_fp_agg2048_i_block16"},
        {"sim", "mpi_i"},
        {"shm", "mpi_i"},
    }),
    conformance::param_name);

// ---------------- chaos row on both backends ----------------

namespace chaosrow {

std::atomic<std::uint64_t> sum{0};
std::atomic<std::uint64_t> count{0};

void take(std::uint64_t value) {
  sum.fetch_add(value);
  count.fetch_add(1);
}

}  // namespace chaosrow

class BackendChaos : public ::testing::TestWithParam<const char*> {};

// drop+dup+corrupt are the faults both backends model (shm injects them in
// software on eager datagrams, with the same counter-indexed PRNG as sim);
// the reliability layer must deliver exactly once on either.
TEST_P(BackendChaos, DropDupCorruptStillDeliverExactlyOnce) {
  if (std::string(GetParam()) == "shm" && !fabric::shm_available()) {
    GTEST_SKIP() << "POSIX shared memory unavailable on this platform";
  }
  StackOptions options;
  options.parcelport = "lci_psr_cq_pin_i";
  options.backend = GetParam();
  options.num_localities = 2;
  options.threads_per_locality = 2;
  options.platform = "loopback";
  options.faults.drop = 0.03;
  options.faults.duplicate = 0.03;
  options.faults.corrupt = 0.03;
  options.faults.seed = 0x5eed;
  auto runtime = amtnet::make_runtime(options);

  chaosrow::sum.store(0);
  chaosrow::count.store(0);
  constexpr std::uint64_t kPerSide = 60;
  for (amt::Rank r = 0; r < 2; ++r) {
    runtime->locality(r).spawn([&, r] {
      for (std::uint64_t i = 1; i <= kPerSide; ++i) {
        amt::here().apply<&chaosrow::take>(1 - r, i);
      }
    });
  }
  const std::uint64_t expected = 2 * kPerSide * (kPerSide + 1) / 2;
  ASSERT_TRUE(testutil::spin_until(
      [&] {
        return chaosrow::count.load() == 2 * kPerSide &&
               chaosrow::sum.load() == expected;
      },
      std::chrono::milliseconds(60000)))
      << "delivered " << chaosrow::count.load() << "/" << 2 * kPerSide
      << " parcels, sum=" << chaosrow::sum.load() << "/" << expected;
  EXPECT_EQ(chaosrow::count.load(), 2 * kPerSide);
  EXPECT_EQ(chaosrow::sum.load(), expected);
  runtime->stop();
}

INSTANTIATE_TEST_SUITE_P(SimAndShm, BackendChaos,
                         ::testing::Values("sim", "shm"),
                         [](const ::testing::TestParamInfo<const char*>& i) {
                           return std::string(i.param);
                         });

// ---------------- fallback (ring-segmented) data path ----------------

// AMTNET_SHM_FORCE_FALLBACK=1 disables the direct/CMA copy modes, pushing
// every put/get through segmented ring records — the path taken on
// platforms without process_vm_readv. A small ring depth forces fragments
// to wrap and backpressure the pending-out staging queue.
TEST(ShmFallback, ZeroCopyTrafficSurvivesSegmentedRings) {
  if (!fabric::shm_available()) {
    GTEST_SKIP() << "POSIX shared memory unavailable on this platform";
  }
  ::setenv("AMTNET_SHM_FORCE_FALLBACK", "1", 1);
  ::setenv("AMTNET_SHM_RING_DEPTH", "16", 1);
  StackOptions options;
  options.parcelport = "lci_psr_cq_pin_i";
  options.backend = "shm";
  options.num_localities = 2;
  options.threads_per_locality = 2;
  options.platform = "loopback";
  conformance::run_conformance(options);
  ::unsetenv("AMTNET_SHM_FORCE_FALLBACK");
  ::unsetenv("AMTNET_SHM_RING_DEPTH");
}

// A fallback read whose MR was deregistered before the target served it
// must not pretend success: the requester's kReadDone carries size 0 (not
// the requested length) and the destination buffer stays untouched.
TEST(ShmFallback, RefusedReadCompletesWithZeroSize) {
  if (!fabric::shm_available()) {
    GTEST_SKIP() << "POSIX shared memory unavailable on this platform";
  }
  ::setenv("AMTNET_SHM_FORCE_FALLBACK", "1", 1);
  fabric::Config config;
  config.backend = "shm";
  config.num_ranks = 2;
  fabric::Fabric fab(config);
  fabric::Nic& requester = fab.nic(0);
  fabric::Nic& target = fab.nic(1);

  std::vector<std::byte> region(1024, std::byte{0x5a});
  const fabric::MrKey key =
      target.register_memory(region.data(), region.size());
  std::vector<std::byte> dst(1024, std::byte{0xee});
  ASSERT_EQ(requester.post_read(1, key, 0, dst.data(), dst.size(), 7),
            common::Status::kOk);
  // The request is in flight; deregistering now races it, exactly like a
  // receiver tearing down a rendezvous buffer.
  target.deregister_memory(key);

  target.poll_rx(64, [](fabric::RxEvent&&) {});  // serves (and refuses) it
  std::size_t done_events = 0;
  std::size_t done_size = ~std::size_t{0};
  std::uint64_t done_imm = 0;
  for (int i = 0; i < 100 && done_events == 0; ++i) {
    requester.poll_rx(64, [&](fabric::RxEvent&& event) {
      if (event.kind == fabric::RxEvent::Kind::kReadDone) {
        ++done_events;
        done_size = event.size;
        done_imm = event.imm;
      }
    });
  }
  EXPECT_EQ(done_events, 1u);
  EXPECT_EQ(done_size, 0u);  // NOT the 1024 bytes requested
  EXPECT_EQ(done_imm, 7u);
  const auto untouched = static_cast<std::size_t>(
      std::count(dst.begin(), dst.end(), std::byte{0xee}));
  EXPECT_EQ(untouched, dst.size());
  ::unsetenv("AMTNET_SHM_FORCE_FALLBACK");
}

// poll_rx may run on several threads at once (the Nic contract), so the
// fragments of one fallback write can be consumed concurrently. The
// kWriteImm completion must still only surface after EVERY fragment has
// landed in the MR; the sink verifies the whole region at the moment the
// event fires. Also pins the staged-record telemetry: with a tiny ring
// forcing fragments through the pending queue, each ring record is counted
// exactly once (sender packets_sent == target packets_received).
TEST(ShmFallback, WriteImmSurfacesOnlyAfterAllFragmentsUnderConcurrentPolls) {
  if (!fabric::shm_available()) {
    GTEST_SKIP() << "POSIX shared memory unavailable on this platform";
  }
  ::setenv("AMTNET_SHM_FORCE_FALLBACK", "1", 1);
  fabric::Config config;
  config.backend = "shm";
  config.num_ranks = 2;
  config.srq_buffer_size = 128;  // 4 KiB writes -> 32 fragments
  config.shm_ring_depth = 16;    // smaller than a write: staging engages
  fabric::Fabric fab(config);
  fabric::Nic& writer = fab.nic(0);
  fabric::Nic& target = fab.nic(1);

  constexpr std::size_t kLen = 4096;
  constexpr int kIters = 200;
  std::vector<std::byte> region(kLen, std::byte{0});
  const fabric::MrKey key =
      target.register_memory(region.data(), region.size());

  std::atomic<bool> stop{false};
  std::atomic<int> imm_seen{0};
  std::atomic<int> torn{0};
  auto sink = [&](fabric::RxEvent&& event) {
    if (event.kind != fabric::RxEvent::Kind::kWriteImm) return;
    const auto fill = static_cast<std::byte>(event.imm & 0xff);
    for (std::size_t i = 0; i < kLen; ++i) {
      if (region[i] != fill) {
        torn.fetch_add(1);
        break;
      }
    }
    imm_seen.fetch_add(1);
  };
  std::thread pollers[3];
  for (auto& t : pollers) {
    t = std::thread([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        target.poll_rx(8, sink);
      }
    });
  }

  std::vector<std::byte> src(kLen);
  for (int iter = 1; iter <= kIters; ++iter) {
    const std::uint64_t imm = static_cast<std::uint64_t>(iter) & 0xff;
    std::fill(src.begin(), src.end(), static_cast<std::byte>(imm));
    common::Status status;
    do {
      status = writer.post_write_imm(1, key, 0, src.data(), kLen, imm);
    } while (status == common::Status::kRetry);
    ASSERT_EQ(status, common::Status::kOk);
    while (imm_seen.load() < iter) {
      // The writer's own poll flushes fragments staged on the full ring.
      writer.poll_rx(8, [](fabric::RxEvent&&) {});
      std::this_thread::yield();
    }
  }
  stop.store(true);
  for (auto& t : pollers) t.join();

  EXPECT_EQ(torn.load(), 0);
  EXPECT_EQ(imm_seen.load(), kIters);
  EXPECT_EQ(writer.stats().packets_sent, target.stats().packets_received);
  target.deregister_memory(key);
  ::unsetenv("AMTNET_SHM_FORCE_FALLBACK");
}

// ---------------- real two-process ping-pong ----------------

namespace twoprocess {

std::atomic<bool> stop_flag{false};
std::atomic<std::uint64_t> pings{0};

std::uint64_t echo_add(std::uint64_t value) {
  pings.fetch_add(1);
  return value + 1;
}

void request_stop() { stop_flag.store(true); }

}  // namespace twoprocess

// fork() two ranks that rendezvous over a named shm session — the same
// bootstrap amtnet_launch performs — and run request/response traffic
// across the process boundary. The parent hosts rank 0 and validates; the
// child hosts rank 1, serves until told to stop, and _exit()s.
TEST(ShmTwoProcess, CrossProcessRequestResponse) {
#if !defined(AMTNET_TEST_HAVE_FORK)
  GTEST_SKIP() << "no fork() on this platform";
#else
  if (!fabric::shm_available()) {
    GTEST_SKIP() << "POSIX shared memory unavailable on this platform";
  }
  const std::string session =
      "amtnet-test-" + std::to_string(static_cast<long long>(::getpid()));
  ::setenv("AMTNET_SHM_SESSION", session.c_str(), 1);

  // Action ids are assigned on first use per process; in multi-process mode
  // both ranks must mint them in the same order before any traffic flows.
  // (fork() would inherit a consistent registry anyway; being explicit keeps
  // the test robust under gtest filters and mirrors what SPMD mains do.)
  (void)amt::action_id<&twoprocess::echo_add>();
  (void)amt::action_id<&twoprocess::request_stop>();

  const pid_t child = ::fork();
  ASSERT_GE(child, 0) << "fork failed";

  StackOptions options;
  options.parcelport = "lci_psr_cq_pin_i";
  options.backend = "shm";
  options.num_localities = 2;
  options.threads_per_locality = 2;
  options.platform = "loopback";

  if (child == 0) {
    // Rank 1: serve until rank 0 sends request_stop, then exit without
    // running the parent's gtest machinery.
    ::setenv("AMTNET_SHM_RANK", "1", 1);
    int code = 1;
    try {
      auto runtime = amtnet::make_runtime(options);
      const bool stopped = testutil::spin_until(
          [] { return twoprocess::stop_flag.load(); },
          std::chrono::milliseconds(30000));
      code = stopped && twoprocess::pings.load() > 0 ? 0 : 2;
      runtime->stop();
    } catch (...) {
      code = 3;
    }
    ::_exit(code);
  }

  // Rank 0: drive the exchange and check every response.
  ::setenv("AMTNET_SHM_RANK", "0", 1);
  auto runtime = amtnet::make_runtime(options);
  bool all_ok = false;
  Latch done(1);
  runtime->local_locality().spawn([&] {
    bool ok = true;
    for (std::uint64_t i = 0; i < 32; ++i) {
      ok = ok && amt::here().async<&twoprocess::echo_add>(1, i).get() == i + 1;
    }
    amt::here().apply<&twoprocess::request_stop>(1);
    all_ok = ok;
    done.count_down();
  });
  done.wait(runtime->local_locality().scheduler());
  EXPECT_TRUE(all_ok);

  int status = -1;
  ASSERT_EQ(::waitpid(child, &status, 0), child);
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
      << "child status " << status;
  runtime->stop();
  ::unsetenv("AMTNET_SHM_RANK");
  ::unsetenv("AMTNET_SHM_SESSION");
#endif
}
