// The multi-process half of the transport-backend ablation: the scaling
// probe the simulator cannot express. The single-process half (sim vs shm
// points, same parcelport and traffic) is the registered suite, run with
// `bench_suite --run ablation_backend`.
//
// Default mode runs — when POSIX shm and fork() are available — a 4-rank
// scaling probe: the same 8 B pair flood once inside
// ONE process (4 simulator localities sharing one scheduler pool) and once
// across FOUR processes over shm rings, equal total worker count. On a
// multi-core machine the 4-process arm is expected to scale past the
// single-process ceiling (target: >= 2x on >= 4 cores); the ratio is
// recorded, never gated — it is a property of the machine.
//
// SPMD mode (`--spmd-rate [msgs]`) runs ONE rank's role of that flood in
// the current process, for use under the launcher:
//   amtnet_launch -n 4 -- bench_ablation_backend --spmd-rate 20000
// Even ranks flood rank+1; odd ranks sink and ack. Every rank prints its
// own rate row and exits 0 on success — the CI shm-smoke sanity bench.
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/wait.h>
#include <unistd.h>
#define AMTNET_BENCH_HAVE_FORK 1
#endif

#include "common/affinity.hpp"
#include "common/clock.hpp"
#include "common/config.hpp"
#include "expdriver/driver.hpp"
#include "fabric/backend_shm.hpp"
#include "stack/stack.hpp"

namespace {

std::atomic<std::uint64_t> g_received{0};
std::atomic<bool> g_ack{false};

void flood_sink(std::vector<std::uint8_t> payload) {
  (void)payload;
  g_received.fetch_add(1, std::memory_order_relaxed);
}

void flood_ack() { g_ack.store(true, std::memory_order_release); }

/// Multi-process action ids are assigned on first use per process; every
/// rank must mint them in the same order before any traffic flows.
void register_flood_actions() {
  (void)amt::action_id<&flood_sink>();
  (void)amt::action_id<&flood_ack>();
}

bool spin_until(const std::atomic<bool>& flag, double timeout_s) {
  const common::Nanos deadline =
      common::now_ns() + static_cast<common::Nanos>(timeout_s * 1e9);
  while (!flag.load(std::memory_order_acquire)) {
    if (common::now_ns() > deadline) return false;
    std::atomic_signal_fence(std::memory_order_seq_cst);
  }
  return true;
}

/// This process's role in the pair flood: even ranks send `total` 8 B
/// parcels to rank+1 and wait for the ack; odd ranks sink `total` parcels,
/// ack the sender, and wait for the ack-ack. Returns the sender-side rate
/// in messages/s (0.0 for receivers), negative on timeout.
double run_flood_role(amt::Runtime& runtime, amt::Rank rank,
                      std::size_t total) {
  amt::Locality& self = runtime.local_locality();
  g_received.store(0);
  g_ack.store(false);

  if (rank % 2 == 0) {
    const amt::Rank dst = rank + 1;
    const std::vector<std::uint8_t> payload(8, 0x42);
    const common::Nanos t0 = common::now_ns();
    self.spawn([&, dst] {
      amt::Locality& here = amt::here();
      for (std::size_t i = 0; i < total; ++i) {
        here.apply<&flood_sink>(dst, payload);
      }
    });
    if (!spin_until(g_ack, 120.0)) return -1.0;
    const double elapsed_s = common::ns_to_s(common::now_ns() - t0);
    self.spawn([dst] { amt::here().apply<&flood_ack>(dst); });
    return elapsed_s > 0.0 ? static_cast<double>(total) / elapsed_s : 0.0;
  }

  // Receiver: drain, ack, wait for the ack-ack so the sender's last
  // messages are out of the rings before either side tears down.
  const amt::Rank src = rank - 1;
  const common::Nanos deadline =
      common::now_ns() + static_cast<common::Nanos>(120.0 * 1e9);
  while (g_received.load(std::memory_order_relaxed) < total) {
    if (common::now_ns() > deadline) return -1.0;
  }
  self.spawn([src] { amt::here().apply<&flood_ack>(src); });
  (void)spin_until(g_ack, 10.0);  // best effort: teardown is safe anyway
  return 0.0;
}

/// Single-process arm: 4 simulator localities in one runtime, ranks 0->1
/// and 2->3 flooding concurrently. Returns the aggregate rate in msgs/s.
double run_single_process_arm(std::size_t per_pair, unsigned workers) {
  amtnet::StackOptions options;
  options.parcelport = "lci_psr_cq_pin_i";
  options.num_localities = 4;
  options.threads_per_locality = workers;
  options.platform = "loopback";
  auto runtime = amtnet::make_runtime(options);
  g_received.store(0);
  const std::vector<std::uint8_t> payload(8, 0x42);
  const common::Nanos t0 = common::now_ns();
  for (const amt::Rank sender : {amt::Rank{0}, amt::Rank{2}}) {
    runtime->locality(sender).spawn([&, sender] {
      amt::Locality& here = amt::here();
      for (std::size_t i = 0; i < per_pair; ++i) {
        here.apply<&flood_sink>(sender + 1, payload);
      }
    });
  }
  const std::size_t expected = 2 * per_pair;
  while (g_received.load(std::memory_order_relaxed) < expected) {
  }
  const double elapsed_s = common::ns_to_s(common::now_ns() - t0);
  runtime->stop();
  return elapsed_s > 0.0 ? static_cast<double>(expected) / elapsed_s : 0.0;
}

int run_spmd_rate(std::size_t per_pair) {
  if (std::getenv("AMTNET_SHM_RANK") == nullptr ||
      std::getenv("AMTNET_SHM_RANKS") == nullptr) {
    std::fprintf(stderr,
                 "--spmd-rate requires the amtnet_launch environment "
                 "(AMTNET_SHM_RANK / AMTNET_SHM_RANKS)\n");
    return 2;
  }
  // The same strict reader the stack uses, so a malformed value is refused
  // by name here instead of reading as rank or count 0.
  int rank = 0;
  int ranks = 0;
  try {
    ranks = static_cast<int>(common::env_int("AMTNET_SHM_RANKS", 0, 1,
                                             amtnet::kMaxLaunchRanks));
    rank = static_cast<int>(common::env_int("AMTNET_SHM_RANK", 0, 0,
                                            ranks - 1));
  } catch (const std::invalid_argument& error) {
    std::fprintf(stderr, "--spmd-rate: %s\n", error.what());
    return 2;
  }
  if (ranks < 2 || ranks % 2 != 0) {
    std::fprintf(stderr, "--spmd-rate needs an even rank count, got %d\n",
                 ranks);
    return 2;
  }
  register_flood_actions();
  amtnet::StackOptions options;
  options.parcelport = "lci_psr_cq_pin_i";
  options.backend = "shm";
  options.num_localities = static_cast<amt::Rank>(ranks);
  options.threads_per_locality = 2;
  options.platform = "loopback";
  auto runtime = amtnet::make_runtime(options);
  const double rate =
      run_flood_role(*runtime, static_cast<amt::Rank>(rank), per_pair);
  if (rate < 0.0) {
    std::fprintf(stderr, "rank %d: flood timed out\n", rank);
    return 1;
  }
  if (rank % 2 == 0) {
    std::printf("spmd_rank,%d,msgs,%zu,rate_kps,%.1f\n", rank, per_pair,
                rate / 1e3);
    std::fflush(stdout);
  }
  runtime->stop();
  return 0;
}

#if defined(AMTNET_BENCH_HAVE_FORK)
/// Four-process arm: fork 4 ranks over a private shm session, each running
/// run_flood_role; sender children report their rate through a pipe.
/// Returns the aggregate rate in msgs/s, or a negative value on failure.
double run_multi_process_arm(std::size_t per_pair, unsigned workers) {
  constexpr int kRanks = 4;
  const std::string session =
      "amtnet-bench-" + std::to_string(static_cast<long long>(::getpid()));
  ::setenv("AMTNET_SHM_SESSION", session.c_str(), 1);

  int pipes[kRanks][2];
  pid_t pids[kRanks];
  for (int r = 0; r < kRanks; ++r) {
    if (::pipe(pipes[r]) != 0) return -1.0;
    const pid_t pid = ::fork();
    if (pid < 0) return -1.0;
    if (pid == 0) {
      ::close(pipes[r][0]);
      ::setenv("AMTNET_SHM_RANK", std::to_string(r).c_str(), 1);
      int code = 1;
      double rate = 0.0;
      try {
        amtnet::StackOptions options;
        options.parcelport = "lci_psr_cq_pin_i";
        options.backend = "shm";
        options.num_localities = kRanks;
        options.threads_per_locality = workers;
        options.platform = "loopback";
        auto runtime = amtnet::make_runtime(options);
        rate = run_flood_role(*runtime, static_cast<amt::Rank>(r), per_pair);
        runtime->stop();
        code = rate < 0.0 ? 1 : 0;
      } catch (...) {
        code = 1;
      }
      (void)!::write(pipes[r][1], &rate, sizeof(rate));
      ::close(pipes[r][1]);
      ::_exit(code);
    }
    pids[r] = pid;
    ::close(pipes[r][1]);
  }

  double aggregate = 0.0;
  bool ok = true;
  for (int r = 0; r < kRanks; ++r) {
    double rate = 0.0;
    if (::read(pipes[r][0], &rate, sizeof(rate)) == sizeof(rate) &&
        rate > 0.0) {
      aggregate += rate;
    }
    ::close(pipes[r][0]);
    int status = 0;
    ::waitpid(pids[r], &status, 0);
    ok = ok && WIFEXITED(status) && WEXITSTATUS(status) == 0;
  }
  ::unsetenv("AMTNET_SHM_SESSION");
  return ok ? aggregate : -1.0;
}
#endif  // AMTNET_BENCH_HAVE_FORK

void run_scaling_probe() {
  if (!fabric::shm_available()) {
    std::printf("\n# multi-process scaling probe skipped: no POSIX shm\n");
    return;
  }
#if !defined(AMTNET_BENCH_HAVE_FORK)
  std::printf("\n# multi-process scaling probe skipped: no fork()\n");
#else
  const expdriver::RunEnv env = expdriver::run_env_from_environment();
  const std::size_t per_pair =
      expdriver::scaled_count(20000, env.scale);
  // Equal total worker count: 4 localities x W threads in one process vs
  // 4 processes x W threads. W comes from the bench worker knob, split.
  const unsigned workers = env.workers >= 4 ? env.workers / 4 : 1;
  register_flood_actions();

  const double single = run_single_process_arm(per_pair, workers);
  const double multi = run_multi_process_arm(per_pair, workers);
  std::printf("\n# 8 B pair-flood scaling, equal total workers (4 x %u): one "
              "process (sim, 4 localities) vs four processes (shm). The "
              ">= 2x target applies on >= 4 cores; this machine has %u.\n",
              workers, common::hardware_core_count());
  std::printf("mode,processes,workers_total,rate_kps\n");
  std::printf("sim_1proc,1,%u,%.1f\n", 4 * workers, single / 1e3);
  if (multi < 0.0) {
    std::printf("shm_4proc,4,%u,failed\n", 4 * workers);
    return;
  }
  std::printf("shm_4proc,4,%u,%.1f\n", 4 * workers, multi / 1e3);
  if (single > 0.0) {
    std::printf("speedup,,,%.2f\n", multi / single);
  }
  std::fflush(stdout);
#endif
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 1) {
    run_scaling_probe();
    return 0;
  }
  if (std::strcmp(argv[1], "--spmd-rate") == 0 && argc <= 3) {
    const std::size_t msgs =
        argc == 3 ? std::strtoull(argv[2], nullptr, 10) : 20000;
    return run_spmd_rate(msgs == 0 ? 20000 : msgs);
  }
  std::fprintf(stderr,
               "usage: %s                  4-rank scaling probe\n"
               "       %s --spmd-rate [N]  one rank of the flood, under "
               "amtnet_launch\n",
               argv[0], argv[0]);
  return 2;
}
