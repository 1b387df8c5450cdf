// Ping-pong latency demo across parcelport configurations.
//
// Runs a small ping-pong exchange (one chain, like the paper's latency
// microbenchmark with window size 1) over several Table-1 configurations
// and prints the measured one-way latency per message size — a minimal,
// human-readable version of what the fig7_latency_size suite measures in
// full.
//
// Usage: pingpong [rounds=200]
//
// Under `amtnet_launch -n 2 -- pingpong` (shm backend, one process per
// locality) the program runs SPMD: rank 0 drives the rally over one
// configuration while rank 1 serves pings until told to stop.
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/clock.hpp"
#include "common/config.hpp"
#include "stack/stack.hpp"

namespace {

std::atomic<int> remaining{0};
std::atomic<bool> done{false};
std::atomic<bool> stop_serving{false};

void pong(std::vector<std::uint8_t> payload);

void ping(std::vector<std::uint8_t> payload) {
  // Runs on locality 1: bounce the payload back.
  amt::here().apply<&pong>(0, std::move(payload));
}

void pong(std::vector<std::uint8_t> payload) {
  // Runs on locality 0: keep the rally going or finish.
  if (remaining.fetch_sub(1) > 1) {
    amt::here().apply<&ping>(1, std::move(payload));
  } else {
    done.store(true);
  }
}

void request_stop() { stop_serving.store(true); }

/// One rank's role of the rally, for multi-process launches. Action ids
/// are minted on first use per process, so every rank registers them in
/// the same order before any traffic flows.
int run_spmd(int rank, int rounds) {
  (void)amt::action_id<&ping>();
  (void)amt::action_id<&pong>();
  (void)amt::action_id<&request_stop>();
  amtnet::StackOptions options;
  options.parcelport = "lci_psr_cq_pin_i";
  options.num_localities = 2;  // AMTNET_SHM_RANKS (from the launcher) wins
  options.threads_per_locality = 2;
  auto runtime = amtnet::make_runtime(options);
  amt::Locality& self = runtime->local_locality();

  if (rank == 0) {
    std::printf("%-20s %10s %14s\n", "config", "size(B)", "latency(us)");
    for (const std::size_t size : {8u, 1024u, 16384u}) {
      remaining.store(rounds);
      done.store(false);
      common::Timer timer;
      self.spawn([size] {
        amt::here().apply<&ping>(1, std::vector<std::uint8_t>(size, 7));
      });
      self.scheduler().wait_until([] { return done.load(); });
      std::printf("%-20s %10zu %14.2f\n", "lci_psr_cq_pin_i (shm)", size,
                  timer.elapsed_us() / (2.0 * rounds));
    }
    for (amt::Rank r = 1; r < self.num_localities(); ++r) {
      self.spawn([r] { amt::here().apply<&request_stop>(r); });
    }
    // Keep progressing briefly so the stop parcels drain before teardown.
    const common::Nanos deadline = common::now_ns() + 200'000'000;
    self.scheduler().wait_until(
        [deadline] { return common::now_ns() > deadline; });
  } else {
    self.scheduler().wait_until([] { return stop_serving.load(); });
  }
  runtime->stop();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const int rounds = argc > 1 ? std::stoi(argv[1]) : 200;
  // Launched as one-process-per-locality (amtnet_launch sets the rank)?
  if (std::getenv("AMTNET_SHM_RANK") != nullptr) {
    return run_spmd(static_cast<int>(common::env_int(
                        "AMTNET_SHM_RANK", 0, 0, amtnet::kMaxLaunchRanks - 1)),
                    rounds);
  }
  std::printf("%-20s %10s %14s\n", "config", "size(B)", "latency(us)");

  for (const char* config :
       {"mpi", "mpi_i", "lci_psr_cq_pin", "lci_psr_cq_pin_i"}) {
    amtnet::StackOptions options;
    options.parcelport = config;
    options.num_localities = 2;
    options.threads_per_locality = 2;
    auto runtime = amtnet::make_runtime(options);

    for (const std::size_t size : {8u, 1024u, 16384u}) {
      remaining.store(rounds);
      done.store(false);
      common::Timer timer;
      runtime->locality(0).spawn([size] {
        amt::here().apply<&ping>(1, std::vector<std::uint8_t>(size, 7));
      });
      runtime->locality(0).scheduler().wait_until(
          [] { return done.load(); });
      const double one_way_us =
          timer.elapsed_us() / (2.0 * rounds);
      std::printf("%-20s %10zu %14.2f\n", config, size, one_way_us);
    }
    runtime->stop();
  }
  return 0;
}
