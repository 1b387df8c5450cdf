// Chaos sweep: message rate under escalating fault injection, plus the cost
// of the integrity machinery itself.
//
// Three regimes per configuration:
//   * clean        — faults off, integrity off: the fault-free baseline.
//   * integrity    — zero fault probabilities but FaultConfig::integrity:
//                    CRC trailers, acks, and retransmit tracking run on a
//                    polite network. The clean-vs-integrity gap is the pure
//                    protocol overhead (acceptance: within noise for the
//                    fault-free case only when integrity is off, which is
//                    the default).
//   * drop/dup/corrupt at 1%, 3%, 5% — throughput under real chaos: rates
//                    degrade with retransmits but every run still delivers
//                    everything (the harness validates counts internally).
//
// Each regime is a fabric::FaultConfig handed to the harness through
// RateParams::faults, the same StackOptions::faults path programs use.
// Seeds are fixed per point; rerunning reproduces the same fault pattern.
#include <cstdio>

#include "harness.hpp"

namespace {

struct Regime {
  const char* label;
  double rate;  // P(drop) = P(duplicate) = P(corrupt)
  bool integrity;
};

fabric::FaultConfig faults_of(const Regime& regime) {
  fabric::FaultConfig faults;
  faults.drop = regime.rate;
  faults.duplicate = regime.rate;
  faults.corrupt = regime.rate;
  faults.integrity = regime.integrity;
  faults.seed = 12345;
  return faults;
}

}  // namespace

int main(int argc, char** argv) {
  const auto env = bench::env_from_args(argc, argv);
  bench::print_header(
      "Chaos sweep: 8-byte message rate vs injected fault intensity",
      "integrity-only matches clean within protocol-overhead noise; rates "
      "degrade gracefully as drop/dup/corrupt rise to 5% with zero lost or "
      "corrupted deliveries",
      env);

  const Regime regimes[] = {
      {"clean", 0.0, false},
      {"integrity", 0.0, true},
      {"faults_1pct", 0.01, false},
      {"faults_3pct", 0.03, false},
      {"faults_5pct", 0.05, false},
  };
  const char* configs[] = {"lci_psr_cq_pin_i", "mpi_i"};

  std::printf(
      "regime,config,attempted_K/s,achieved_injection_K/s,"
      "message_rate_K/s,stddev_K/s\n");
  for (const char* config : configs) {
    for (const Regime& regime : regimes) {
      bench::RateParams params;
      params.parcelport = config;
      params.msg_size = 8;
      params.total_msgs = static_cast<std::size_t>(20000 * env.scale);
      params.workers = env.workers;
      params.faults = faults_of(regime);
      std::printf("%s,", regime.label);
      bench::report_rate_point(params, env.repetitions);
    }
  }
  return 0;
}
