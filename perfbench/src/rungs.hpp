// Entry points of the four rungs and the helpers the upper two share.
#pragma once

#include <map>
#include <string>

#include "amt/runtime.hpp"
#include "common.hpp"
#include "telemetry/registry.hpp"

namespace perfbench {

/// A flood sender without its own progress poller runs locality 0's
/// background work once per this many parcels, as an HPX worker does
/// between tasks.
inline constexpr unsigned kSenderPollEvery = 64;

/// The workload's stack configuration (parcelport name, workers, loopback
/// platform; shm ranks from the launcher), with the shm rendezvous name
/// made unique per `tag` in two-process runs.
amt::RuntimeConfig runtime_config(const Ctx& ctx, const std::string& tag);

/// The registry counters the per-layer metrics divide by ops, summed over
/// this process's instances, plus the receiving device's progress-time sum
/// and call count.
std::map<std::string, double> registry_counters(const telemetry::Snapshot& snap);

/// At teardown nothing may remain queued in the parcelport: no send waiting
/// for its done callback, no follow-up piece in flight, empty queues.
void check_parcelport_drained(const telemetry::Snapshot& snap, RungResult& out);

/// Mints the amt rung's action ids; both ranks call it before any traffic.
void register_actions();

RungResult run_fabric_rung(Ctx& ctx, std::string& chrome);
RungResult run_minilci_rung(Ctx& ctx, std::string& chrome);
RungResult run_parcelport_rung(Ctx& ctx, std::string& chrome);
/// The full action rung: repeated set-up, then the workload's rounds.
/// `traced` records spans and one-way latencies.
RungResult run_amt_rung(Ctx& ctx, bool traced, std::string& chrome);

}  // namespace perfbench
