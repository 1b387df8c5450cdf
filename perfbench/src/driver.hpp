// The traffic driver shared by the three lower rungs (fabric, minilci,
// parcelport_lci). A rung supplies an Endpoint — how to inject one parcel
// and how to make one progress call at a locality — and the driver replays
// the workload's shape over it: the flood (one sender, pollers standing in
// for the progress threads) or the window-1 ping-pong (pollers standing in
// for the workers), with the same thread count per locality as the full
// runtime.
#pragma once

#include <cstddef>
#include <cstdint>

#include "common.hpp"

namespace perfbench {

class Endpoint {
 public:
  virtual ~Endpoint() = default;
  /// Injects parcel `seq` from locality `from` to the other one (`reply`:
  /// the ping-pong's answer). Returns false on a retry-later refusal.
  virtual bool post(unsigned from, std::uint64_t seq, bool reply) = 0;
  /// One progress call at locality `loc`; arrivals go to deliver(). Returns
  /// whether it handled anything.
  virtual bool poll(unsigned loc) = 0;
  /// NIC packet counts of the hosted localities, for the quiesce check.
  virtual void publish_counts(Control& ctl) = 0;
  /// Span names of this rung's injection and progress calls.
  virtual const char* post_name() const = 0;
  virtual const char* poll_name() const = 0;
  /// The flood sender runs locality 0's poll every this many parcels
  /// (0: a separate poller thread does it).
  virtual unsigned sender_poll_every() const { return 0; }

  /// Called by the rung for every parcel that reached locality `loc`.
  void deliver(unsigned loc, std::uint64_t seq, bool reply,
               const std::uint8_t* data, std::size_t len);

  Ctx* ctx = nullptr;
  // Ping-pong state, owned by the driver: the post each locality owes
  // (seq + 1, 0 = none), the round's pong count and deadline.
  std::atomic<std::uint64_t> reply_due[2] = {0, 0};
  std::atomic<std::uint64_t> pongs{0};
  std::atomic<bool> pingpong_on{false};
  std::int64_t pingpong_deadline = 0;
};

/// Runs the workload's rounds over `ep` (setup and teardown stay with the
/// rung). Fills timing, per-call samples and tallies into `out`.
void drive(Ctx& ctx, Endpoint& ep, RungResult& out, std::string& chrome);

}  // namespace perfbench
