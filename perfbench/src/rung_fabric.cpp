// Rung 1, module `fabric`: raw Nic::post_send / poll_rx (8 B parcels) and
// Nic::post_write_imm into a registered region (16 KiB parcels), on the sim
// backend in one process or on shm across the two launched ranks.
#include <cstring>
#include <stdexcept>

#include "driver.hpp"
#include "rungs.hpp"
#include "fabric/nic.hpp"
#include "stack/stack.hpp"

namespace perfbench {

namespace {

constexpr std::uint64_t kCreditBit = std::uint64_t{1} << 63;
constexpr std::uint64_t kReplyBit = std::uint64_t{1} << 62;
constexpr std::uint64_t kSeqMask = kReplyBit - 1;
// Receiver region for one-sided writes, and how many freed slots one credit
// message returns. The region holds the flood window plus the credits not
// yet returned, so the window, not the region, throttles the sender.
constexpr std::uint64_t kCreditBatch = 16;
constexpr std::size_t kRegionSlots = kFloodWindow + 4 * kCreditBatch;

fabric::Config fabric_config(const Ctx& ctx) {
  fabric::Config config = amtnet::platform_config("loopback", 2);
  config.backend = ctx.w().backend;
  if (config.is_shm()) {
    config.local_rank = ctx.two_process() ? ctx.opt().rank : -1;
    config.shm_session = ctx.two_process() ? ctx.shm_session("fabric") : "";
  }
  return config;
}

bool accepted(common::Status status) {
  if (status == common::Status::kError) {
    throw std::runtime_error("fabric refused a post permanently");
  }
  return status == common::Status::kOk;
}

class FabricEndpoint final : public Endpoint {
 public:
  explicit FabricEndpoint(Ctx& ctx)
      : ctx_(ctx), fabric_(fabric_config(ctx)), one_sided_(ctx.w().payload > 8192) {
    if (one_sided_ && ctx.hosts(1)) {
      region_.resize(kRegionSlots * ctx.w().payload);
      key_ = fabric_.nic(1).register_memory(region_.data(), region_.size());
      ctx.ctl().mr_rank.store(key_.rank);
      ctx.ctl().mr_id.store(key_.id, std::memory_order_release);
    }
  }
  ~FabricEndpoint() override {
    if (!region_.empty()) fabric_.nic(1).deregister_memory(key_);
  }

  bool post(unsigned from, std::uint64_t seq, bool reply) override {
    const auto& payload = ctx_.payloads().for_seq(seq);
    fabric::Nic& nic = fabric_.nic(from);
    if (!one_sided_) {
      return accepted(nic.post_send(1 - from, payload.data(), payload.size(),
                                    seq | (reply ? kReplyBit : 0)));
    }
    Control& c = ctx_.ctl();
    if (writes_ - c.credits.load(std::memory_order_acquire) >= kRegionSlots) {
      return false;  // every region slot still holds an unread parcel
    }
    const fabric::MrKey key{static_cast<fabric::Rank>(c.mr_rank.load()),
                            c.mr_id.load(std::memory_order_acquire)};
    const std::size_t offset = (seq % kRegionSlots) * payload.size();
    if (!accepted(nic.post_write_imm(1, key, offset, payload.data(),
                                     payload.size(), seq))) {
      return false;
    }
    ++writes_;
    return true;
  }

  bool poll(unsigned loc) override {
    return fabric_.nic(loc).poll_rx(64, [&](fabric::RxEvent&& event) {
             on_event(loc, std::move(event));
           }) > 0;
  }

  void publish_counts(Control& c) override {
    for (unsigned loc = 0; loc < 2; ++loc) {
      if (!ctx_.hosts(loc)) continue;
      const fabric::NicStats stats = fabric_.nic(loc).stats();
      c.tx[loc].store(stats.packets_sent);
      c.rx[loc].store(stats.packets_received);
    }
  }

  const char* post_name() const override { return "fabric.post"; }
  const char* poll_name() const override { return "fabric.poll_rx"; }

 private:
  void on_event(unsigned loc, fabric::RxEvent&& event) {
    if (event.kind == fabric::RxEvent::Kind::kWriteImm) {
      const std::uint64_t seq = event.imm;
      const std::size_t size = ctx_.w().payload;
      deliver(loc, seq, false, region_.data() + (seq % kRegionSlots) * size,
              event.size);
      if (++freed_ % kCreditBatch == 0) {
        while (!accepted(fabric_.nic(1).post_send(0, nullptr, 0,
                                                  kCreditBit | kCreditBatch))) {
        }
      }
      return;
    }
    if (event.kind != fabric::RxEvent::Kind::kRecv) return;
    if (event.imm & kCreditBit) {
      ctx_.ctl().credits.fetch_add(event.imm & ~kCreditBit,
                                   std::memory_order_release);
      return;
    }
    deliver(loc, event.imm & kSeqMask, (event.imm & kReplyBit) != 0,
            reinterpret_cast<const std::uint8_t*>(event.payload.data()),
            event.payload.size());
  }

  Ctx& ctx_;
  fabric::Fabric fabric_;
  const bool one_sided_;
  std::vector<std::uint8_t> region_;
  fabric::MrKey key_;
  std::uint64_t writes_ = 0;  // sender thread only
  std::uint64_t freed_ = 0;   // locality 1's poller only
};

}  // namespace

RungResult run_fabric_rung(Ctx& ctx, std::string& chrome) {
  RungResult out;
  out.rung = "fabric";
  ctx.reset_receiver();
  ctx.barrier();
  FabricEndpoint ep(ctx);
  drive(ctx, ep, out, chrome);
  ctx.barrier();
  return out;
}

}  // namespace perfbench
