// Rung 2, module `minilci`: Device::put_dyn (the parcelport's psr header
// path) for 8 B parcels, Device::sendl / recvl (rendezvous) for 16 KiB,
// with Device::progress on the polling threads.
#include <memory>
#include <stdexcept>

#include "driver.hpp"
#include "rungs.hpp"
#include "fabric/nic.hpp"
#include "minilci/device.hpp"
#include "stack/stack.hpp"

namespace perfbench {

namespace {

constexpr minilci::Tag kReplyTag = minilci::Tag{1} << 31;
// Receives locality 1 keeps posted ahead of the sender (16 KiB), and the
// sender's cap on sends awaiting local completion.
constexpr std::uint64_t kRecvWindow = kFloodWindow;

fabric::Config fabric_config(const Ctx& ctx) {
  fabric::Config config = amtnet::platform_config("loopback", 2);
  config.backend = ctx.w().backend;
  if (config.is_shm()) {
    config.local_rank = ctx.two_process() ? ctx.opt().rank : -1;
    config.shm_session = ctx.two_process() ? ctx.shm_session("minilci") : "";
  }
  return config;
}

bool accepted(common::Status status) {
  if (status == common::Status::kError) {
    throw std::runtime_error("minilci refused a post permanently");
  }
  return status == common::Status::kOk;
}

class MinilciEndpoint final : public Endpoint {
 public:
  explicit MinilciEndpoint(Ctx& ctx)
      : ctx_(ctx), fabric_(fabric_config(ctx)), long_(ctx.w().payload > 8192) {
    for (unsigned loc = 0; loc < 2; ++loc) {
      if (!ctx.hosts(loc)) continue;
      devices_[loc] = std::make_unique<minilci::Device>(
          fabric_, loc, minilci::Config{}, &remote_puts_[loc]);
    }
    if (long_ && ctx.hosts(1)) {
      buffers_.assign(kRecvWindow, std::vector<std::uint8_t>(ctx.w().payload));
      for (std::uint64_t seq = 0; seq < kRecvWindow; ++seq) post_recv(seq);
    }
  }

  bool post(unsigned from, std::uint64_t seq, bool reply) override {
    const auto& payload = ctx_.payloads().for_seq(seq);
    minilci::Device& dev = *devices_[from];
    if (!long_) {
      const minilci::Tag tag =
          static_cast<minilci::Tag>(seq) | (reply ? kReplyTag : 0);
      return accepted(dev.put_dyn(1 - from, tag, payload.data(),
                                  payload.size(), minilci::Comp::none()));
    }
    if (sends_ - send_done_.load(std::memory_order_acquire) >= kRecvWindow) {
      return false;  // the send window is full of unfinished rendezvous
    }
    if (!accepted(dev.sendl(1, static_cast<minilci::Tag>(seq), payload.data(),
                            payload.size(),
                            minilci::Comp::queue(&send_done_cq_)))) {
      return false;
    }
    ++sends_;
    return true;
  }

  bool poll(unsigned loc) override {
    minilci::Device& dev = *devices_[loc];
    std::size_t handled = dev.progress();
    handled += remote_puts_[loc].poll_batch(16, [&](minilci::CqEntry&& e) {
      deliver(loc, e.tag & ~kReplyTag, (e.tag & kReplyTag) != 0,
              reinterpret_cast<const std::uint8_t*>(e.data.data()),
              e.data.size());
    });
    if (long_ && loc == 0) {
      const std::size_t n = send_done_cq_.poll_batch(64, [](minilci::CqEntry&&) {});
      send_done_.fetch_add(n, std::memory_order_release);
      handled += n;
    }
    if (long_ && loc == 1) {
      handled += recv_cq_.poll_batch(16, [&](minilci::CqEntry&& e) {
        const std::uint64_t seq = e.user_context;
        deliver(1, seq, false, buffers_[seq % kRecvWindow].data(), e.size);
        post_recv(seq + kRecvWindow);
      });
    }
    return handled > 0;
  }

  void publish_counts(Control& c) override {
    for (unsigned loc = 0; loc < 2; ++loc) {
      if (!ctx_.hosts(loc)) continue;
      const fabric::NicStats stats = fabric_.nic(loc).stats();
      c.tx[loc].store(stats.packets_sent);
      c.rx[loc].store(stats.packets_received);
    }
  }

  /// Exact pool balance: with traffic stopped, every packet of every
  /// hosted device's pool can be allocated again.
  bool pools_balanced() {
    for (auto& dev : devices_) {
      if (!dev) continue;
      std::vector<minilci::PacketBuffer> held;
      while (auto packet = dev->try_alloc_packet()) {
        held.push_back(std::move(*packet));
      }
      if (held.size() != minilci::Config{}.packet_pool_size) return false;
    }
    return true;
  }

  const char* post_name() const override { return "minilci.post"; }
  const char* poll_name() const override { return "minilci.progress"; }

 private:
  void post_recv(std::uint64_t seq) {
    auto& buf = buffers_[seq % kRecvWindow];
    while (!accepted(devices_[1]->recvl(0, static_cast<minilci::Tag>(seq),
                                        buf.data(), buf.size(),
                                        minilci::Comp::queue(&recv_cq_), seq))) {
    }
  }

  Ctx& ctx_;
  fabric::Fabric fabric_;
  const bool long_;
  minilci::CompQueue remote_puts_[2];
  minilci::CompQueue send_done_cq_;
  minilci::CompQueue recv_cq_;
  std::unique_ptr<minilci::Device> devices_[2];
  std::vector<std::vector<std::uint8_t>> buffers_;
  std::uint64_t sends_ = 0;  // sender thread only
  std::atomic<std::uint64_t> send_done_{0};
};

}  // namespace

RungResult run_minilci_rung(Ctx& ctx, std::string& chrome) {
  RungResult out;
  out.rung = "minilci";
  ctx.reset_receiver();
  ctx.barrier();
  MinilciEndpoint ep(ctx);
  drive(ctx, ep, out, chrome);
  if (!ep.pools_balanced()) out.fail("minilci: packet pool not balanced");
  ctx.barrier();
  return out;
}

}  // namespace perfbench
