// Rung 3, module `parcelport_lci`: LciParcelport::send of a message the
// benchmark serializes itself, with background_work called from the
// benchmark's own threads and arrivals counted by the context's deliver
// callback. No scheduler and no action layer run.
#include <memory>
#include <string>

#include "amt/serialization.hpp"
#include "driver.hpp"
#include "parcelport_lci/parcelport_lci.hpp"
#include "rungs.hpp"
#include "stack/stack.hpp"

namespace perfbench {

namespace {

// Action ids written into the serialized header, so the message has the
// same layout and size as a one-parcel action message.
constexpr amt::ActionId kPingAction = 7;
constexpr amt::ActionId kPongAction = 8;

class ParcelportEndpoint final : public Endpoint {
 public:
  explicit ParcelportEndpoint(Ctx& ctx)
      : ctx_(ctx), config_(runtime_config(ctx, "pp")), fabric_(config_.fabric) {
    for (unsigned loc = 0; loc < 2; ++loc) {
      if (!ctx.hosts(loc)) continue;
      amt::ParcelportContext pc;
      pc.fabric = &fabric_;
      pc.rank = loc;
      pc.zero_copy_threshold = config_.zero_copy_threshold;
      pc.num_workers = config_.threads_per_locality;
      pc.config = config_.parcelport;
      pc.deliver = [this, loc](amt::InMessage&& msg) {
        on_message(loc, std::move(msg));
      };
      ports_[loc] = std::make_unique<pplci::LciParcelport>(pc);
      ports_[loc]->start();
    }
  }
  ~ParcelportEndpoint() override {
    for (auto& port : ports_) {
      if (port) port->stop();
    }
  }

  bool post(unsigned from, std::uint64_t seq, bool reply) override {
    amt::OutputArchive ar(config_.zero_copy_threshold);
    ar << std::uint32_t{1} << (reply ? kPongAction : kPingAction)
       << std::uint64_t{0} << seq << ctx_.payloads().for_seq(seq);
    ports_[from]->send(1 - from, ar.finish(), [] {});
    return true;
  }

  bool poll(unsigned loc) override {
    // Each polling thread keeps its own worker index, as scheduler
    // workers do (the parcelport keeps per-worker backoff state).
    thread_local const void* owner = nullptr;
    thread_local unsigned index = 0;
    if (owner != this) {
      owner = this;
      index = next_index_[loc].fetch_add(1) % config_.threads_per_locality;
    }
    return ports_[loc]->background_work(index);
  }

  void publish_counts(Control& c) override {
    for (unsigned loc = 0; loc < 2; ++loc) {
      if (!ctx_.hosts(loc)) continue;
      const fabric::NicStats stats = fabric_.nic(loc).stats();
      c.tx[loc].store(stats.packets_sent);
      c.rx[loc].store(stats.packets_received);
    }
  }

  unsigned sender_poll_every() const override {
    return ctx_.w().pingpong ? 0 : kSenderPollEvery;
  }
  const char* post_name() const override { return "parcelport_lci.send"; }
  const char* poll_name() const override {
    return "parcelport_lci.background_work";
  }

  telemetry::Snapshot snapshot() const { return fabric_.telemetry().snapshot(); }

 private:
  void on_message(unsigned loc, amt::InMessage&& msg) {
    amt::InputArchive ar(msg);
    std::uint32_t count = 0;
    amt::ActionId action = 0;
    std::uint64_t promise = 0;
    std::uint64_t seq = 0;
    std::vector<std::uint8_t> payload;
    ar >> count >> action >> promise >> seq >> payload;
    deliver(loc, seq, action == kPongAction, payload.data(), payload.size());
  }

  Ctx& ctx_;
  const amt::RuntimeConfig config_;
  fabric::Fabric fabric_;
  std::unique_ptr<pplci::LciParcelport> ports_[2];
  std::atomic<unsigned> next_index_[2] = {0, 0};
};

}  // namespace

RungResult run_parcelport_rung(Ctx& ctx, std::string& chrome) {
  RungResult out;
  out.rung = "parcelport_lci";
  ctx.reset_receiver();
  ctx.barrier();
  {
    ParcelportEndpoint ep(ctx);
    drive(ctx, ep, out, chrome);
    const telemetry::Snapshot snap = ep.snapshot();
    out.counters = registry_counters(snap);
    check_parcelport_drained(snap, out);
  }
  ctx.barrier();
  return out;
}

}  // namespace perfbench
