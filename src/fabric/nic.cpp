#include "fabric/nic.hpp"

#include <cstdlib>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "common/config.hpp"
#include "common/logging.hpp"
#include "fabric/backend_shm.hpp"
#include "fabric/backend_sim.hpp"

namespace fabric {

Config Profile::expanse(Rank num_ranks) {
  Config config;
  config.num_ranks = num_ranks;
  config.latency_us = 1.1;        // HDR-class small-message latency
  config.bandwidth_gbps = 100.0;  // HDR InfiniBand (2x50 Gbps)
  config.pkt_rate_mpps = 0.0;
  config.num_rails = 2;
  return config;
}

Config Profile::rostam(Rank num_ranks) {
  Config config;
  config.num_ranks = num_ranks;
  config.latency_us = 1.6;       // FDR-class small-message latency
  config.bandwidth_gbps = 56.0;  // FDR InfiniBand (4x14 Gbps)
  config.pkt_rate_mpps = 0.0;
  config.num_rails = 2;
  return config;
}

Config Profile::loopback(Rank num_ranks) {
  Config config;
  config.num_ranks = num_ranks;
  config.zero_time = true;
  config.num_rails = 1;
  return config;
}

std::string Profile::describe(const Config& config, const std::string& name) {
  std::ostringstream oss;
  oss << "profile=" << name << " backend=" << config.backend
      << " ranks=" << config.num_ranks;
  if (config.is_shm()) {
    oss << " local_rank=" << config.local_rank
        << " ring_depth=" << config.shm_ring_depth;
  } else {
    oss << " latency_us=" << config.latency_us
        << " bandwidth_gbps=" << config.bandwidth_gbps
        << " pkt_rate_mpps=" << config.pkt_rate_mpps
        << " rails=" << config.num_rails << " srq_depth=" << config.srq_depth
        << " tx_window=" << config.tx_window;
  }
  if (config.faults.any() || config.faults.integrity) {
    oss << " faults[" << config.faults.describe() << "]";
  }
  return oss.str();
}

void validate_backend_name(const std::string& name) {
  if (name != "sim" && name != "shm") {
    throw std::invalid_argument("unknown fabric backend \"" + name +
                                "\" (expected sim or shm)");
  }
}

void apply_backend_env(Config& config) {
  if (const char* v = std::getenv("AMTNET_BACKEND"); v != nullptr && *v) {
    validate_backend_name(v);
    config.backend = v;
  }
  config.local_rank = static_cast<int>(common::env_int(
      "AMTNET_SHM_RANK", config.local_rank, -1,
      std::numeric_limits<int>::max()));
  if (const char* v = std::getenv("AMTNET_SHM_SESSION"); v != nullptr && *v) {
    config.shm_session = v;
  }
  config.shm_ring_depth = static_cast<std::size_t>(common::env_int(
      "AMTNET_SHM_RING_DEPTH",
      static_cast<std::int64_t>(config.shm_ring_depth), 1, 1 << 20));
}

Fabric::Fabric(const Config& config, telemetry::Registry* registry)
    : owned_registry_(registry == nullptr
                          ? std::make_unique<telemetry::Registry>()
                          : nullptr),
      registry_(registry != nullptr ? registry : owned_registry_.get()),
      config_(config) {
  validate_backend_name(config_.backend);
  if (config_.is_shm()) {
    if (config_.local_rank >= static_cast<int>(config_.num_ranks)) {
      throw std::invalid_argument("shm local_rank out of range");
    }
    shm_domain_ = std::make_unique<detail::ShmDomain>(config_);
    // Stamp snapshot identity so a telemetry export from an shm (or
    // multi-process) run can never be mistaken for a sim baseline. Sim runs
    // stay tag-free, keeping their historical exports byte-identical.
    registry_->set_tag("backend", config_.backend);
    if (!config_.single_process()) {
      registry_->set_tag("locality_rank",
                         std::to_string(config_.local_rank));
    }
  }
  nics_.resize(config_.num_ranks);
  for (Rank r = 0; r < config_.num_ranks; ++r) {
    if (!config_.rank_is_local(r)) continue;  // hosted by another process
    if (config_.is_shm()) {
      nics_[r] = std::make_unique<ShmNic>(*this, r, config_, *shm_domain_);
    } else {
      nics_[r] = std::make_unique<SimNic>(*this, r, config_);
    }
  }
}

Fabric::~Fabric() = default;

Nic& Fabric::nic(Rank rank) {
  if (!nic_is_local(rank)) {
    AMTNET_LOG_ERROR("fabric: rank ", rank,
                     " has no endpoint in this process (multi-process shm "
                     "mode hosts only AMTNET_SHM_RANK=",
                     config_.local_rank, " here)");
    std::abort();
  }
  return *nics_[rank];
}

const Nic& Fabric::nic(Rank rank) const {
  return const_cast<Fabric*>(this)->nic(rank);
}

}  // namespace fabric
