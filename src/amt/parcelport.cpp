#include "amt/parcelport.hpp"

#include <cstring>
#include <stdexcept>

#include "amt/wire_header.hpp"
#include "common/config.hpp"

namespace amt {

namespace {

/// Parses a "<prefix><digits>" token into an admission policy + bound.
/// Returns false when the token is not of that shape (caller keeps going).
bool parse_admission_token(const std::string& token, const char* prefix,
                           AdmissionConfig::Policy policy,
                           AdmissionConfig& admission) {
  const std::size_t len = std::strlen(prefix);
  if (token.size() <= len || token.compare(0, len, prefix) != 0) return false;
  if (token.find_first_not_of("0123456789", len) != std::string::npos) {
    return false;
  }
  const unsigned long bound = std::stoul(token.substr(len));
  if (bound == 0) {
    throw std::invalid_argument("admission bound must be >= 1: " + token);
  }
  admission.policy = policy;
  admission.queue_bound = bound;
  return true;
}

}  // namespace

ParcelportConfig ParcelportConfig::parse(const std::string& name) {
  ParcelportConfig config;
  bool kind_seen = false;
  for (const auto& token : common::split_trim(name, '_')) {
    if (token == "mpi") {
      config.kind = Kind::kMpi;
      kind_seen = true;
    } else if (token == "lci") {
      config.kind = Kind::kLci;
      kind_seen = true;
    } else if (token == "psr") {
      config.protocol = Protocol::kPutSendRecv;
    } else if (token == "sr") {
      config.protocol = Protocol::kSendRecv;
    } else if (token == "cq") {
      config.completion = CompType::kQueue;
    } else if (token == "sy") {
      config.completion = CompType::kSync;
    } else if (token == "pin" || token == "rp") {
      config.progress = ProgressType::kPinned;
    } else if (token == "mt") {
      config.progress = ProgressType::kWorker;
    } else if (token == "i") {
      config.send_immediate = true;
    } else if (token.size() > 2 && token.compare(0, 2, "pd") == 0 &&
               token.find_first_not_of("0123456789", 2) == std::string::npos) {
      const unsigned long depth = std::stoul(token.substr(2));
      if (depth == 0) {
        throw std::invalid_argument(
            "pipeline depth must be >= 1 (omit pd<N> for unbounded): " +
            name);
      }
      config.lci_pipeline_depth = depth;
    } else if (token.size() > 2 && token.compare(0, 2, "pt") == 0 &&
               token.find_first_not_of("0123456789", 2) == std::string::npos) {
      const unsigned long threads = std::stoul(token.substr(2));
      if (threads == 0) {
        throw std::invalid_argument(
            "progress-ticket bound must be >= 1 (omit pt<K> for "
            "unbounded): " + name);
      }
      config.lci_progress_threads = threads;
    } else if (token.size() > 2 && token.compare(0, 2, "rs") == 0 &&
               token.find_first_not_of("0123456789", 2) == std::string::npos) {
      const unsigned long shards = std::stoul(token.substr(2));
      if (shards == 0) {
        throw std::invalid_argument(
            "rendezvous shard count must be >= 1: " + name);
      }
      config.lci_rdv_shards = shards;
    } else if (token == "fp") {
      config.lci_fastpath = 1;
    } else if (token == "fpoff") {
      config.lci_fastpath = 0;
    } else if (token.size() > 4 && token.compare(0, 4, "aggt") == 0 &&
               token.find_first_not_of("0123456789", 4) == std::string::npos) {
      config.lci_agg_age_us = static_cast<long>(std::stoul(token.substr(4)));
    } else if (token.size() > 3 && token.compare(0, 3, "agg") == 0 &&
               token.find_first_not_of("0123456789", 3) == std::string::npos) {
      const unsigned long cap = std::stoul(token.substr(3));
      if (cap < kMinAggFrameBytes) {
        throw std::invalid_argument(
            "aggregation cap must be >= " +
            std::to_string(kMinAggFrameBytes) +
            " bytes (the minimum one-parcel batch frame; omit agg<N> to "
            "disable): " + name);
      }
      config.lci_agg = cap;
    } else if (token.size() > 4 && token.compare(0, 4, "coll") == 0) {
      const std::string algo = token.substr(4);
      if (algo != "central" && algo != "tree" && algo != "rd" &&
          algo != "ring") {
        throw std::invalid_argument(
            "collective algorithm must be central, tree, rd, or ring (omit "
            "coll<ALGO> for auto selection): " + name);
      }
      config.coll = algo;
    } else if (token.size() > 7 && token.compare(0, 7, "backend") == 0) {
      config.fabric_backend = token.substr(7);
      fabric::validate_backend_name(config.fabric_backend);
    } else if (token == "fine") {
      config.mpi_coarse_lock = false;
    } else if (token == "orig") {
      config.mpi_original = true;
    } else if (parse_admission_token(token, "shed",
                                     AdmissionConfig::Policy::kShed,
                                     config.admission) ||
               parse_admission_token(token, "block",
                                     AdmissionConfig::Policy::kBlock,
                                     config.admission) ||
               parse_admission_token(token, "dl",
                                     AdmissionConfig::Policy::kDeadline,
                                     config.admission)) {
      // admission-control tokens, handled by parse_admission_token
    } else if (!token.empty()) {
      throw std::invalid_argument("unknown parcelport config token: " +
                                  token);
    }
  }
  if (!kind_seen) {
    throw std::invalid_argument(
        "parcelport config must name mpi or lci: " + name);
  }
  return config;
}

std::string ParcelportConfig::name() const {
  std::string out;
  if (kind == Kind::kMpi) {
    out = "mpi";
    if (!mpi_coarse_lock) out += "_fine";
    if (mpi_original) out += "_orig";
  } else {
    out = "lci";
    out += (protocol == Protocol::kPutSendRecv) ? "_psr" : "_sr";
    out += (completion == CompType::kQueue) ? "_cq" : "_sy";
    out += (progress == ProgressType::kPinned) ? "_pin" : "_mt";
    if (lci_pipeline_depth > 0) {
      out += "_pd" + std::to_string(lci_pipeline_depth);
    }
    if (lci_progress_threads > 0) {
      out += "_pt" + std::to_string(lci_progress_threads);
    }
    if (lci_rdv_shards > 0) {
      out += "_rs" + std::to_string(lci_rdv_shards);
    }
    if (lci_fastpath == 0) {
      out += "_fpoff";
    } else if (lci_fastpath == 1) {
      out += "_fp";
    }
    if (lci_agg > 0) out += "_agg" + std::to_string(lci_agg);
    if (lci_agg_age_us >= 0) {
      out += "_aggt" + std::to_string(lci_agg_age_us);
    }
  }
  if (send_immediate) out += "_i";
  if (!coll.empty()) out += "_coll" + coll;
  if (fabric_backend != "sim") out += "_backend" + fabric_backend;
  if (admission.on()) {
    switch (admission.policy) {
      case AdmissionConfig::Policy::kShed:
        out += "_shed" + std::to_string(admission.queue_bound);
        break;
      case AdmissionConfig::Policy::kBlock:
        out += "_block" + std::to_string(admission.queue_bound);
        break;
      case AdmissionConfig::Policy::kDeadline:
        out += "_dl" + std::to_string(admission.queue_bound);
        break;
      case AdmissionConfig::Policy::kNone:
        break;
    }
  }
  return out;
}

}  // namespace amt
