// Configuration helpers: a tiny "key=value,key=value" string parser, the
// token splitter behind the paper's Table-1 config names (lci_psr_cq_pin_i,
// ...), the strict integer reader for the few AMTNET_* environment variables
// that remain, and the knob registry that documents every tuning surface in
// one table.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace common {

class KvConfig {
 public:
  KvConfig() = default;
  /// Parses "a=1,b=foo". Whitespace around keys/values is trimmed.
  static KvConfig parse(const std::string& text);

  std::optional<std::string> get(const std::string& key) const;
  std::string get_or(const std::string& key, const std::string& fallback) const;
  std::int64_t get_int_or(const std::string& key, std::int64_t fallback) const;
  double get_double_or(const std::string& key, double fallback) const;
  bool get_bool_or(const std::string& key, bool fallback) const;

  void set(const std::string& key, const std::string& value);
  bool contains(const std::string& key) const;
  const std::map<std::string, std::string>& entries() const { return kv_; }

 private:
  std::map<std::string, std::string> kv_;
};

/// Splits on a delimiter, trimming whitespace from each piece.
std::vector<std::string> split_trim(const std::string& text, char delim);

/// Reads an integer environment variable. Unset or empty returns
/// `fallback`; anything but a whole decimal integer in [min, max] throws
/// std::invalid_argument naming the variable (junk must not silently read
/// as 0 — a second rank 0 or a zero worker count fails far from its cause).
std::int64_t env_int(const char* name, std::int64_t fallback,
                     std::int64_t min, std::int64_t max);

// ---- introspectable knob registry -----------------------------------------
//
// Every tuning surface of the stack — AMTNET_* environment variables,
// parcelport config-name tokens, CMake options — is declared here once, with
// its default, what it does, and which benchmark demonstrates it. The
// experiment driver enumerates this table to build config matrices and
// `bench_suite --render` generates the knob tables in docs/tuning.md from
// it, so the documentation cannot drift from the knobs the code reads
// (tests/test_expdriver.cpp asserts every AMTNET_* variable read in the tree
// has a row, and every row is read somewhere).

struct Knob {
  enum class Kind { kEnv, kConfigToken, kCMake };
  Kind kind;
  std::string name;           // "AMTNET_BENCH_SCALE", "pd<N>", ...
  std::string default_value;  // human-readable default
  std::string description;
  std::string demo;           // benchmark / suite that demonstrates it
};

/// The full knob table, in stable documentation order (env vars, then
/// config tokens, then CMake options).
const std::vector<Knob>& knob_registry();

}  // namespace common
