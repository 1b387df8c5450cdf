// Thread-affinity shim. On the paper's clusters HPX pins the dedicated LCI
// progress thread to core 0 via the resource partitioner; on our test machine
// (possibly 1 hardware core) pinning is best-effort and never fatal.
//
// Multi-process runs (amtnet_launch) carve the machine into per-rank core
// ranges via AMTNET_CPU_FIRST / AMTNET_CPU_COUNT, so rank k's workers pin
// into [first, first+count) instead of every process stacking on core 0.
#pragma once

#include <string>

namespace common {

/// The CPU range this process may pin threads into. Defaults to the whole
/// machine; AMTNET_CPU_FIRST / AMTNET_CPU_COUNT narrow it (set per rank by
/// amtnet_launch). `configured` is true when either variable was set —
/// schedulers use it to decide whether workers should pin at all.
struct CpuRange {
  unsigned first = 0;
  unsigned count = 1;
  bool configured = false;
};
/// Reads AMTNET_CPU_FIRST / AMTNET_CPU_COUNT; throws std::invalid_argument
/// naming the variable when either is not an integer in range.
CpuRange cpu_range_from_environment();
/// The range read once per process. A malformed variable yields the
/// unconfigured default here; amtnet::make_runtime_config calls
/// cpu_range_from_environment() first, so it throws before threads start.
CpuRange process_cpu_range() noexcept;

/// Tries to pin the calling thread to slot `slot` of the process CPU range
/// (wrapping within the range, then within the machine). Returns false when
/// the platform refuses; callers treat that as advisory.
bool pin_current_thread(unsigned slot) noexcept;

/// Names the calling thread for debuggers/profilers (best effort).
void set_current_thread_name(const std::string& name) noexcept;

unsigned hardware_core_count() noexcept;

}  // namespace common
