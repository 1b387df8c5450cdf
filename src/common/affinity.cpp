#include "common/affinity.hpp"

#include <stdexcept>
#include <thread>

#include "common/config.hpp"

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

namespace common {

unsigned hardware_core_count() noexcept {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : n;
}

CpuRange cpu_range_from_environment() {
  constexpr std::int64_t kMaxCpu = 1 << 16;
  const std::int64_t first = env_int("AMTNET_CPU_FIRST", -1, 0, kMaxCpu);
  const std::int64_t count = env_int("AMTNET_CPU_COUNT", -1, 1, kMaxCpu);
  CpuRange r;
  r.first = first >= 0 ? static_cast<unsigned>(first) : 0;
  r.count = count >= 0 ? static_cast<unsigned>(count) : hardware_core_count();
  r.configured = first >= 0 || count >= 0;
  return r;
}

CpuRange process_cpu_range() noexcept {
  static const CpuRange range = [] {
    try {
      return cpu_range_from_environment();
    } catch (const std::invalid_argument&) {
      // amtnet::make_runtime_config refuses the value by name before a
      // runtime starts; here the unconfigured default stands.
      CpuRange r;
      r.count = hardware_core_count();
      return r;
    }
  }();
  return range;
}

bool pin_current_thread(unsigned slot) noexcept {
#if defined(__linux__)
  const CpuRange range = process_cpu_range();
  const unsigned core =
      (range.first + slot % range.count) % hardware_core_count();
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(core, &set);
  return pthread_setaffinity_np(pthread_self(), sizeof(set), &set) == 0;
#else
  (void)slot;
  return false;
#endif
}

void set_current_thread_name(const std::string& name) noexcept {
#if defined(__linux__)
  // The kernel limits thread names to 15 characters + NUL.
  pthread_setname_np(pthread_self(), name.substr(0, 15).c_str());
#else
  (void)name;
#endif
}

}  // namespace common
