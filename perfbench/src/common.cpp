#include "common.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "trace.hpp"

namespace perfbench {

// ---- workloads --------------------------------------------------------------

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> table = {
      {"flood_8b", "lci_psr_cq_pin_i", "sim", 8, false, 1, true, 1},
      {"flood_16k", "lci_psr_cq_pin_i", "sim", 16384, false, 1, true, 1},
      {"pingpong_8b", "lci_psr_cq_mt_i", "sim", 8, true, 2, false, 1},
      {"flood_8b_shm2", "lci_psr_cq_pin_i", "shm", 8, false, 1, true, 2},
      // Not in BENCHMARK.json: the shm MR-window defect's reproducer (see
      // README.md), an unwindowed cross-process 16 KiB flood.
      {"flood_16k_shm2", "lci_psr_cq_pin_i", "shm", 16384, false, 1, true, 2,
       false},
  };
  return table;
}

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : workloads()) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

// ---- seeded inputs ----------------------------------------------------------

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t checksum(const std::uint8_t* data, std::size_t len) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  std::size_t i = 0;
  for (; i + 8 <= len; i += 8) {
    std::uint64_t word = 0;
    std::memcpy(&word, data + i, 8);
    hash = (hash ^ word) * 0x100000001b3ULL;
  }
  for (; i < len; ++i) hash = (hash ^ data[i]) * 0x100000001b3ULL;
  return hash;
}

Payloads::Payloads(std::uint64_t seed, std::size_t size)
    : size_(size), slots_(kSlots), sums_(kSlots) {
  std::uint64_t state = seed;
  for (std::size_t s = 0; s < kSlots; ++s) {
    slots_[s].resize(size);
    for (std::size_t i = 0; i < size; i += 8) {
      const std::uint64_t word = splitmix64(state);
      std::memcpy(slots_[s].data() + i, &word, std::min<std::size_t>(8, size - i));
    }
    sums_[s] = checksum(slots_[s].data(), size);
  }
}

bool Payloads::verify(std::uint64_t seq, const std::uint8_t* data,
                      std::size_t len) const {
  if (len != size_) return false;
  const std::size_t slot = seq % kSlots;
  if (len <= kExactCompareBytes) {
    return std::memcmp(data, slots_[slot].data(), len) == 0;
  }
  return checksum(data, len) == sums_[slot];
}

SeqBitmap::SeqBitmap(std::size_t bits) : words_((bits + 63) / 64) {}

bool SeqBitmap::mark(std::uint64_t seq) {
  if (seq / 64 >= words_.size()) return false;
  const std::uint64_t bit = std::uint64_t{1} << (seq % 64);
  return (words_[seq / 64].fetch_or(bit, std::memory_order_relaxed) & bit) == 0;
}

std::uint64_t SeqBitmap::count(std::uint64_t limit) const {
  std::uint64_t total = 0;
  const std::uint64_t full = std::min<std::uint64_t>(limit / 64, words_.size());
  for (std::uint64_t w = 0; w < full; ++w) {
    total += std::popcount(words_[w].load(std::memory_order_relaxed));
  }
  if (full < words_.size() && limit % 64 != 0) {
    const std::uint64_t mask = (std::uint64_t{1} << (limit % 64)) - 1;
    total += std::popcount(words_[full].load(std::memory_order_relaxed) & mask);
  }
  return total;
}

void SeqBitmap::clear() {
  for (auto& word : words_) word.store(0, std::memory_order_relaxed);
}

// ---- control block ------------------------------------------------------------

void ControlUnmap::operator()(Control* control) const {
  ::munmap(control, sizeof(Control));
}

ControlPtr map_control(const std::string& path) {
  const std::size_t bytes = sizeof(Control);
  void* base = MAP_FAILED;
  if (path.empty()) {
    base = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                  MAP_SHARED | MAP_ANONYMOUS, -1, 0);
  } else {
    const int fd = ::open(path.c_str(), O_RDWR | O_CREAT, 0600);
    if (fd < 0) throw std::runtime_error("cannot open control file " + path);
    if (::ftruncate(fd, static_cast<off_t>(bytes)) != 0) {
      ::close(fd);
      throw std::runtime_error("cannot size control file " + path);
    }
    base = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0);
    ::close(fd);
  }
  if (base == MAP_FAILED) throw std::runtime_error("cannot map control block");
  // Fresh mappings read as zero, which is every field's initial state.
  return ControlPtr(static_cast<Control*>(base));
}

// ---- tallies and clocks ------------------------------------------------------

namespace {
std::mutex g_tally_mutex;  // guards g_tallies
std::vector<std::unique_ptr<Tally>> g_tallies;
}  // namespace

Tally& Tally::local() {
  thread_local Tally* tally = nullptr;
  if (tally == nullptr) {
    auto owned = std::make_unique<Tally>();
    tally = owned.get();
    std::lock_guard<std::mutex> guard(g_tally_mutex);
    g_tallies.push_back(std::move(owned));
  }
  return *tally;
}

Tally Tally::collect() {
  std::lock_guard<std::mutex> guard(g_tally_mutex);
  Tally sum;
  for (auto& tally : g_tallies) {
    sum.polls += tally->polls;
    sum.useful_polls += tally->useful_polls;
    sum.attempts += tally->attempts;
    sum.retries += tally->retries;
    sum.empty_poll_ns.insert(sum.empty_poll_ns.end(),
                             tally->empty_poll_ns.begin(),
                             tally->empty_poll_ns.end());
    sum.one_way_ns.insert(sum.one_way_ns.end(), tally->one_way_ns.begin(),
                          tally->one_way_ns.end());
    *tally = Tally{};
  }
  return sum;
}

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::int64_t process_cpu_ns() {
  timespec ts{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1000000000LL + ts.tv_nsec;
}

double host_steal_s() {
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return 0.0;
  // cpu user nice system idle iowait irq softirq steal ...
  unsigned long long field[8] = {};
  const int got = std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu",
                              &field[0], &field[1], &field[2], &field[3],
                              &field[4], &field[5], &field[6], &field[7]);
  std::fclose(f);
  if (got != 8) return 0.0;
  return static_cast<double>(field[7]) /
         static_cast<double>(::sysconf(_SC_CLK_TCK));
}

// ---- run context ------------------------------------------------------------

namespace {
// 2^27 sequence numbers cover more than 60 s of the fastest rung.
constexpr std::size_t kBitmapBits = std::size_t{1} << 27;
}  // namespace

Ctx::Ctx(const Options& options, Control* control)
    : options_(options),
      control_(control),
      payloads_(options.seed, options.workload->payload),
      bitmap_{SeqBitmap(hosts(0) ? kBitmapBits : 64),
              SeqBitmap(hosts(1) ? kBitmapBits : 64)} {}

void fatal(const std::string& why) {
  std::fprintf(stderr, "perfbench: %s\n", why.c_str());
  std::fflush(stderr);
  std::_Exit(4);
}

void sleep_until_ns(std::int64_t t) {
  const std::int64_t left = t - now_ns();
  if (left > 0) std::this_thread::sleep_for(std::chrono::nanoseconds(left));
}

bool wait_for(const std::function<bool()>& done, double timeout_s,
              const std::function<void()>& service) {
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(timeout_s * 1e9);
  while (!done()) {
    if (service) service();
    if (now_ns() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::microseconds(1000));
  }
  return true;
}

void Ctx::barrier(const std::function<void()>& service) {
  if (!two_process()) return;
  ++barrier_gen_;
  const int me = options_.rank;
  control_->arrive[me].store(barrier_gen_, std::memory_order_release);
  const bool met = wait_for(
      [&] {
        return control_->arrive[1 - me].load(std::memory_order_acquire) >=
               barrier_gen_;
      },
      120.0, [&] {
        if (service) service();
        serve_cpu();
      });
  if (!met) throw std::runtime_error("peer rank never reached the barrier");
}

std::int64_t Ctx::peer_cpu_ns() {
  if (!two_process()) return 0;
  const std::int64_t gen = ++cpu_gen_;
  control_->cpu_req.store(gen, std::memory_order_release);
  if (!wait_for(
          [&] { return control_->cpu_ack.load(std::memory_order_acquire) >= gen; },
          30.0)) {
    throw std::runtime_error("peer rank never answered a CPU sample");
  }
  return control_->cpu_ns.load(std::memory_order_acquire);
}

void Ctx::serve_cpu() {
  if (!two_process() || options_.rank != 1) return;
  const std::int64_t req = control_->cpu_req.load(std::memory_order_acquire);
  if (req > control_->cpu_ack.load(std::memory_order_relaxed)) {
    control_->cpu_ns.store(process_cpu_ns(), std::memory_order_relaxed);
    control_->cpu_ack.store(req, std::memory_order_release);
  }
}

std::string Ctx::shm_session(const std::string& tag) const {
  return options_.session + "-" + tag;
}

void Ctx::check_parcel(unsigned loc, std::uint64_t seq,
                       const std::uint8_t* data, std::size_t len) {
  if (!bitmap_[loc].mark(seq)) {
    control_->duplicates.fetch_add(1, std::memory_order_relaxed);
  }
  if (!payloads_.verify(seq, data, len)) {
    control_->errors.fetch_add(1, std::memory_order_relaxed);
  }
}

std::uint64_t Ctx::unique_at(unsigned loc) const {
  return bitmap_[loc].count(kBitmapBits);
}

void Ctx::publish_receiver() {
  if (hosts(1)) {
    control_->unique.store(unique_at(1), std::memory_order_release);
  }
}

void Ctx::reset_receiver() {
  bitmap_[0].clear();
  bitmap_[1].clear();
  control_->received.store(0);
  control_->last_ns.store(0);
  control_->errors.store(0);
  control_->duplicates.store(0);
  control_->unique.store(0);
  control_->credits.store(0);
}

// Phase lengths. Untraced: one amt sub-run per kSubrunS seconds of
// --seconds (at least four); each spends ~45% of its share on a flood round
// and ~30% on the round-trip probe (ping-pong: ~75% on round trips), the
// rest on set-up and teardown. Short sub-runs mean many stacks per run, so
// the run's figure averages over many thread placements. Traced: the three
// lower rungs and two amt passes (untraced, traced) get a fifth of
// --seconds each.
namespace {
constexpr double kSubrunS = 0.6;
constexpr int kTracedSubruns = 3;
constexpr int kLowerRungRounds = 3;
}  // namespace

double Ctx::flood_round_s() const {
  const double s = options_.seconds;
  if (options_.trace) return s / 5.0 / kTracedSubruns;
  return (w().pingpong ? 0.75 : 0.45) * s / subruns();
}
int Ctx::flood_rounds() const { return kLowerRungRounds; }
double Ctx::probe_round_s() const {
  return options_.trace || w().pingpong ? 0.0
                                        : 0.3 * options_.seconds / subruns();
}
int Ctx::subruns() const {
  if (options_.trace) return kTracedSubruns;
  return std::max(4, static_cast<int>(options_.seconds / kSubrunS + 0.5));
}

void run_rounds(Ctx& ctx, int rounds, unsigned parcels_per_op,
                const std::function<RoundTiming()>& body, RungResult& out) {
  for (int r = 0; r < rounds; ++r) {
    const std::int64_t cpu0 = process_cpu_ns();
    const std::int64_t peer0 = ctx.peer_cpu_ns();
    const RoundTiming t = body();
    const std::int64_t cpu1 = process_cpu_ns();
    const std::int64_t peer1 = ctx.peer_cpu_ns();
    if (t.ops == 0 || t.end_ns <= t.start_ns) {
      out.fail("a round completed no operations");
      continue;
    }
    const double window = static_cast<double>(t.end_ns - t.start_ns);
    const double ops = static_cast<double>(t.ops);
    out.ops += t.ops;
    out.round_ns_per_op.push_back(window / ops);
    out.round_rate_kps.push_back(ops * parcels_per_op / window * 1e6);
    out.round_cpu_us_per_op.push_back(
        static_cast<double>((cpu1 - cpu0) + (peer1 - peer0)) / 1e3 / ops);
  }
}

bool quiesce(Ctx& ctx, const std::function<void()>& publish) {
  Control& c = ctx.ctl();
  return wait_for(
      [&] {
        publish();
        return c.tx[0].load() == c.rx[1].load() &&
               c.tx[1].load() == c.rx[0].load();
      },
      10.0);
}

void check_exactly_once(Ctx& ctx, std::uint64_t parcels, RungResult& out) {
  Control& c = ctx.ctl();
  out.attempted += parcels;
  const std::uint64_t unique = c.unique.load() + ctx.unique_at(0);
  const std::uint64_t missing = parcels > unique ? parcels - unique : 0;
  const std::uint64_t bad = c.errors.load() + c.duplicates.load();
  out.failed += missing + bad;
  if (missing + bad > 0) {
    out.fail(out.rung + ": " + std::to_string(missing) + " missing, " +
             std::to_string(c.errors.load()) + " corrupt, " +
             std::to_string(c.duplicates.load()) + " duplicated parcels");
  }
}

void merge_peer_polls(Ctx& ctx, RungResult& out) {
  if (!ctx.two_process()) return;
  Control& c = ctx.ctl();
  const std::string path =
      ctx.opt().out_dir + "/poll_samples_" + out.rung + ".bin";
  if (!ctx.is_sender()) {
    if (std::FILE* f = std::fopen(path.c_str(), "wb")) {
      std::fwrite(out.poll_ns.data(), sizeof(double), out.poll_ns.size(), f);
      std::fclose(f);
    }
    c.peer_polls.store(out.polls);
    c.peer_useful.store(out.useful_polls);
  }
  ctx.barrier();
  if (!ctx.is_sender()) return;
  out.polls += c.peer_polls.load();
  out.useful_polls += c.peer_useful.load();
  if (std::FILE* f = std::fopen(path.c_str(), "rb")) {
    double sample = 0.0;
    while (std::fread(&sample, sizeof(sample), 1, f) == 1) {
      out.poll_ns.push_back(sample);
    }
    std::fclose(f);
  }
  std::remove(path.c_str());
}

void harvest_spans(const char* post_name, const char* poll_name,
                   const std::string& rung, int pid, RungResult& out,
                   std::string& chrome_events) {
  constexpr std::size_t kChromeSpansPerThread = 4000;
  const auto threads = trace::take();
  for (const auto& spans : threads) {
    const auto self = trace::self_times(spans);
    for (std::size_t i = 0; i < spans.size(); ++i) {
      if (spans[i].end < spans[i].start) continue;
      const double ns = static_cast<double>(self[i]);
      if (std::strcmp(spans[i].name, post_name) == 0) {
        out.post_ns.push_back(ns);
      } else if (poll_name != nullptr &&
                 std::strcmp(spans[i].name, poll_name) == 0) {
        out.poll_ns.push_back(ns);
      }
    }
  }
  trace::append_chrome(threads, pid, rung, kChromeSpansPerThread,
                       chrome_events);
}

}  // namespace perfbench
