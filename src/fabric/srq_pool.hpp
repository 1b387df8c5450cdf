// Shared-receive-queue receive credits. A NIC starts with `depth` credits,
// one per pre-posted receive buffer it models; each delivered datagram holds
// one until its consumer lets go, and a delivery that finds none left stalls
// the channel (RNR). The payload itself travels in RxEvent::payload, so no
// buffer memory backs the credits. Acquire/release are a lock-free counter,
// so any worker thread can return a credit without a global lock.
#pragma once

#include <atomic>
#include <cstddef>

namespace fabric {

class SrqPool;

/// Move-only token for one SRQ credit; returns it to the pool on destruction.
class RecvBuffer {
 public:
  RecvBuffer() = default;
  explicit RecvBuffer(SrqPool* pool) : pool_(pool) {}

  RecvBuffer(RecvBuffer&& other) noexcept : pool_(other.pool_) {
    other.pool_ = nullptr;
  }
  RecvBuffer& operator=(RecvBuffer&& other) noexcept {
    if (this != &other) {
      release();
      pool_ = other.pool_;
      other.pool_ = nullptr;
    }
    return *this;
  }
  RecvBuffer(const RecvBuffer&) = delete;
  RecvBuffer& operator=(const RecvBuffer&) = delete;
  ~RecvBuffer() { release(); }

  bool valid() const { return pool_ != nullptr; }

  void release();

 private:
  SrqPool* pool_ = nullptr;
};

class SrqPool {
 public:
  SrqPool(std::size_t depth, std::size_t buffer_size)
      : buffer_size_(buffer_size), credits_(depth) {}

  /// Takes one credit; false when the SRQ is exhausted (RNR condition).
  bool try_acquire() {
    std::size_t credits = credits_.load(std::memory_order_relaxed);
    while (credits > 0) {
      if (credits_.compare_exchange_weak(credits, credits - 1,
                                         std::memory_order_acquire,
                                         std::memory_order_relaxed)) {
        return true;
      }
    }
    return false;
  }

  void release() { credits_.fetch_add(1, std::memory_order_release); }

  /// Largest datagram payload one receive buffer holds.
  std::size_t buffer_size() const { return buffer_size_; }

 private:
  std::size_t buffer_size_;
  std::atomic<std::size_t> credits_;
};

inline void RecvBuffer::release() {
  if (pool_ != nullptr) pool_->release();
  pool_ = nullptr;
}

}  // namespace fabric
