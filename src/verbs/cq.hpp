// Completion queue: a bounded ring of CQEs.
//
// SDR's receive backend consumes one CQE per arriving packet (paper §3.2.4).
// The paper's DPA worker threads poll dedicated CQs per channel (§3.4.1);
// the threaded data path models those with dpa::CompletionRing. The
// sim-side CQ here is single-threaded and its notify drains it inline, so
// one CQ serves every data QP of a core::Qp, send and receive side alike.
//
// Storage is a power-of-two ring, not a deque: steady state pushes and
// batched polls touch no allocator. The ring starts small and doubles
// lazily up to the configured capacity, so a 64 Ki-entry CQ costs nothing
// until a burst actually needs the depth.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "verbs/types.hpp"

namespace sdr::verbs {

class CompletionQueue {
 public:
  explicit CompletionQueue(std::size_t capacity = 4096)
      : capacity_(capacity) {}

  /// Completion-channel analog: `fn` runs after each push. The SDR runtime
  /// uses it to drain CQEs event-driven inside the simulator instead of
  /// busy polling (which has no meaning in virtual time).
  void set_notify(std::function<void()> fn) { notify_ = std::move(fn); }

  /// Push a completion; drops (and counts) on overrun like real hardware
  /// raising a CQ error.
  void push(const Cqe& cqe) {
    const std::size_t count = tail_ - head_;
    if (count >= capacity_) {
      ++overruns_;
      return;
    }
    if (count == ring_.size()) grow();
    ring_[tail_ & mask_] = cqe;
    ++tail_;
    if (notify_) notify_();
  }

  /// Poll up to `max` completions (ibv_poll_cq semantics): one batched
  /// drain, no per-entry bookkeeping.
  std::size_t poll(Cqe* out, std::size_t max) {
    std::size_t n = tail_ - head_;
    if (n > max) n = max;
    for (std::size_t i = 0; i < n; ++i) {
      out[i] = ring_[(head_ + i) & mask_];
    }
    head_ += n;
    return n;
  }

  std::optional<Cqe> poll_one() {
    if (head_ == tail_) return std::nullopt;
    const Cqe cqe = ring_[head_ & mask_];
    ++head_;
    return cqe;
  }

  /// Pre-grow the ring to hold `n` entries (clamped to the configured
  /// capacity) so the first completions on a fresh CQ do not pay the
  /// initial growth inside the measured data path. Lazy doubling still
  /// covers bursts beyond the pre-sized depth.
  void reserve(std::size_t n) {
    if (n > capacity_) n = capacity_;
    while (ring_.size() < n) grow();
  }

  std::size_t size() const { return tail_ - head_; }
  bool empty() const { return head_ == tail_; }
  std::size_t capacity() const { return capacity_; }
  std::uint64_t overruns() const { return overruns_; }

 private:
  void grow() {
    const std::size_t old_size = ring_.size();
    const std::size_t new_size = old_size == 0 ? 64 : old_size * 2;
    std::vector<Cqe> next(new_size);
    for (std::size_t i = head_; i != tail_; ++i) {
      next[i & (new_size - 1)] = ring_[i & mask_];
    }
    ring_ = std::move(next);
    mask_ = new_size - 1;
  }

  std::size_t capacity_;
  std::vector<Cqe> ring_;
  std::size_t mask_{0};
  std::uint64_t head_{0};
  std::uint64_t tail_{0};
  std::uint64_t overruns_{0};
  std::function<void()> notify_;
};

}  // namespace sdr::verbs
