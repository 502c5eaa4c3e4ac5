// PayloadRef / PayloadPool: reference-counted payload slices for the
// simulated wire.
//
// The paper's data path never copies payload bytes per packet — the NIC
// DMAs straight out of the registered buffer (§3.4, Fig 16), the way
// NCCL's pre-registered rings and DPDK mbuf pools do. The reproduction's
// WirePacket used to carry a std::vector copy of every MTU's bytes; a
// PayloadRef instead points at the bytes and owns (at most) a pooled,
// free-listed slot:
//
//  * borrowed — points directly into caller memory (the registered MR for
//    RDMA Writes). No ownership; copying the ref is trivial. Valid for as
//    long as the verbs contract keeps the source buffer valid: until the
//    send completion (UC/UD injection-complete, RC final ACK), which by
//    construction outlasts every in-flight or unacked reference.
//  * pooled — one MTU-or-less of bytes copied into a pool slot at post
//    time (two-sided sends, whose source may be a stack temporary).
//    Refcounted: duplicating channels and RC retransmit queues bump the
//    count instead of copying bytes; the slot returns to its free list
//    when the last ref drops.
//
// Pooled payloads are mostly SDR's control datagrams (§3.2, §4.1): a CTS
// is 24 B, a final SR or EC ACK 23 B, a one-word SR ACK 31 B. Slots come
// in power-of-two size classes from 64 B (one cache line) up to the
// class that holds an MTU, the largest payload `post_send` accepts, with
// one LIFO free list per class. A slot is allocated once at its class's
// size and never changes class, so a control datagram pins 64 B rather
// than a page (payload_pool.cpp has the fleet numbers).
//
// The pool is thread-local (like the telemetry registry): packets never
// cross threads — each sweep trial owns a simulator on its own thread —
// so the refcounts stay plain integers.
#pragma once

#include <array>
#include <cstdint>
#include <cstddef>
#include <memory>
#include <vector>

namespace sdr::common {

class PayloadPool {
 public:
  static constexpr std::uint32_t kNil = 0xFFFFFFFFu;

  PayloadPool() { free_heads_.fill(kNil); }

  /// Copy [src, src+len) into a slot (refcount 1) of len's size class and
  /// return its index.
  std::uint32_t acquire(const std::uint8_t* src, std::uint32_t len);

  void add_ref(std::uint32_t slot) { ++slots_[slot].refs; }
  void release(std::uint32_t slot) {
    Slot& s = slots_[slot];
    if (--s.refs == 0) {
      s.next_free = free_heads_[s.size_class];
      free_heads_[s.size_class] = slot;
      --live_;
    }
  }

  const std::uint8_t* data(std::uint32_t slot) const {
    return slots_[slot].bytes.get();
  }

  /// Slots currently holding at least one reference.
  std::size_t live_slots() const { return live_; }
  /// Slots ever created (live + free-listed); growth stops in steady state.
  std::size_t total_slots() const { return slots_.size(); }

 private:
  /// Class c holds 64 << c bytes; 27 classes cover every 32-bit length.
  static constexpr std::size_t kClasses = 27;

  struct Slot {
    std::unique_ptr<std::uint8_t[]> bytes;
    std::uint32_t refs{0};
    std::uint32_t next_free{kNil};
    std::uint8_t size_class{0};
  };
  std::vector<Slot> slots_;
  std::array<std::uint32_t, kClasses> free_heads_;
  std::size_t live_{0};
};

/// The calling thread's pool (simulation packets never cross threads).
PayloadPool& payload_pool();

class PayloadRef {
 public:
  PayloadRef() = default;

  /// View of caller-owned memory; caller guarantees lifetime (verbs buffer
  /// contract — valid until send completion).
  static PayloadRef borrow(const std::uint8_t* data, std::size_t len) {
    PayloadRef ref;
    ref.data_ = data;
    ref.len_ = static_cast<std::uint32_t>(len);
    return ref;
  }

  /// Copy into the thread-local pool (for sources that may die before the
  /// packet is delivered, e.g. stack-built control messages).
  static PayloadRef pooled_copy(const std::uint8_t* data, std::size_t len);

  PayloadRef(const PayloadRef& other)
      : data_(other.data_), len_(other.len_), slot_(other.slot_),
        pool_(other.pool_) {
    if (pool_ != nullptr) pool_->add_ref(slot_);
  }
  PayloadRef(PayloadRef&& other) noexcept
      : data_(other.data_), len_(other.len_), slot_(other.slot_),
        pool_(other.pool_) {
    other.pool_ = nullptr;
    other.data_ = nullptr;
    other.len_ = 0;
  }
  PayloadRef& operator=(const PayloadRef& other) {
    if (this != &other) {
      if (other.pool_ != nullptr) other.pool_->add_ref(other.slot_);
      reset();
      data_ = other.data_;
      len_ = other.len_;
      slot_ = other.slot_;
      pool_ = other.pool_;
    }
    return *this;
  }
  PayloadRef& operator=(PayloadRef&& other) noexcept {
    if (this != &other) {
      reset();
      data_ = other.data_;
      len_ = other.len_;
      slot_ = other.slot_;
      pool_ = other.pool_;
      other.pool_ = nullptr;
      other.data_ = nullptr;
      other.len_ = 0;
    }
    return *this;
  }
  ~PayloadRef() { reset(); }

  const std::uint8_t* data() const { return data_; }
  std::size_t size() const { return len_; }
  bool empty() const { return len_ == 0; }
  bool pooled() const { return pool_ != nullptr; }

 private:
  void reset() {
    if (pool_ != nullptr) {
      pool_->release(slot_);
      pool_ = nullptr;
    }
    data_ = nullptr;
    len_ = 0;
  }

  const std::uint8_t* data_{nullptr};
  std::uint32_t len_{0};
  std::uint32_t slot_{PayloadPool::kNil};
  PayloadPool* pool_{nullptr};
};

}  // namespace sdr::common
