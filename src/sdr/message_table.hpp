// The SDR receive-side message table: per-slot state, per-packet (backend)
// bitmaps and chunk (frontend) bitmaps, generation checking and user-
// immediate reassembly (paper §3.2.2-§3.2.4, §3.3).
//
// process_completion() is the exact logic the paper offloads to DPA worker
// threads — it is thread-safe (atomic bitmaps, relaxed counters) so the same
// code path serves both the deterministic simulator backend and the
// multi-threaded dpa::Engine used by the line-rate benchmarks.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/bitmap.hpp"
#include "common/status.hpp"
#include "sdr/config.hpp"
#include "sdr/imm_codec.hpp"

namespace sdr::core {

/// Outcome of processing one packet completion.
struct ProcessResult {
  bool accepted{false};          // false: discarded (stale gen / bad slot)
  bool new_packet{false};        // bit transitioned 0 -> 1
  bool chunk_completed{false};   // this packet completed its chunk
  bool message_completed{false}; // this packet completed the whole message
  std::uint32_t chunk_index{0};
};

class MessageTable {
 public:
  explicit MessageTable(const QpAttr& attr);

  std::size_t slot_count() const { return slot_count_; }
  const QpAttr& attr() const { return attr_; }

  /// Arm slot for a message of `msg_bytes` (<= max_msg_size) at generation
  /// `generation`. Clears bitmaps. Returns kFailedPrecondition if the slot
  /// is still active (receive not completed).
  Status arm(std::size_t slot, std::uint32_t generation,
             std::size_t msg_bytes);

  /// Deactivate slot (recv_complete): subsequent completions carrying a
  /// different generation are discarded; same-generation completions are
  /// also discarded because the slot is inactive.
  Status release(std::size_t slot);

  /// The DPA/backend hot path: decode already done by the caller (fields),
  /// `qp_generation` identifies the internal QP (generation) that delivered
  /// the CQE (paper §3.3.2 stage-2 protection).
  ProcessResult process_completion(const ImmFields& fields,
                                   std::uint32_t qp_generation);

  // ---- frontend (user-facing) accessors ----
  bool slot_active(std::size_t slot) const {
    return slots_[slot].active.load(std::memory_order_acquire);
  }
  std::size_t msg_bytes(std::size_t slot) const {
    return slots_[slot].msg_bytes;
  }
  std::size_t chunks(std::size_t slot) const { return slots_[slot].chunks; }
  std::size_t packets(std::size_t slot) const { return slots_[slot].packets; }

  /// Chunk (frontend) bitmap word access — what recv_bitmap_get exposes.
  const AtomicBitmap& chunk_bitmap(std::size_t slot) const {
    return slots_[slot].chunk_bits;
  }
  const AtomicBitmap& packet_bitmap(std::size_t slot) const {
    return slots_[slot].packet_bits;
  }

  std::uint64_t packets_received(std::size_t slot) const {
    return slots_[slot].packets_received.load(std::memory_order_relaxed);
  }
  bool message_complete(std::size_t slot) const {
    const Slot& s = slots_[slot];
    return s.packets_received.load(std::memory_order_acquire) >= s.packets &&
           s.packets > 0;
  }

  /// User-immediate reassembly (paper §3.2.4 field 3): returns true and the
  /// 32-bit immediate once every fragment slot has been observed.
  bool user_imm_ready(std::size_t slot, std::uint32_t* imm) const;

 private:
  struct Slot {
    std::atomic<bool> active{false};
    std::atomic<std::uint32_t> generation{0};
    std::size_t msg_bytes{0};
    std::size_t packets{0};
    std::size_t chunks{0};
    AtomicBitmap packet_bits;   // backend per-packet bitmap (DPA memory)
    AtomicBitmap chunk_bits;    // frontend chunk bitmap (host memory)
    std::atomic<std::uint64_t> packets_received{0};
    std::atomic<std::uint32_t> imm_frag_mask{0};
    std::atomic<std::uint32_t> imm_value{0};
  };

  QpAttr attr_;
  ImmCodec codec_;
  // One array of slots and one of bitmap words (every slot's packet bitmap,
  // then its chunk bitmap): Slot contains atomics and is neither copyable
  // nor movable, and the table size is fixed at construction, so two
  // allocations serve the whole table instead of three per slot.
  std::size_t slot_count_{0};
  std::unique_ptr<Slot[]> slots_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> bitmap_words_;
};

}  // namespace sdr::core
