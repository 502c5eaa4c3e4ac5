#include "sdr/message_table.hpp"

#include <cassert>

namespace sdr::core {

MessageTable::MessageTable(const QpAttr& attr) : attr_(attr), codec_(attr.imm) {
  assert(attr_.valid());
  slot_count_ = attr_.max_inflight;
  slots_ = std::make_unique<Slot[]>(slot_count_);
  const std::size_t packet_words = bitmap_words(attr_.max_packets_per_msg());
  const std::size_t chunk_words = bitmap_words(attr_.max_chunks_per_msg());
  bitmap_words_ = std::make_unique<std::atomic<std::uint64_t>[]>(
      slot_count_ * (packet_words + chunk_words));
  for (std::size_t i = 0; i < slot_count_; ++i) {
    std::atomic<std::uint64_t>* words =
        bitmap_words_.get() + i * (packet_words + chunk_words);
    slots_[i].packet_bits.attach(words, attr_.max_packets_per_msg());
    slots_[i].chunk_bits.attach(words + packet_words,
                                attr_.max_chunks_per_msg());
  }
}

Status MessageTable::arm(std::size_t slot_idx, std::uint32_t generation,
                         std::size_t msg_bytes) {
  if (slot_idx >= slot_count_) {
    return Status(StatusCode::kOutOfRange, "slot index out of range");
  }
  if (msg_bytes == 0 || msg_bytes > attr_.max_msg_size) {
    return Status(StatusCode::kInvalidArgument,
                  "message size outside (0, max_msg_size]");
  }
  Slot& s = slots_[slot_idx];
  if (s.active.load(std::memory_order_acquire)) {
    return Status(StatusCode::kFailedPrecondition,
                  "slot still active: complete the previous receive first");
  }
  s.msg_bytes = msg_bytes;
  s.packets = (msg_bytes + attr_.mtu - 1) / attr_.mtu;
  s.chunks = (msg_bytes + attr_.chunk_size - 1) / attr_.chunk_size;
  s.packet_bits.clear_all();
  s.chunk_bits.clear_all();
  s.packets_received.store(0, std::memory_order_relaxed);
  s.imm_frag_mask.store(0, std::memory_order_relaxed);
  s.imm_value.store(0, std::memory_order_relaxed);
  s.generation.store(generation, std::memory_order_release);
  s.active.store(true, std::memory_order_release);
  return Status::ok();
}

Status MessageTable::release(std::size_t slot_idx) {
  if (slot_idx >= slot_count_) {
    return Status(StatusCode::kOutOfRange, "slot index out of range");
  }
  Slot& s = slots_[slot_idx];
  if (!s.active.load(std::memory_order_acquire)) {
    return Status(StatusCode::kFailedPrecondition, "slot is not active");
  }
  s.active.store(false, std::memory_order_release);
  return Status::ok();
}

ProcessResult MessageTable::process_completion(const ImmFields& fields,
                                               std::uint32_t qp_generation) {
  ProcessResult result;
  if (fields.msg_id >= slot_count_) return result;
  Slot& s = slots_[fields.msg_id];

  // Stage-2 late-packet protection: the completion's generation (identified
  // by the internal QP that delivered it) must match the slot's current
  // generation, and the slot must be armed. An offset beyond the posted
  // message is a stale or corrupt packet.
  if (!s.active.load(std::memory_order_acquire) ||
      s.generation.load(std::memory_order_acquire) != qp_generation ||
      fields.packet_index >= s.packets) {
    return result;
  }

  result.accepted = true;
  if (!s.packet_bits.set_and_check(fields.packet_index)) {
    return result;  // duplicate delivery (e.g. SR retransmission overlap)
  }
  result.new_packet = true;
  const std::uint64_t received =
      s.packets_received.fetch_add(1, std::memory_order_acq_rel) + 1;

  // User-immediate reassembly.
  const unsigned frags = codec_.layout().user_fragments();
  if (frags > 0) {
    const unsigned frag_slot = codec_.fragment_slot(fields.packet_index);
    const std::uint32_t shifted = fields.user_fragment
                                  << (frag_slot * codec_.layout().user_bits);
    s.imm_value.fetch_or(shifted, std::memory_order_relaxed);
    s.imm_frag_mask.fetch_or(1u << frag_slot, std::memory_order_release);
  }

  // Chunk coalescing: the worker that observes the last packet of a chunk
  // promotes the chunk bit to the frontend bitmap (paper §3.4.2).
  const std::size_t ppc = attr_.packets_per_chunk();
  const std::size_t chunk = fields.packet_index / ppc;
  const std::size_t chunk_first = chunk * ppc;
  const std::size_t chunk_packets =
      std::min(ppc, s.packets - chunk_first);  // final chunk may be partial
  if (s.packet_bits.range_all_set(chunk_first, chunk_packets)) {
    if (s.chunk_bits.set_and_check(chunk)) {
      result.chunk_completed = true;
      result.chunk_index = static_cast<std::uint32_t>(chunk);
    }
  }
  if (received >= s.packets) result.message_completed = true;
  return result;
}

bool MessageTable::user_imm_ready(std::size_t slot_idx,
                                  std::uint32_t* imm) const {
  const Slot& s = slots_[slot_idx];
  const unsigned frags = codec_.layout().user_fragments();
  if (frags == 0) return false;
  // For messages shorter than `frags` packets only the low fragment slots
  // can ever arrive; require the reachable subset.
  const unsigned reachable =
      static_cast<unsigned>(std::min<std::size_t>(frags, s.packets));
  const std::uint32_t needed = (reachable >= 32)
                                   ? ~0u
                                   : ((1u << reachable) - 1);
  if ((s.imm_frag_mask.load(std::memory_order_acquire) & needed) != needed) {
    return false;
  }
  if (imm != nullptr) *imm = s.imm_value.load(std::memory_order_relaxed);
  return true;
}

}  // namespace sdr::core
