// Wire-level and API-level types of the software RDMA device.
//
// This module is a faithful software model of the subset of the Verbs
// contract the SDR middleware consumes (paper §2.3): Unreliable Datagram
// (UD), Unreliable Connected (UC) and Reliable Connection (RC) queue pairs,
// RDMA Write-with-immediate, completion queues with 32-bit immediate data,
// memory regions including the NULL memory region
// (ibv_alloc_null_mr-equivalent), and indirect memory keys.
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/payload_pool.hpp"

namespace sdr::verbs {

using QpNumber = std::uint32_t;
using NicId = std::uint32_t;
using MemoryKey = std::uint32_t;
using Psn = std::uint32_t;  // packet sequence number (24-bit on real wire)

inline constexpr std::size_t kDefaultMtu = 4096;
/// Per-packet wire overhead: Eth(14+4) + IP(20) + UDP(8) + BTH(12) +
/// RETH/IMM(16+4) + ICRC(4) ~= 82; we round to 84 to include preamble/IFG
/// amortization. Used for goodput accounting.
inline constexpr std::size_t kPacketHeaderBytes = 84;

enum class QpType : std::uint8_t { kUD, kUC, kRC };

enum class Opcode : std::uint8_t {
  kWriteOnly,        // single-packet RDMA Write
  kWriteOnlyImm,     // single-packet RDMA Write with immediate
  kWriteFirst,       // multi-packet Write: first packet (carries RETH)
  kWriteMiddle,
  kWriteLast,
  kWriteLastImm,
  kSendOnly,         // two-sided send (UD), single packet
  kSendOnlyImm,
  kAck,              // RC acknowledgment
  kNak,              // RC negative acknowledgment (PSN gap)
};

constexpr bool is_write_start(Opcode op) {
  return op == Opcode::kWriteOnly || op == Opcode::kWriteOnlyImm ||
         op == Opcode::kWriteFirst;
}
constexpr bool is_write_end(Opcode op) {
  return op == Opcode::kWriteOnly || op == Opcode::kWriteOnlyImm ||
         op == Opcode::kWriteLast || op == Opcode::kWriteLastImm;
}
constexpr bool carries_imm(Opcode op) {
  return op == Opcode::kWriteOnlyImm || op == Opcode::kWriteLastImm ||
         op == Opcode::kSendOnlyImm;
}

/// One packet on the simulated wire. Payload bytes are carried by
/// reference (common::PayloadRef): RDMA Writes borrow a slice of the
/// registered source buffer directly (zero-copy, like the DMA engine the
/// paper's NIC uses), UD sends hold a pooled refcounted copy.
/// Duplicating the packet — channel duplication, the RC retransmit queue —
/// duplicates the reference, never the bytes.
struct WirePacket {
  NicId dst_nic{0};
  QpNumber dst_qp{0};
  QpNumber src_qp{0};
  Psn psn{0};
  Opcode opcode{Opcode::kWriteOnly};
  std::uint32_t imm{0};
  // RDMA Write addressing (RETH): target memory key and offset within it.
  MemoryKey rkey{0};
  std::uint64_t remote_offset{0};
  common::PayloadRef payload;
};

enum class WcStatus : std::uint8_t {
  kSuccess = 0,
  kLocalProtectionError,  // bad lkey / out-of-range local access
  kRemoteAccessError,     // bad rkey / out-of-range remote access
  kRetryExceeded,         // RC gave up retransmitting
  kFlushed,               // QP destroyed with outstanding work
};

/// Completion queue entry. `imm_valid` distinguishes Write (no consumer-side
/// CQE on real hardware) from Write-with-immediate.
struct Cqe {
  std::uint64_t wr_id{0};
  QpNumber qp{0};
  QpNumber src_qp{0};
  WcStatus status{WcStatus::kSuccess};
  std::uint32_t byte_len{0};
  std::uint32_t imm{0};
  bool imm_valid{false};
  bool is_recv{false};
};

/// Send work request: RDMA Write [with immediate] of a local buffer span to
/// (rkey, remote_offset) on the connected peer.
struct WriteWr {
  std::uint64_t wr_id{0};
  const std::uint8_t* local_addr{nullptr};
  std::size_t length{0};
  MemoryKey rkey{0};
  std::uint64_t remote_offset{0};
  bool with_imm{false};
  std::uint32_t imm{0};
  bool signaled{true};
};

/// Two-sided send (UD): at most one MTU of payload, addressed to
/// (`dst_nic`, `dst_qp`).
struct SendWr {
  std::uint64_t wr_id{0};
  const std::uint8_t* local_addr{nullptr};
  std::size_t length{0};
  bool with_imm{false};
  std::uint32_t imm{0};
  bool signaled{true};
  NicId dst_nic{0};
  QpNumber dst_qp{0};
};

/// Receive work request (consumed by UD sends).
struct RecvWr {
  std::uint64_t wr_id{0};
  std::uint8_t* addr{nullptr};
  std::size_t length{0};
};

}  // namespace sdr::verbs
