// SDR middleware SDK — the paper's core contribution (Table 1).
//
// The SDK extends standard point-to-point RDMA semantics with unreliable
// arbitrary-length messaging and a *partial message completion* bitmap:
// the receiver posts a buffer, the sender streams MTU-sized packets into it
// as single-packet unreliable Writes-with-immediate, and the receive backend
// coalesces per-packet completions into a chunk bitmap the reliability layer
// polls. Matching is order-based; generations + the NULL memory key protect
// against late packets (§3.3); the backend logic is the same code the DPA
// engine runs multi-threaded (src/dpa).
//
// Each Table 1 call is one method below, named after the call less its sdr_
// prefix. The exceptions: context_create is the Context constructor,
// qp_create and mr_reg are Context::create_qp and Context::mr_reg, and
// qp_info_get and qp_connect are Qp::info and Qp::connect (docs/API.md has
// the table).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/status.hpp"
#include "sdr/config.hpp"
#include "sdr/imm_codec.hpp"
#include "sdr/message_table.hpp"
#include "telemetry/telemetry.hpp"
#include "verbs/control_link.hpp"
#include "verbs/cq.hpp"
#include "verbs/nic.hpp"

namespace sdr::core {

class Context;
class Qp;

/// Out-of-band connection blob (qp_info_get / qp_connect). In a real
/// deployment this crosses a TCP socket; in the simulator it is passed by
/// value.
struct QpInfo {
  verbs::NicId nic{0};
  verbs::QpNumber control_qp{0};
  std::vector<verbs::QpNumber> data_qps;  // [generation * channels + channel]
  verbs::MemoryKey root_key{0};
  QpAttr attr;
};

/// Streaming / one-shot send message context (snd_handle).
class SendHandle {
 public:
  std::uint64_t msg_number() const { return msg_number_; }
  std::size_t slot() const { return slot_; }
  std::uint32_t generation() const { return generation_; }
  bool ended() const { return ended_; }
  /// True once the receiver's clear-to-send arrived (injection can start).
  bool cts_ready() const { return cts_ready_; }
  std::uint64_t packets_injected() const { return packets_injected_; }

 private:
  friend class Qp;
  std::uint64_t msg_number_{0};
  std::size_t slot_{0};
  std::uint32_t generation_{0};
  std::uint32_t user_imm_{0};
  bool has_user_imm_{false};
  bool ended_{false};
  bool cts_ready_{false};
  std::uint64_t packets_injected_{0};
  // Signaled WRs (one per inject call and channel) handed to the NIC whose
  // send CQE has not fired yet.
  std::uint64_t signaled_pending_{0};
  std::size_t remote_msg_bytes_{0};   // from CTS: posted buffer length
  // Ops issued before the CTS arrived: a first-in first-out chain through
  // the QP's pending-op pool (Qp::pending_ops_), kNoOp while empty.
  static constexpr std::uint32_t kNoOp = ~std::uint32_t{0};
  std::uint32_t queued_head_{kNoOp};
  std::uint32_t queued_tail_{kNoOp};
  bool in_use_{false};

  /// Ready the slot's handle for its next message. Its op chain is already
  /// empty: send_poll waits for the flush, send_abort drops the chain, and
  /// a refused send_post queued nothing.
  void reset() {
    msg_number_ = 0;
    slot_ = 0;
    generation_ = 0;
    user_imm_ = 0;
    has_user_imm_ = false;
    ended_ = false;
    cts_ready_ = false;
    packets_injected_ = 0;
    signaled_pending_ = 0;
    remote_msg_bytes_ = 0;
    queued_head_ = kNoOp;
    queued_tail_ = kNoOp;
    in_use_ = false;
  }
};

/// Receive message context (rcv_handle).
class RecvHandle {
 public:
  std::uint64_t msg_number() const { return msg_number_; }
  std::size_t slot() const { return slot_; }
  std::size_t msg_bytes() const { return msg_bytes_; }
  std::size_t chunk_count() const { return chunk_count_; }
  /// recv_complete sim time; negative while the receive is posted.
  double completed_at_s() const { return completed_at_s_; }

 private:
  friend class Qp;
  std::uint64_t msg_number_{0};
  std::size_t slot_{0};
  std::uint32_t generation_{0};
  bool in_use_{false};  // in generation_'s padding: a handle is 64 bytes
  std::size_t msg_bytes_{0};
  std::size_t chunk_count_{0};
  const verbs::MemoryRegion* mr_{nullptr};
  double posted_at_s_{-1.0};  // recv_post sim time (completion latency)
  double completed_at_s_{-1.0};
};

/// Receive-side events fired from inside the backend (the event-driven
/// equivalent of busy-polling the bitmap; see cq.hpp::set_notify). kLate:
/// a copy of a chunk's last packet reached the slot after recv_complete
/// released `handle`, which still names the finished message.
struct RecvEvent {
  enum class Type { kChunkCompleted, kMessageCompleted, kLate } type;
  RecvHandle* handle;
  std::uint32_t chunk_index;  // valid for kChunkCompleted and kLate
};

struct SdrQpStats {
  std::uint64_t cts_sent{0};
  std::uint64_t cts_received{0};
  std::uint64_t data_packets_sent{0};
  std::uint64_t completions_processed{0};
  std::uint64_t completions_discarded{0};  // stale generation / inactive slot
  std::uint64_t sends_queued_waiting_cts{0};
  // UD-transport staging costs (paper §2.3): packets copied from runtime
  // staging buffers into the user buffer, and bytes so copied.
  std::uint64_t staged_packets{0};
  std::uint64_t staged_bytes{0};
};

/// The SDR queue pair: order-based matched, bitmap-completing unreliable
/// messaging endpoint.
class Qp {
 public:
  Qp(Context& ctx, const QpAttr& attr);
  ~Qp();
  Qp(const Qp&) = delete;
  Qp& operator=(const Qp&) = delete;

  const QpAttr& attr() const { return attr_; }

  /// Table 1: qp_info_get.
  QpInfo info() const;

  /// Table 1: qp_connect.
  Status connect(const QpInfo& remote);
  bool connected() const { return connected_; }

  // ---- send path ----
  Status send_stream_start(std::uint32_t user_imm, bool has_user_imm,
                           SendHandle** handle);
  Status send_stream_continue(SendHandle* handle, const std::uint8_t* data,
                              std::size_t remote_offset, std::size_t length);
  Status send_stream_end(SendHandle* handle);
  /// One-shot: start + continue(offset 0) + end in a single call.
  Status send_post(const std::uint8_t* data, std::size_t length,
                   std::uint32_t user_imm, bool has_user_imm,
                   SendHandle** handle);
  /// kOk once all injected packets have left the NIC and the stream has
  /// ended; kNotReady otherwise. A completed handle is recycled.
  Status send_poll(SendHandle* handle);
  /// Release a send whose injection never started (its CTS never arrived
  /// and the message completed by other means, e.g. EC parity recovery).
  /// Drops the queued ops and recycles the handle. kFailedPrecondition if
  /// packets have already been handed to the NIC — such a send must drain
  /// through send_poll instead.
  Status send_abort(SendHandle* handle);

  // ---- receive path ----
  Status recv_post(std::uint8_t* addr, std::size_t length,
                   const verbs::MemoryRegion* mr, RecvHandle** handle);
  /// Table 1: recv_bitmap_get — the frontend chunk bitmap for this receive.
  Status recv_bitmap_get(RecvHandle* handle, const AtomicBitmap** bitmap) const;
  /// Table 1: recv_imm_get — reassembled user immediate, kNotReady until
  /// every fragment slot has been observed.
  Status recv_imm_get(RecvHandle* handle, std::uint32_t* imm) const;
  /// Table 1: recv_complete — release the receive; arms late-packet
  /// protection (NULL-key rebind + generation bump on slot reuse).
  Status recv_complete(RecvHandle* handle);

  /// Re-send the CTS for a posted receive. The CTS is a single unreliable
  /// datagram; if it is lost the sender never starts injecting and the
  /// message wedges. Reliability layers that arm a CTS-retry timer call
  /// this until the first data chunk lands. Duplicate CTSes are ignored by
  /// the sender (the handle is already cts_ready).
  Status resend_cts(RecvHandle* handle);

  /// Convenience for reliability layers: has every chunk arrived?
  bool recv_done(const RecvHandle* handle) const;
  std::uint64_t recv_packets(const RecvHandle* handle) const;

  /// Event-driven notification for simulator-resident reliability layers.
  void set_recv_event_handler(std::function<void(const RecvEvent&)> fn) {
    recv_event_handler_ = std::move(fn);
  }
  /// Fired when a CTS arrives for a message the app may not have started.
  void set_cts_handler(std::function<void(std::uint64_t msg_number)> fn) {
    cts_handler_ = std::move(fn);
  }

  const SdrQpStats& stats() const { return stats_; }
  MessageTable& message_table() { return table_; }
  Context& context() { return ctx_; }

  /// The message-table slot of message `msg_number` (order-based matching:
  /// numbers map onto the table round-robin).
  std::size_t slot_of(std::uint64_t msg_number) const {
    return static_cast<std::size_t>(msg_number % attr_.max_inflight);
  }
  /// The handle of send or receive message `msg_number`: the one at its
  /// slot. It names that message from its start or post until the slot's
  /// next message takes it over.
  SendHandle* send_handle(std::uint64_t msg_number) {
    return &send_handles_[slot_of(msg_number)];
  }
  RecvHandle* recv_handle(std::uint64_t msg_number) {
    return &recv_handles_[slot_of(msg_number)];
  }

  /// Stable connection id for flight-recorder records: the QP number of
  /// the CTS link.
  verbs::QpNumber control_qp_num() const { return control_.qp_number(); }

 private:
  struct CtsMessage {
    std::uint64_t msg_number;
    std::uint32_t slot;
    std::uint32_t generation;
    std::uint64_t msg_bytes;
  };

  verbs::Qp* data_qp(std::uint32_t generation, std::size_t channel) {
    return data_qps_[generation * attr_.channels + channel];
  }
  std::uint32_t generation_of(std::uint64_t msg_number) const {
    return static_cast<std::uint32_t>((msg_number / attr_.max_inflight) %
                                      attr_.generations);
  }

  void send_cts(const CtsMessage& cts);
  void on_cts(const std::uint8_t* data, std::size_t length);
  void on_cqe();
  void inject(SendHandle* handle, const std::uint8_t* data,
              std::size_t remote_offset, std::size_t length);
  void queue_op(SendHandle* handle, const std::uint8_t* data,
                std::size_t remote_offset, std::size_t length);
  void flush_queued(SendHandle* handle);
  /// Hand the handle's whole op chain back to the pool's free list.
  void drop_queued(SendHandle* handle);
  void register_metrics();
  SimTime sim_now() const;

  Context& ctx_;
  QpAttr attr_;
  ImmCodec codec_;
  MessageTable table_;

  bool connected_{false};
  verbs::NicId remote_nic_{0};
  verbs::MemoryKey remote_root_key_{0};
  std::vector<verbs::QpNumber> remote_data_qps_;  // UD datagram targets

  // Internal verbs resources. The CTS link comes first: its QP is created
  // before the data QPs, and ECMP path selection hashes QP numbers.
  verbs::ControlLink control_;
  // The send and receive CQ of every data QP. The data QPs are numbered
  // consecutively from first_data_qp_, so a CQE's QP number gives its
  // index [gen * channels + chan].
  verbs::CompletionQueue cq_;
  std::vector<verbs::Qp*> data_qps_;
  verbs::QpNumber first_data_qp_{0};
  verbs::IndirectMkeyTable* root_table_{nullptr};
  const verbs::MemoryRegion* null_mr_{nullptr};

  // Order-based matching state. A CTS that outruns its send_stream_start
  // parks in the per-slot pending array: order-based matching means at most
  // one CTS can be pending per slot (the receiver cannot post msg
  // n+max_inflight until msg n completed, which required the sender to have
  // consumed CTS n), so no map is needed.
  std::uint64_t send_counter_{0};
  std::uint64_t recv_counter_{0};
  struct PendingCts {
    CtsMessage msg{};
    bool valid{false};
  };
  std::vector<PendingCts> cts_pending_;

  // Handles: one per message-table slot (bounded in-flight). The handle
  // for in-flight send msg_number is send_handles_[slot_of(msg_number)];
  // CTS arrival re-derives it the same way. Stored by value (sized once in
  // the constructor, never resized) so handle addresses stay stable without
  // one heap node per slot.
  std::vector<SendHandle> send_handles_;
  std::vector<RecvHandle> recv_handles_;
  std::size_t active_send_count_{0};

  // Pending-op pool: one node per op issued before its handle's CTS. Each
  // handle chains its nodes first-in first-out through `next`; free nodes
  // chain from free_op_. Flushes and send_abort return nodes, so a fresh
  // slot's ops reuse them and the pool grows only with the QP's peak of
  // ops queued at once.
  struct PendingOp {
    const std::uint8_t* data{nullptr};
    std::size_t offset{0};
    std::size_t length{0};
    std::uint32_t next{SendHandle::kNoOp};
  };
  std::vector<PendingOp> pending_ops_;
  std::uint32_t free_op_{SendHandle::kNoOp};

  // UD transport: one staging buffer per data QP, the buffer of QP i at
  // [i * mtu] of one allocation. Never zero-filled: the backend copies out
  // only the bytes a datagram wrote.
  std::unique_ptr<std::uint8_t[]> ud_staging_;

  std::function<void(const RecvEvent&)> recv_event_handler_;
  std::function<void(std::uint64_t)> cts_handler_;
  SdrQpStats stats_;
  // Tail-latency rollups (Figs 10/13): recv_post -> chunk-bit / message
  // completion latency, exported per trial via the registry flattening.
  telemetry::HistogramHandle chunk_completion_hist_;
  telemetry::HistogramHandle msg_completion_hist_;
  telemetry::Scope tele_;  // last member: unbinds before stats_ dies
};

/// SDR device context: wraps a software NIC, owns QPs and registered memory
/// (Table 1: context_create / mr_reg).
/// Lifetime: contexts (and their QPs) unregister verbs resources from the
/// NIC on destruction — the NIC must outlive every Context created on it.
class Context {
 public:
  Context(verbs::Nic& nic, DevAttr);
  Context(const Context&) = delete;
  Context& operator=(const Context&) = delete;

  verbs::Nic& nic() { return nic_; }

  Qp* create_qp(const QpAttr& attr);
  const verbs::MemoryRegion* mr_reg(void* addr, std::size_t length);
  /// Release a registration. No receive may still be bound to it: complete
  /// them first (recv_complete rebinds their slots to the NULL key).
  Status mr_dereg(const verbs::MemoryRegion* mr);

 private:
  verbs::Nic& nic_;
  std::vector<std::unique_ptr<Qp>> qps_;
};

}  // namespace sdr::core
