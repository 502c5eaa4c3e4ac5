#include "sdr/sdr.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "common/logging.hpp"

namespace sdr::core {

// ---------------------------------------------------------------------------
// Context
// ---------------------------------------------------------------------------

Context::Context(verbs::Nic& nic, DevAttr) : nic_(nic) {}

Qp* Context::create_qp(const QpAttr& attr) {
  if (!attr.valid()) return nullptr;
  qps_.push_back(std::make_unique<Qp>(*this, attr));
  return qps_.back().get();
}

const verbs::MemoryRegion* Context::mr_reg(void* addr, std::size_t length) {
  if (addr == nullptr || length == 0) return nullptr;
  return nic_.pd().register_mr(static_cast<std::uint8_t*>(addr), length);
}

Status Context::mr_dereg(const verbs::MemoryRegion* mr) {
  return nic_.pd().deregister_mr(mr);
}

// ---------------------------------------------------------------------------
// Qp setup
// ---------------------------------------------------------------------------

Qp::Qp(Context& ctx, const QpAttr& attr)
    : ctx_(ctx),
      attr_(attr),
      codec_(attr.imm),
      table_(attr),
      control_(ctx.nic()),
      cq_(1 << 16) {
  assert(attr_.valid());
  verbs::Nic& nic = ctx_.nic();
  control_.set_receiver(
      [this](const std::uint8_t* data, std::size_t length) {
        on_cts(data, length);
      });

  // Data path: generations x channels QPs on one CQ. Its notify drains
  // every completion inline, so one CQ serves them all; the per-channel
  // CQs that DPA workers poll in parallel (§3.4.1) are src/dpa's rings.
  // Transport is UC (zero-copy, the default) or UD (two-sided with
  // staging, §2.3).
  const bool ud = attr_.transport == Transport::kUd;
  const std::size_t n_qps = attr_.generations * attr_.channels;
  data_qps_.reserve(n_qps);
  if (ud) {
    ud_staging_ =
        std::make_unique_for_overwrite<std::uint8_t[]>(n_qps * attr_.mtu);
  }
  // One growth step up front: the first completion must not allocate on
  // the data path (the zero-alloc steady-state gate).
  cq_.reserve(64);
  verbs::QpConfig cfg;
  cfg.type = ud ? verbs::QpType::kUD : verbs::QpType::kUC;
  cfg.mtu = attr_.mtu;
  cfg.send_cq = &cq_;
  cfg.recv_cq = &cq_;
  for (std::size_t i = 0; i < n_qps; ++i) {
    verbs::Qp* qp = nic.create_qp(cfg);
    if (ud) {
      // One staging buffer, as in verbs::ControlLink: the CQ notify drains
      // inline, so the backend copies each datagram out and re-posts the
      // buffer before the next one can land.
      verbs::RecvWr rwr;
      rwr.addr = ud_staging_.get() + i * attr_.mtu;
      rwr.length = attr_.mtu;
      qp->post_recv(rwr);
    }
    data_qps_.push_back(qp);
  }
  first_data_qp_ = data_qps_.front()->num();
  assert(data_qps_.back()->num() == first_data_qp_ + n_qps - 1);
  cq_.set_notify([this] { on_cqe(); });

  // Receive-side root indirect memory key (Figure 5): one slot of
  // max_msg_size bytes per message-table entry, all initially bound to
  // the domain's NULL MR.
  root_table_ =
      nic.pd().create_indirect_table(attr_.max_inflight, attr_.max_msg_size);
  null_mr_ = nic.pd().null_mr();
  for (std::size_t s = 0; s < attr_.max_inflight; ++s) {
    root_table_->bind_null(s, null_mr_);
  }

  // Handle pools: one handle per slot bounds in-flight messages. The CTS
  // pending array is slot-indexed for the same reason (see sdr.hpp).
  send_handles_.resize(attr_.max_inflight);
  recv_handles_.resize(attr_.max_inflight);
  cts_pending_.resize(attr_.max_inflight);

  if (telemetry::enabled()) register_metrics();
}

void Qp::register_metrics() {
  auto& reg = telemetry::registry();
  tele_ = telemetry::Scope(reg, reg.instance_name("sdr.qp"));
  tele_.bind_counter("cts_sent", &stats_.cts_sent);
  tele_.bind_counter("cts_received", &stats_.cts_received);
  tele_.bind_counter("data_packets_sent", &stats_.data_packets_sent);
  tele_.bind_counter("completions_processed", &stats_.completions_processed);
  tele_.bind_counter("completions_discarded", &stats_.completions_discarded);
  tele_.bind_counter("sends_queued_waiting_cts",
                     &stats_.sends_queued_waiting_cts);
  tele_.bind_counter("staged_packets", &stats_.staged_packets);
  tele_.bind_counter("staged_bytes", &stats_.staged_bytes);
  tele_.bind_gauge("active_sends", [this] {
    return static_cast<double>(active_send_count_);
  });
  // Completion-latency rollups (recv_post -> chunk bit / full message):
  // flatten() derives .p50/.p99/.p999 columns, so fig10/fig13 sweeps export
  // the tail per trial.
  chunk_completion_hist_ = tele_.histogram("chunk_completion_s", 1e-6, 1e3);
  msg_completion_hist_ = tele_.histogram("msg_completion_s", 1e-6, 1e3);
}

SimTime Qp::sim_now() const { return ctx_.nic().simulator().now(); }

Qp::~Qp() {
  verbs::Nic& nic = ctx_.nic();
  for (verbs::Qp* qp : data_qps_) nic.destroy_qp(qp->num());
}

QpInfo Qp::info() const {
  QpInfo info;
  info.nic = ctx_.nic().id();
  info.control_qp = control_.qp_number();
  info.data_qps.reserve(data_qps_.size());
  for (const verbs::Qp* qp : data_qps_) info.data_qps.push_back(qp->num());
  info.root_key = root_table_->key();
  info.attr = attr_;
  return info;
}

Status Qp::connect(const QpInfo& remote) {
  if (remote.data_qps.size() != data_qps_.size()) {
    return Status(StatusCode::kInvalidArgument,
                  "generation/channel configuration mismatch");
  }
  const QpAttr& r = remote.attr;
  if (r.max_msg_size != attr_.max_msg_size || r.mtu != attr_.mtu ||
      r.chunk_size != attr_.chunk_size ||
      r.max_inflight != attr_.max_inflight ||
      r.generations != attr_.generations || r.channels != attr_.channels ||
      r.imm.msg_id_bits != attr_.imm.msg_id_bits ||
      r.imm.offset_bits != attr_.imm.offset_bits) {
    return Status(StatusCode::kInvalidArgument, "QP attribute mismatch");
  }
  if (r.transport != attr_.transport) {
    return Status(StatusCode::kInvalidArgument, "transport mismatch");
  }
  remote_nic_ = remote.nic;
  control_.connect(remote.nic, remote.control_qp);
  remote_root_key_ = remote.root_key;
  remote_data_qps_ = remote.data_qps;
  for (std::size_t i = 0; i < data_qps_.size(); ++i) {
    data_qps_[i]->connect(remote.nic, remote.data_qps[i]);
  }
  connected_ = true;
  return Status::ok();
}

// ---------------------------------------------------------------------------
// Send path
// ---------------------------------------------------------------------------

Status Qp::send_stream_start(std::uint32_t user_imm, bool has_user_imm,
                             SendHandle** handle) {
  if (!connected_) return Status(StatusCode::kNotConnected, "connect first");
  if (handle == nullptr) {
    return Status(StatusCode::kInvalidArgument, "null handle out-param");
  }
  const std::uint64_t msg_number = send_counter_;
  const std::size_t slot = slot_of(msg_number);
  SendHandle* h = &send_handles_[slot];
  if (h->in_use_) {
    return Status(StatusCode::kResourceExhausted,
                  "message table full: poll previous sends to completion");
  }
  ++send_counter_;
  h->reset();
  h->in_use_ = true;
  h->msg_number_ = msg_number;
  h->slot_ = slot;
  h->generation_ = generation_of(msg_number);
  h->user_imm_ = user_imm;
  h->has_user_imm_ = has_user_imm;
  ++active_send_count_;

  // Consume an already-arrived CTS (receiver posted before we started).
  if (PendingCts& pending = cts_pending_[slot];
      pending.valid && pending.msg.msg_number == msg_number) {
    h->cts_ready_ = true;
    h->remote_msg_bytes_ = pending.msg.msg_bytes;
    pending.valid = false;
  }
  *handle = h;
  return Status::ok();
}

Status Qp::send_stream_continue(SendHandle* handle, const std::uint8_t* data,
                                std::size_t remote_offset,
                                std::size_t length) {
  if (handle == nullptr || !handle->in_use_) {
    return Status(StatusCode::kInvalidArgument, "invalid send handle");
  }
  if (handle->ended_) {
    return Status(StatusCode::kFailedPrecondition,
                  "stream already ended: no new chunks may be added");
  }
  if (data == nullptr || length == 0) {
    return Status(StatusCode::kInvalidArgument, "empty chunk");
  }
  if (remote_offset % attr_.mtu != 0) {
    return Status(StatusCode::kInvalidArgument,
                  "chunk offset must be MTU-aligned");
  }
  if (remote_offset + length > attr_.max_msg_size) {
    return Status(StatusCode::kOutOfRange,
                  "chunk exceeds the maximum message size");
  }
  if (handle->cts_ready_) {
    if (remote_offset + length > handle->remote_msg_bytes_) {
      return Status(StatusCode::kOutOfRange,
                    "chunk exceeds the posted receive buffer");
    }
    inject(handle, data, remote_offset, length);
  } else {
    // Receiver has not posted yet: queue the op; it flushes on CTS.
    queue_op(handle, data, remote_offset, length);
    ++stats_.sends_queued_waiting_cts;
  }
  return Status::ok();
}

Status Qp::send_stream_end(SendHandle* handle) {
  if (handle == nullptr || !handle->in_use_) {
    return Status(StatusCode::kInvalidArgument, "invalid send handle");
  }
  if (handle->ended_) {
    return Status(StatusCode::kFailedPrecondition, "stream already ended");
  }
  handle->ended_ = true;
  return Status::ok();
}

Status Qp::send_post(const std::uint8_t* data, std::size_t length,
                     std::uint32_t user_imm, bool has_user_imm,
                     SendHandle** handle) {
  SendHandle* h = nullptr;
  if (Status s = send_stream_start(user_imm, has_user_imm, &h); !s) return s;
  if (Status s = send_stream_continue(h, data, 0, length); !s) {
    // Roll the message context back so the slot is not leaked, and park
    // again the CTS the start consumed: the core sends each grant once, so
    // the next post of this message number must find it here.
    if (h->cts_ready_) {
      cts_pending_[h->slot_] = PendingCts{
          CtsMessage{h->msg_number_, static_cast<std::uint32_t>(h->slot_),
                     h->generation_, h->remote_msg_bytes_},
          true};
    }
    h->in_use_ = false;
    --active_send_count_;
    --send_counter_;
    return s;
  }
  if (Status s = send_stream_end(h); !s) return s;
  *handle = h;
  return Status::ok();
}

Status Qp::send_poll(SendHandle* handle) {
  if (handle == nullptr || !handle->in_use_) {
    return Status(StatusCode::kInvalidArgument, "invalid send handle");
  }
  if (!handle->ended_ || !handle->cts_ready_ ||
      handle->queued_head_ != SendHandle::kNoOp ||
      handle->signaled_pending_ != 0) {
    return Status(StatusCode::kNotReady, "");
  }
  // Completed: destroy the message context (one-shot semantics §3.1.2).
  handle->in_use_ = false;
  --active_send_count_;
  return Status::ok();
}

Status Qp::send_abort(SendHandle* handle) {
  if (handle == nullptr || !handle->in_use_) {
    return Status(StatusCode::kInvalidArgument, "invalid send handle");
  }
  if (handle->packets_injected_ != 0) {
    return Status(StatusCode::kFailedPrecondition,
                  "send already injecting: drain it through send_poll");
  }
  drop_queued(handle);
  handle->in_use_ = false;
  --active_send_count_;
  return Status::ok();
}

void Qp::inject(SendHandle* handle, const std::uint8_t* data,
                std::size_t remote_offset, std::size_t length) {
  const std::size_t mtu = attr_.mtu;
  const std::size_t slot = handle->slot_;
  const std::uint32_t gen = handle->generation_;
  // Selective signaling: one QP's send completions arrive in post order
  // (wire frontiers only grow), so only the last WR this call posts on each
  // channel asks for a CQE; when it fires, every earlier WR of the call on
  // that channel has left. Packets go round-robin over the channels, so the
  // last `channels` packets are exactly those last WRs.
  const std::size_t packets = (length + mtu - 1) / mtu;
  std::size_t sent = 0;
  for (std::size_t p = 0; sent < length; ++p) {
    const std::size_t chunk = std::min(mtu, length - sent);
    const bool signaled = p + attr_.channels >= packets;
    const std::size_t byte_off = remote_offset + sent;
    const auto packet_index = static_cast<std::uint32_t>(byte_off / mtu);
    const std::uint32_t frag =
        handle->has_user_imm_
            ? codec_.sample_user_fragment(handle->user_imm_, packet_index)
            : 0;

    // Multi-channel distribution (§3.4.1): spread packets across channel
    // QPs of this message's generation.
    const std::size_t channel = packet_index % attr_.channels;
    const std::uint32_t imm =
        codec_.encode(static_cast<std::uint32_t>(slot), packet_index, frag);

    // Emit before the post: the post may traverse the whole channel
    // synchronously in sim time, and within one timestamp the ring keeps
    // emission order, so the timeline should read posted -> tx -> ...
    if (telemetry::observing()) {
      // The span tree keys chunks at reliability granularity
      // (attr.chunk_size) so SR/EC rto/retransmit instants join the same
      // chunk span as the packets they re-send. a = wire packet index.
      telemetry::emit(
          {.t = sim_now(), .kind = telemetry::EventKind::kPosted,
           .qp = remote_data_qps_[gen * attr_.channels + channel],
           .msg = handle->msg_number_,
           .chunk = static_cast<std::uint32_t>(byte_off / attr_.chunk_size),
           .imm = imm, .bytes = chunk, .a = packet_index});
    }

    if (attr_.transport == Transport::kUd) {
      // Two-sided datagram: the receiver resolves placement from the
      // immediate (offset) itself and copies out of its staging buffer.
      verbs::SendWr wr;
      wr.wr_id = slot;
      wr.local_addr = data + sent;
      wr.length = chunk;
      wr.with_imm = true;
      wr.imm = imm;
      wr.signaled = signaled;
      wr.dst_nic = remote_nic_;
      wr.dst_qp = remote_data_qps_[gen * attr_.channels + channel];
      data_qp(gen, channel)->post_send(wr);
    } else {
      verbs::WriteWr wr;
      wr.wr_id = slot;  // names the handle in its send CQE
      wr.local_addr = data + sent;
      wr.length = chunk;
      wr.rkey = remote_root_key_;
      wr.remote_offset =
          static_cast<std::uint64_t>(slot) * attr_.max_msg_size + byte_off;
      wr.with_imm = true;
      wr.imm = imm;
      wr.signaled = signaled;
      data_qp(gen, channel)->post_write(wr);
    }
    ++handle->packets_injected_;
    if (signaled) ++handle->signaled_pending_;
    ++stats_.data_packets_sent;
    sent += chunk;
  }
}

void Qp::queue_op(SendHandle* handle, const std::uint8_t* data,
                  std::size_t remote_offset, std::size_t length) {
  std::uint32_t i = free_op_;
  if (i == SendHandle::kNoOp) {
    // A QP that queues at all queues several: start at 16 nodes, not 1.
    if (pending_ops_.empty()) pending_ops_.reserve(16);
    i = static_cast<std::uint32_t>(pending_ops_.size());
    pending_ops_.emplace_back();
  } else {
    free_op_ = pending_ops_[i].next;
  }
  pending_ops_[i] = PendingOp{data, remote_offset, length, SendHandle::kNoOp};
  if (handle->queued_tail_ == SendHandle::kNoOp) {
    handle->queued_head_ = i;
  } else {
    pending_ops_[handle->queued_tail_].next = i;
  }
  handle->queued_tail_ = i;
}

void Qp::flush_queued(SendHandle* handle) {
  while (handle->queued_head_ != SendHandle::kNoOp) {
    const std::uint32_t i = handle->queued_head_;
    const PendingOp op = pending_ops_[i];
    handle->queued_head_ = op.next;
    pending_ops_[i].next = free_op_;
    free_op_ = i;
    if (op.offset + op.length <= handle->remote_msg_bytes_) {
      inject(handle, op.data, op.offset, op.length);
    } else {
      SDR_WARN("dropping queued send beyond posted buffer (msg %llu)",
               static_cast<unsigned long long>(handle->msg_number_));
    }
  }
  handle->queued_tail_ = SendHandle::kNoOp;
}

void Qp::drop_queued(SendHandle* handle) {
  if (handle->queued_head_ == SendHandle::kNoOp) return;
  pending_ops_[handle->queued_tail_].next = free_op_;
  free_op_ = handle->queued_head_;
  handle->queued_head_ = SendHandle::kNoOp;
  handle->queued_tail_ = SendHandle::kNoOp;
}

// ---------------------------------------------------------------------------
// Receive path
// ---------------------------------------------------------------------------

Status Qp::recv_post(std::uint8_t* addr, std::size_t length,
                     const verbs::MemoryRegion* mr, RecvHandle** handle) {
  if (!connected_) return Status(StatusCode::kNotConnected, "connect first");
  if (handle == nullptr || addr == nullptr || mr == nullptr || length == 0) {
    return Status(StatusCode::kInvalidArgument, "invalid receive arguments");
  }
  if (length > attr_.max_msg_size) {
    return Status(StatusCode::kOutOfRange,
                  "receive exceeds the maximum message size");
  }
  if (addr < mr->addr() || addr + length > mr->addr() + mr->length()) {
    return Status(StatusCode::kOutOfRange,
                  "buffer is outside the registered region");
  }
  const std::uint64_t msg_number = recv_counter_;
  const std::size_t slot = slot_of(msg_number);
  RecvHandle* h = &recv_handles_[slot];
  if (h->in_use_) {
    return Status(StatusCode::kResourceExhausted,
                  "message table full: complete the oldest receive first");
  }
  const std::uint32_t gen = generation_of(msg_number);
  if (Status s = table_.arm(slot, gen, length); !s) return s;

  // Bind the root-key slot to the user buffer (§3.2.3: "updates the
  // indirect root memory key table with the user buffer's key").
  const std::uint64_t base = static_cast<std::uint64_t>(addr - mr->addr());
  root_table_->bind(slot, mr, base);

  ++recv_counter_;
  *h = RecvHandle{};
  h->in_use_ = true;
  h->posted_at_s_ = sim_now().seconds();
  h->msg_number_ = msg_number;
  h->slot_ = slot;
  h->generation_ = gen;
  h->msg_bytes_ = length;
  h->chunk_count_ = (length + attr_.chunk_size - 1) / attr_.chunk_size;
  h->mr_ = mr;

  // Clear-to-send: tell the sender the buffer is ready (§3.2.3).
  send_cts(CtsMessage{msg_number, static_cast<std::uint32_t>(slot), gen,
                      static_cast<std::uint64_t>(length)});
  *handle = h;
  return Status::ok();
}

Status Qp::resend_cts(RecvHandle* handle) {
  if (handle == nullptr || !handle->in_use_) {
    return Status(StatusCode::kInvalidArgument, "invalid receive handle");
  }
  send_cts(CtsMessage{handle->msg_number_,
                      static_cast<std::uint32_t>(handle->slot_),
                      handle->generation_,
                      static_cast<std::uint64_t>(handle->msg_bytes_)});
  return Status::ok();
}

Status Qp::recv_bitmap_get(RecvHandle* handle,
                           const AtomicBitmap** bitmap) const {
  if (handle == nullptr || !handle->in_use_ || bitmap == nullptr) {
    return Status(StatusCode::kInvalidArgument, "invalid receive handle");
  }
  *bitmap = &table_.chunk_bitmap(handle->slot_);
  return Status::ok();
}

Status Qp::recv_imm_get(RecvHandle* handle, std::uint32_t* imm) const {
  if (handle == nullptr || !handle->in_use_ || imm == nullptr) {
    return Status(StatusCode::kInvalidArgument, "invalid receive handle");
  }
  if (!table_.user_imm_ready(handle->slot_, imm)) {
    return Status(StatusCode::kNotReady, "");
  }
  return Status::ok();
}

Status Qp::recv_complete(RecvHandle* handle) {
  if (handle == nullptr || !handle->in_use_) {
    return Status(StatusCode::kInvalidArgument, "invalid receive handle");
  }
  // Stage-1 late-packet protection: rebind the slot to the NULL memory key
  // so in-flight packets complete harmlessly with their payload discarded.
  root_table_->bind_null(handle->slot_, null_mr_);
  table_.release(handle->slot_);
  handle->in_use_ = false;
  handle->completed_at_s_ = sim_now().seconds();
  return Status::ok();
}

bool Qp::recv_done(const RecvHandle* handle) const {
  return handle != nullptr && handle->in_use_ &&
         table_.message_complete(handle->slot_);
}

std::uint64_t Qp::recv_packets(const RecvHandle* handle) const {
  return handle != nullptr && handle->in_use_
             ? table_.packets_received(handle->slot_)
             : 0;
}

// ---------------------------------------------------------------------------
// Backend completion processing
// ---------------------------------------------------------------------------

void Qp::send_cts(const CtsMessage& cts) {
  control_.send(reinterpret_cast<const std::uint8_t*>(&cts), sizeof(cts));
  ++stats_.cts_sent;
}

void Qp::on_cts(const std::uint8_t* data, std::size_t length) {
  telemetry::ProfScope prof(telemetry::ProfCategory::kSdr);
  if (length < sizeof(CtsMessage)) return;
  CtsMessage cts;
  std::memcpy(&cts, data, sizeof(cts));
  ++stats_.cts_received;
  if (telemetry::observing()) {
    telemetry::emit({.t = sim_now(), .kind = telemetry::EventKind::kCts,
                     .msg = cts.msg_number});
  }

  // Order-based matching: the in-flight send for this msg_number, if
  // started, lives at its slot.
  SendHandle* h = send_handle(cts.msg_number);
  if (h->in_use_ && h->msg_number_ == cts.msg_number) {
    // Receiver-side CTS retry can deliver duplicates; the first one
    // already flushed the queue and armed the protocol timers.
    if (h->cts_ready_) return;
    h->cts_ready_ = true;
    h->remote_msg_bytes_ = cts.msg_bytes;
    flush_queued(h);
  } else {
    cts_pending_[slot_of(cts.msg_number)] = PendingCts{cts, true};
  }
  if (cts_handler_) cts_handler_(cts.msg_number);
}

void Qp::on_cqe() {
  telemetry::ProfScope prof(telemetry::ProfCategory::kSdr);
  const bool ud = attr_.transport == Transport::kUd;
  while (const auto next = cq_.poll_one()) {
    const verbs::Cqe& cqe = *next;
    if (!cqe.is_recv) {
      // A signaled WR left the NIC: wr_id names its send handle's slot.
      const auto slot = static_cast<std::size_t>(cqe.wr_id);
      if (slot >= send_handles_.size()) continue;
      SendHandle* h = &send_handles_[slot];
      if (h->in_use_ && h->signaled_pending_ > 0) --h->signaled_pending_;
      continue;
    }
    if (!cqe.imm_valid) continue;
    ++stats_.completions_processed;
    // The delivering QP names the generation (stage-2 protection, §3.3.2)
    // and, under UD, the staging buffer the datagram landed in.
    const std::size_t qp_index = cqe.qp - first_data_qp_;
    const auto qp_generation =
        static_cast<std::uint32_t>(qp_index / attr_.channels);
    const ImmFields fields = codec_.decode(cqe.imm);

    ProcessResult result;
    if (ud) {
      // Staging path (§2.3): the datagram landed in a runtime buffer. The
      // software backend runs the generation/slot checks BEFORE copying —
      // unlike the zero-copy path, where the NIC has already placed the
      // payload — so stale packets never touch user memory. The staging
      // buffer is reposted either way.
      std::uint8_t* staging = ud_staging_.get() + qp_index * attr_.mtu;
      result = table_.process_completion(fields, qp_generation);
      if (result.accepted && result.new_packet) {
        const std::uint64_t offset =
            static_cast<std::uint64_t>(fields.msg_id) * attr_.max_msg_size +
            static_cast<std::uint64_t>(fields.packet_index) * attr_.mtu;
        const verbs::ResolvedAccess access =
            root_table_->resolve(offset, cqe.byte_len);
        if (access.valid && !access.discard && access.addr != nullptr) {
          std::memcpy(access.addr, staging, cqe.byte_len);
          ++stats_.staged_packets;
          stats_.staged_bytes += cqe.byte_len;
        }
      }
      verbs::RecvWr rwr;
      rwr.addr = staging;
      rwr.length = attr_.mtu;
      data_qps_[qp_index]->post_recv(rwr);
    } else {
      result = table_.process_completion(fields, qp_generation);
    }
    if (!result.accepted) {
      ++stats_.completions_discarded;
      // A copy of a released receive's chunk under its generation: one
      // event per chunk, at its last packet (a never-posted slot has none).
      const std::size_t ppc = attr_.packets_per_chunk();
      const std::size_t p = fields.packet_index;
      if (recv_event_handler_ && fields.msg_id < recv_handles_.size()) {
        RecvHandle& late = recv_handles_[fields.msg_id];
        const std::size_t packets = table_.packets(fields.msg_id);
        if (!late.in_use_ && late.generation_ == qp_generation &&
            p + 1 == std::min((p / ppc + 1) * ppc, packets)) {
          recv_event_handler_(RecvEvent{RecvEvent::Type::kLate, &late,
                                        static_cast<std::uint32_t>(p / ppc)});
        }
      }
      continue;
    }
    RecvHandle* h = &recv_handles_[fields.msg_id];
    // Three hooks: the CQE itself (a = wire packet index), then what it
    // completed. A CQE whose slot is no longer posted (late packet) has
    // no message to name.
    const std::uint64_t msg = h->in_use_ ? h->msg_number_ : telemetry::kNoMsg;
    if (telemetry::observing()) {
      telemetry::emit({.t = sim_now(), .kind = telemetry::EventKind::kCqe,
                       .msg = msg, .imm = cqe.imm, .bytes = cqe.byte_len,
                       .a = fields.packet_index});
    }
    if (result.chunk_completed && telemetry::observing()) {
      telemetry::emit({.t = sim_now(),
                       .kind = telemetry::EventKind::kBitmapUpdate,
                       .msg = msg, .chunk = result.chunk_index});
    }
    if (result.message_completed && telemetry::observing()) {
      telemetry::emit({.t = sim_now(),
                       .kind = telemetry::EventKind::kMsgComplete,
                       .msg = msg});
    }
    if (h->in_use_) {
      if (h->posted_at_s_ >= 0.0 &&
          (result.chunk_completed && chunk_completion_hist_.live())) {
        chunk_completion_hist_.record(sim_now().seconds() -
                                      h->posted_at_s_);
      }
      if (h->posted_at_s_ >= 0.0 &&
          (result.message_completed && msg_completion_hist_.live())) {
        msg_completion_hist_.record(sim_now().seconds() - h->posted_at_s_);
      }
    }
    if (!recv_event_handler_) continue;
    if (!h->in_use_) continue;
    if (result.chunk_completed) {
      recv_event_handler_(RecvEvent{RecvEvent::Type::kChunkCompleted, h,
                                    result.chunk_index});
    }
    if (result.message_completed) {
      recv_event_handler_(
          RecvEvent{RecvEvent::Type::kMessageCompleted, h, 0});
    }
  }
}

}  // namespace sdr::core
