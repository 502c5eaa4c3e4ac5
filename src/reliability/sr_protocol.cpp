#include "reliability/sr_protocol.hpp"

#include <algorithm>
#include <bit>

#include "common/logging.hpp"

namespace sdr::reliability {

// ---------------------------------------------------------------------------
// Sender
// ---------------------------------------------------------------------------

SrSender::SrSender(sim::Simulator& simulator, core::Qp& qp,
                   verbs::ControlLink& control, const LinkProfile& profile,
                   SrProtoConfig config)
    : sim_(simulator),
      qp_(qp),
      control_(control),
      chunk_bytes_(qp.attr().chunk_size),
      retx_(simulator, config, profile, telemetry::ProfCategory::kSr,
            [this](std::uint64_t msg_number, std::size_t chunk, bool expired) {
              return resend(msg_number, chunk, expired);
            }) {
  control_.set_receiver(
      [this](const std::uint8_t* d, std::size_t n) { on_control(d, n); });
  // Retransmission timers start when the receiver's CTS arrives (that is
  // when injection actually begins); arming them at write() time would
  // spuriously fire while the chunks are still queued behind the CTS.
  qp_.set_cts_handler([this](std::uint64_t msg_number) {
    const auto it = messages_.find(msg_number);
    if (it != messages_.end()) retx_.start(it->second.stream, msg_number);
  });
  if (telemetry::enabled()) register_metrics();
}

void SrSender::register_metrics() {
  auto& reg = telemetry::registry();
  tele_ = telemetry::Scope(reg, reg.instance_name("reliability.sr.sender"));
  tele_.bind_counter("messages", &stats_.messages);
  tele_.bind_counter("chunks_sent", &stats_.chunks_sent);
  tele_.bind_counter("retransmissions", &stats_.retransmissions);
  tele_.bind_counter("acks_received", &stats_.acks_received);
  tele_.bind_counter("nacks_received", &stats_.nacks_received);
  tele_.bind_gauge("srtt_s", [this] { return retx_.estimator().srtt_s(); });
  tele_.bind_gauge("rto_s", [this] { return retx_.rto_s(); });
  tele_.bind_gauge("inflight_messages", [this] {
    return static_cast<double>(messages_.size());
  });
  rtt_hist_ = tele_.histogram("rtt_sample_s", 1e-6, 100.0);
  chunk_completion_hist_ = tele_.histogram("chunk_completion_s", 1e-6, 1e3);
  msg_completion_hist_ = tele_.histogram("msg_completion_s", 1e-6, 1e3);
}

Status SrSender::write(const std::uint8_t* data, std::size_t length,
                       DoneFn done) {
  if (data == nullptr || length == 0) {
    return Status(StatusCode::kInvalidArgument, "empty write");
  }
  core::SendHandle* handle = nullptr;
  if (Status s = qp_.send_stream_start(0, false, &handle); !s) return s;

  const std::uint64_t msg_number = handle->msg_number();
  MsgState* state;
  if (spare_) {
    // Reuse the node (and the per-chunk array capacity inside it) of a
    // finished message instead of allocating a fresh one.
    spare_.key() = msg_number;
    state = &messages_.insert(std::move(spare_)).position->second;
  } else {
    state = &messages_[msg_number];
  }
  MsgState& msg = *state;
  msg.handle = handle;
  msg.data = data;
  msg.length = length;
  const std::size_t chunks = (length + chunk_bytes_ - 1) / chunk_bytes_;
  msg.stream.reset(chunks);
  msg.write_at_s = sim_.now().seconds();
  msg.done = std::move(done);
  ++stats_.messages;
  if (telemetry::observing()) {
    // a = bytes, b = chunks.
    telemetry::emit({.t = sim_.now(), .kind = telemetry::EventKind::kWrite,
                     .layer = telemetry::Layer::kSr,
                     .conn = qp_.control_qp_num(), .msg = msg_number,
                     .a = length, .b = chunks});
  }

  for (std::size_t c = 0; c < chunks; ++c) {
    inject(msg, c, /*retransmission=*/false);
  }
  if (handle->cts_ready()) retx_.start(msg.stream, msg_number);
  return Status::ok();
}

bool SrSender::inject(MsgState& msg, std::size_t chunk, bool retransmission) {
  const std::size_t offset = chunk * chunk_bytes_;
  const std::size_t len = std::min(chunk_bytes_, msg.length - offset);
  if (retransmission && telemetry::observing()) {
    // Before the injection: the re-post can traverse the channel in the
    // same sim-time instant, and the fresh attempt span must inherit the
    // pending drop/RTO cause. a = chunk, b = retries so far, c = bytes.
    telemetry::emit({.t = sim_.now(),
                     .kind = telemetry::EventKind::kRetransmit,
                     .layer = telemetry::Layer::kSr,
                     .conn = qp_.control_qp_num(),
                     .msg = msg.handle->msg_number(),
                     .chunk = static_cast<std::uint32_t>(chunk), .bytes = len,
                     .a = chunk, .b = msg.stream.chunks[chunk].retries,
                     .c = len});
  }
  const Status s =
      qp_.send_stream_continue(msg.handle, msg.data + offset, offset, len);
  if (!s) {
    SDR_WARN("SR chunk injection failed: %s", std::string(to_string(s.code())).c_str());
    return false;
  }
  if (retransmission) ++stats_.retransmissions;
  ++stats_.chunks_sent;
  return true;
}

bool SrSender::resend(std::uint64_t msg_number, std::size_t chunk,
                      bool expired) {
  MsgState& msg = messages_.find(msg_number)->second;
  if (expired && telemetry::observing()) {
    // a = chunk, b = retries so far, c = current RTO in microseconds.
    telemetry::emit(
        {.t = sim_.now(), .kind = telemetry::EventKind::kRtoFired,
         .layer = telemetry::Layer::kSr, .conn = qp_.control_qp_num(),
         .msg = msg_number, .chunk = static_cast<std::uint32_t>(chunk),
         .a = chunk, .b = msg.stream.chunks[chunk].retries,
         .c = static_cast<std::uint64_t>(retx_.rto_s() * 1e6)});
  }
  return inject(msg, chunk, /*retransmission=*/true);
}

void SrSender::on_control(const std::uint8_t* data, std::size_t length) {
  telemetry::ProfScope prof(telemetry::ProfCategory::kSr);
  if (!decode_control(data, length, ctrl_scratch_)) return;
  const ControlMessage& msg = ctrl_scratch_;
  const auto it = messages_.find(msg.msg_number);
  if (it == messages_.end()) return;  // stale ACK for a finished message
  MsgState& state = it->second;

  switch (msg.type) {
    case ControlType::kSrAck:
      ++stats_.acks_received;
      retx_.apply_ack(state.stream, msg, [&](std::size_t, double sample_s) {
        if (sample_s >= 0.0) rtt_hist_.record(sample_s);
        if (chunk_completion_hist_.live() && state.write_at_s >= 0.0) {
          chunk_completion_hist_.record(sim_.now().seconds() -
                                        state.write_at_s);
        }
      });
      if (telemetry::observing()) {
        // a = cumulative point, b = chunks acked, c = chunks.
        telemetry::emit({.t = sim_.now(),
                         .kind = telemetry::EventKind::kAckApplied,
                         .layer = telemetry::Layer::kSr,
                         .conn = qp_.control_qp_num(), .msg = msg.msg_number,
                         .a = msg.cumulative, .b = state.stream.acked_count,
                         .c = state.stream.chunks.size()});
      }
      break;
    case ControlType::kSrNack:
      ++stats_.nacks_received;
      for (std::uint32_t chunk : msg.indices) {
        retx_.retransmit(state.stream, msg.msg_number, chunk);
      }
      if (telemetry::observing()) {
        // a = NACKed chunks, b = the first of them.
        telemetry::emit({.t = sim_.now(),
                         .kind = telemetry::EventKind::kNackApplied,
                         .layer = telemetry::Layer::kSr,
                         .conn = qp_.control_qp_num(), .msg = msg.msg_number,
                         .a = msg.indices.size(),
                         .b = msg.indices.empty() ? 0u : msg.indices[0]});
      }
      break;
    default:
      break;
  }
  if (state.stream.complete()) finish(msg.msg_number);
}

void SrSender::finish(std::uint64_t msg_number) {
  const auto it = messages_.find(msg_number);
  if (it == messages_.end()) return;
  // Extract rather than erase: the node (with its array capacity) is kept
  // for the next write(). The callback runs after the extraction so a
  // re-entrant write() sees a consistent map either way.
  auto node = messages_.extract(it);
  MsgState& msg = node.mapped();
  if (msg_completion_hist_.live() && msg.write_at_s >= 0.0) {
    msg_completion_hist_.record(sim_.now().seconds() - msg.write_at_s);
  }
  if (telemetry::observing()) {
    // a = chunks, b = the sender's retransmissions so far.
    telemetry::emit({.t = sim_.now(), .kind = telemetry::EventKind::kMsgDone,
                     .layer = telemetry::Layer::kSr,
                     .conn = qp_.control_qp_num(), .msg = msg_number,
                     .a = msg.stream.chunks.size(),
                     .b = stats_.retransmissions});
  }
  qp_.send_stream_end(msg.handle);
  reap(sim_, qp_, msg.handle);
  DoneFn done = std::move(msg.done);
  msg.handle = nullptr;
  msg.data = nullptr;
  spare_ = std::move(node);
  if (done) done(Status::ok());
}

// ---------------------------------------------------------------------------
// Receiver
// ---------------------------------------------------------------------------

SrReceiver::SrReceiver(sim::Simulator& simulator, core::Qp& qp,
                       verbs::ControlLink& control, const LinkProfile& profile,
                       SrProtoConfig config)
    : sim_(simulator),
      qp_(qp),
      control_(control),
      profile_(profile),
      config_(config) {
  qp_.set_recv_event_handler(
      [this](const core::RecvEvent& event) { on_chunk_event(event); });
  if (telemetry::enabled()) register_metrics();
}

void SrReceiver::register_metrics() {
  auto& reg = telemetry::registry();
  tele_ = telemetry::Scope(reg, reg.instance_name("reliability.sr.receiver"));
  tele_.bind_counter("messages", &stats_.messages);
  tele_.bind_counter("acks_sent", &stats_.acks_sent);
  tele_.bind_counter("nacks_sent", &stats_.nacks_sent);
  tele_.bind_gauge("inflight_messages", [this] {
    return static_cast<double>(messages_.size());
  });
}

Status SrReceiver::expect(std::uint8_t* buffer, std::size_t length,
                          const verbs::MemoryRegion* mr, DoneFn done) {
  core::RecvHandle* handle = nullptr;
  if (Status s = qp_.recv_post(buffer, length, mr, &handle); !s) return s;
  const std::uint64_t msg_number = handle->msg_number();
  MsgState* state;
  if (spare_) {
    // Reuse the completed-message node, keeping its vector capacity.
    spare_.key() = msg_number;
    state = &messages_.insert(std::move(spare_)).position->second;
  } else {
    state = &messages_[msg_number];
  }
  MsgState& msg = *state;
  msg.handle = handle;
  msg.chunks = handle->chunk_count();
  msg.done = std::move(done);
  if (config_.nack_enabled) msg.last_nack_s.assign(msg.chunks, -1.0);
  msg.cts_retries = 0;
  msg.data_seen = false;
  ++stats_.messages;
  arm_timer(msg, msg_number);
  return Status::ok();
}

void SrReceiver::arm_timer(MsgState& msg, std::uint64_t msg_number) {
  const double delay_s =
      msg.data_seen
          ? config_.ack_interval_s
          : backed_off_s(profile_.cts_retry_interval_s(), msg.cts_retries);
  msg.timer = sim_.schedule(SimTime::from_seconds(delay_s),
                            [this, msg_number] { on_timer(msg_number); });
}

void SrReceiver::on_timer(std::uint64_t msg_number) {
  telemetry::ProfScope prof(telemetry::ProfCategory::kSr);
  const auto it = messages_.find(msg_number);
  if (it == messages_.end()) return;
  MsgState& msg = it->second;
  if (msg.data_seen) {
    send_ack(msg);
  } else {
    qp_.resend_cts(msg.handle);
    ++msg.cts_retries;
  }
  arm_timer(msg, msg_number);
}

void SrReceiver::on_chunk_event(const core::RecvEvent& event) {
  telemetry::ProfScope prof(telemetry::ProfCategory::kSr);
  const std::uint64_t msg_number = event.handle->msg_number();
  if (event.type == core::RecvEvent::Type::kLate) {
    // A copy sent before the final ACK could arrive is the race; a later
    // one means the ACK was lost.
    if (sim_.now().seconds() - event.handle->completed_at_s() >=
        profile_.rtt_s) {
      send_final_ack(msg_number, event.handle->chunk_count());
    }
    return;
  }
  const auto it = messages_.find(msg_number);
  if (it == messages_.end()) return;
  MsgState& msg = it->second;
  if (event.type == core::RecvEvent::Type::kMessageCompleted) {
    complete(msg, msg_number);
    return;
  }
  if (!msg.data_seen) {
    // Data means the sender got a CTS: the retry has done its job, and the
    // timer becomes the ACK tick. A one-chunk message's only chunk event
    // is followed by its completion, which needs no tick.
    sim_.cancel(msg.timer);
    msg.data_seen = true;
    if (msg.chunks > 1) arm_timer(msg, msg_number);
  }
  if (config_.nack_enabled) maybe_nack(msg, event.chunk_index);
}

void SrReceiver::send_ack(MsgState& msg) {
  const AtomicBitmap* bitmap = nullptr;
  if (!qp_.recv_bitmap_get(msg.handle, &bitmap)) return;

  ControlMessage& ack = ctrl_scratch_;
  build_ack(ack, msg.handle->msg_number(), *bitmap, msg.chunks);
  encode_control(ack, wire_scratch_);
  control_.send(wire_scratch_.data(), wire_scratch_.size());
  ++stats_.acks_sent;
  if (telemetry::observing()) {
    // a = cumulative point, b = selective words.
    telemetry::emit({.t = sim_.now(), .kind = telemetry::EventKind::kAckSent,
                     .layer = telemetry::Layer::kSr,
                     .conn = qp_.control_qp_num(), .msg = ack.msg_number,
                     .chunk = ack.cumulative, .a = ack.cumulative,
                     .b = ack.selective.size()});
  }
}

void SrReceiver::maybe_nack(MsgState& msg, std::size_t completed_chunk) {
  const AtomicBitmap* bitmap = nullptr;
  if (!qp_.recv_bitmap_get(msg.handle, &bitmap)) return;
  const std::size_t cumulative = bitmap->first_zero(msg.chunks);
  // A gap must be at least this many chunks old (in completions) to NACK.
  constexpr std::size_t kNackGapThreshold = 2;
  if (completed_chunk < cumulative + kNackGapThreshold) return;

  // send_ack and maybe_nack never overlap within one callback, so they can
  // share the scratch message.
  ControlMessage& nack = ctrl_scratch_;
  reset_control(nack, ControlType::kSrNack, msg.handle->msg_number());
  const double now_s = sim_.now().seconds();
  // Word scan for the holes in [cumulative, completed_chunk): one bitmap
  // load per 64 chunks, countr_zero to hop between missing ones.
  std::size_t c = cumulative;
  while (c < completed_chunk && nack.indices.size() < 256) {
    const std::size_t wi = c >> 6;
    const std::size_t word_base = wi << 6;
    std::uint64_t missing = ~bitmap->load_word(wi) & (~0ULL << (c & 63));
    while (missing != 0 && nack.indices.size() < 256) {
      const std::size_t hole =
          word_base + static_cast<std::size_t>(std::countr_zero(missing));
      missing &= missing - 1;
      if (hole >= completed_chunk) break;
      if (msg.last_nack_s[hole] >= 0.0 &&
          now_s - msg.last_nack_s[hole] < profile_.rtt_s) {
        continue;
      }
      msg.last_nack_s[hole] = now_s;
      nack.indices.push_back(static_cast<std::uint32_t>(hole));
    }
    c = word_base + 64;
  }
  if (nack.indices.empty()) return;
  encode_control(nack, wire_scratch_);
  control_.send(wire_scratch_.data(), wire_scratch_.size());
  ++stats_.nacks_sent;
  if (telemetry::observing()) {
    // a = NACKed chunks, b = the first of them.
    telemetry::emit({.t = sim_.now(), .kind = telemetry::EventKind::kNackSent,
                     .layer = telemetry::Layer::kSr,
                     .conn = qp_.control_qp_num(), .msg = nack.msg_number,
                     .chunk = nack.indices.front(), .a = nack.indices.size(),
                     .b = nack.indices.front()});
  }
}

void SrReceiver::complete(MsgState& msg, std::uint64_t msg_number) {
  sim_.cancel(msg.timer);
  send_final_ack(msg_number, msg.chunks);
  if (telemetry::observing()) {
    // Sent with the final ACK. a = chunks.
    telemetry::emit({.t = sim_.now(),
                     .kind = telemetry::EventKind::kMsgComplete,
                     .layer = telemetry::Layer::kSr,
                     .conn = qp_.control_qp_num(), .msg = msg_number,
                     .a = msg.chunks});
  }
  qp_.recv_complete(msg.handle);
  DoneFn done = std::move(msg.done);
  // Keep the node for the next expect() instead of deallocating it.
  if (auto node = messages_.extract(msg_number)) {
    node.mapped().handle = nullptr;
    spare_ = std::move(node);
  }
  if (done) done(Status::ok());
}

void SrReceiver::send_final_ack(std::uint64_t msg_number,
                                std::size_t chunks) {
  ControlMessage& ack = ctrl_scratch_;
  reset_control(ack, ControlType::kSrAck, msg_number);
  ack.cumulative = static_cast<std::uint32_t>(chunks);
  encode_control(ack, wire_scratch_);
  control_.send(wire_scratch_.data(), wire_scratch_.size());
  ++stats_.acks_sent;
}

}  // namespace sdr::reliability
