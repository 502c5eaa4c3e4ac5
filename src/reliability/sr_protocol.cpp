#include "reliability/sr_protocol.hpp"

#include <algorithm>
#include <bit>
#include <cassert>

#include "common/failpoint.hpp"
#include "common/logging.hpp"

namespace sdr::reliability {

namespace {

/// Selective-ACK window: 64-bit words following the cumulative point. "As
/// much as fits in the ACK payload" (paper §4.1.1): 64 words cover 4096
/// chunks (512 B on the wire). Undersizing the window makes the sender
/// spuriously retransmit received-but-unacknowledged chunks.
constexpr std::size_t kSelectiveWindowWords = 64;

/// A gap must be at least this many chunks old (in completions) to NACK.
constexpr std::size_t kNackGapThreshold = 2;

}  // namespace

// ---------------------------------------------------------------------------
// Sender
// ---------------------------------------------------------------------------

SrSender::SrSender(sim::Simulator& simulator, core::Qp& qp,
                   ControlLink& control, const LinkProfile& profile,
                   SrProtoConfig config)
    : sim_(simulator),
      qp_(qp),
      control_(control),
      profile_(profile),
      config_(config),
      chunk_bytes_(qp.attr().chunk_size) {
  RttEstimator::Params est_params;
  est_params.initial_rto_s = config_.rto_s;  // static RTO seeds the estimator
  // Principled floor: an acknowledgment can never return faster than the
  // round trip plus the receiver's ACK cadence; an RTO below that would
  // guarantee spurious retransmission storms.
  est_params.min_rto_s = profile.rtt_s + 2.0 * config_.ack_interval_s;
  estimator_ = RttEstimator(est_params);
  control_.set_receiver(
      [this](const std::uint8_t* d, std::size_t n) { on_control(d, n); });
  // Retransmission timers start when the receiver's CTS arrives (that is
  // when injection actually begins); arming them at write() time would
  // spuriously fire while the chunks are still queued behind the CTS.
  qp_.set_cts_handler([this](std::uint64_t msg_number) {
    arm_all_timers(msg_number);
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
  tele_.bind_gauge("srtt_s", [this] { return estimator_.srtt_s(); });
  tele_.bind_gauge("rto_s", [this] { return current_rto_s(); });
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
    // Reuse the node (and the per-chunk vector capacity inside it) of a
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
  msg.chunks = (length + chunk_bytes_ - 1) / chunk_bytes_;
  msg.acked_count = 0;
  msg.acked.resize(msg.chunks);
  msg.timers.assign(msg.chunks, sim::EventId{});
  msg.sent_at_s.assign(msg.chunks, -1.0);
  msg.retries.assign(msg.chunks, 0);
  msg.retransmitted.resize(msg.chunks);
  msg.cts_at_s = -1.0;
  msg.write_at_s = sim_.now().seconds();
  msg.done = std::move(done);
  ++stats_.messages;
  if (telemetry::observing()) {
    // a = bytes, b = chunks.
    telemetry::emit({.t = sim_.now(), .kind = telemetry::EventKind::kWrite,
                     .layer = telemetry::Layer::kSr,
                     .conn = qp_.control_qp_num(), .msg = msg_number,
                     .a = length, .b = msg.chunks});
  }

  for (std::size_t c = 0; c < msg.chunks; ++c) {
    send_chunk(msg, c, /*retransmission=*/false);
  }
  if (handle->cts_ready()) arm_all_timers(msg_number);
  return Status::ok();
}

void SrSender::arm_all_timers(std::uint64_t msg_number) {
  const auto it = messages_.find(msg_number);
  if (it == messages_.end()) return;
  MsgState& msg = it->second;
  msg.cts_at_s = sim_.now().seconds();
  for (std::size_t c = 0; c < msg.chunks; ++c) {
    if (!msg.acked.test(c) && !msg.timers[c].valid()) arm_timer(msg_number, c);
  }
}

void SrSender::send_chunk(MsgState& msg, std::size_t chunk,
                          bool retransmission) {
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
                     .a = chunk, .b = msg.retries[chunk], .c = len});
  }
  const Status s =
      qp_.send_stream_continue(msg.handle, msg.data + offset, offset, len);
  if (!s) {
    SDR_WARN("SR chunk injection failed: %s", std::string(to_string(s.code())).c_str());
    return;
  }
  msg.sent_at_s[chunk] = sim_.now().seconds();
  if (retransmission) {
    msg.retransmitted.set(chunk);
    if (msg.retries[chunk] < 8) ++msg.retries[chunk];
    ++stats_.retransmissions;
  }
  ++stats_.chunks_sent;
}

void SrSender::arm_timer(std::uint64_t msg_number, std::size_t chunk) {
  const auto it = messages_.find(msg_number);
  if (it == messages_.end()) return;
  // Per-chunk exponential backoff (capped at 16x — the base RTO is already
  // conservative) plus up to 25% jitter: without jitter, the RTOs of all
  // chunks lost in one burst expire together and the retransmission storm
  // tail-drops itself in congested queues.
  const double backoff =
      static_cast<double>(1u << std::min<std::uint8_t>(
          it->second.retries[chunk], 4));
  const double jitter = 1.0 + 0.25 * rng_.next_double();
  it->second.timers[chunk] = sim_.schedule(
      SimTime::from_seconds(current_rto_s() * backoff * jitter),
      [this, msg_number, chunk] {
        telemetry::ProfScope prof(telemetry::ProfCategory::kSr);
        const auto mit = messages_.find(msg_number);
        if (mit == messages_.end()) return;
        MsgState& msg = mit->second;
        if (msg.acked.test(chunk)) return;
        if (telemetry::observing()) {
          // a = chunk, b = retries so far, c = current RTO in microseconds.
          telemetry::emit(
              {.t = sim_.now(), .kind = telemetry::EventKind::kRtoFired,
               .layer = telemetry::Layer::kSr, .conn = qp_.control_qp_num(),
               .msg = msg_number, .chunk = static_cast<std::uint32_t>(chunk),
               .a = chunk, .b = msg.retries[chunk],
               .c = static_cast<std::uint64_t>(current_rto_s() * 1e6)});
        }
        send_chunk(msg, chunk, /*retransmission=*/true);
        arm_timer(msg_number, chunk);
      });
}

void SrSender::on_control(const std::uint8_t* data, std::size_t length) {
  telemetry::ProfScope prof(telemetry::ProfCategory::kSr);
  if (!decode_control(data, length, ctrl_scratch_)) return;
  const ControlMessage& msg = ctrl_scratch_;
  const auto it = messages_.find(msg.msg_number);
  if (it == messages_.end()) return;  // stale ACK for a finished message

  switch (msg.type) {
    case ControlType::kSrAck:
      ++stats_.acks_received;
      apply_ack(it->second, msg);
      if (telemetry::observing()) {
        // a = cumulative point, b = chunks acked, c = chunks.
        telemetry::emit({.t = sim_.now(),
                         .kind = telemetry::EventKind::kAckApplied,
                         .layer = telemetry::Layer::kSr,
                         .conn = qp_.control_qp_num(), .msg = msg.msg_number,
                         .a = msg.cumulative, .b = it->second.acked_count,
                         .c = it->second.chunks});
      }
      break;
    case ControlType::kSrNack: {
      ++stats_.nacks_received;
      MsgState& state = it->second;
      for (std::uint32_t chunk : msg.indices) {
        if (chunk >= state.chunks || state.acked.test(chunk)) continue;
        if (state.timers[chunk].valid()) sim_.cancel(state.timers[chunk]);
        send_chunk(state, chunk, /*retransmission=*/true);
        arm_timer(msg.msg_number, chunk);
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
    }
    default:
      break;
  }
  // apply_ack may have finished the message.
  if (const auto again = messages_.find(msg.msg_number);
      again != messages_.end() &&
      again->second.acked_count == again->second.chunks) {
    finish(msg.msg_number);
  }
}

void SrSender::apply_ack(MsgState& msg, const ControlMessage& ack) {
  const std::size_t cumulative =
      std::min<std::size_t>(ack.cumulative, msg.chunks);
  for (std::size_t c = 0; c < cumulative; ++c) mark_acked(msg, c);
  // Word scan over the selective window: countr_zero jumps straight to the
  // next set bit; clearing it with `word & (word - 1)` makes the loop cost
  // proportional to acked chunks, not window width.
  for (std::size_t w = 0; w < ack.selective.size(); ++w) {
    std::uint64_t word = ack.selective[w];
    const std::size_t base = ack.selective_base + w * 64;
    while (word != 0) {
      const std::size_t chunk =
          base + static_cast<std::size_t>(std::countr_zero(word));
      word &= word - 1;
      if (chunk < msg.chunks) mark_acked(msg, chunk);
    }
  }
}

void SrSender::mark_acked(MsgState& msg, std::size_t chunk) {
  if (msg.acked.test(chunk)) return;
  msg.acked.set(chunk);
  ++msg.acked_count;
  if (msg.timers[chunk].valid()) {
    sim_.cancel(msg.timers[chunk]);
    msg.timers[chunk] = {};
  }
  if (!msg.retransmitted.test(chunk) && msg.sent_at_s[chunk] >= 0.0) {
    // Karn: only never-retransmitted chunks yield unambiguous RTT samples.
    // Chunks queued before the CTS only start travelling when it arrives.
    const double departed = std::max(msg.sent_at_s[chunk], msg.cts_at_s);
    const double sample = sim_.now().seconds() - departed;
    if (config_.adaptive_rto) estimator_.update(sample);
    rtt_hist_.record(sample);
  }
  if (chunk_completion_hist_.live() && msg.write_at_s >= 0.0) {
    chunk_completion_hist_.record(sim_.now().seconds() - msg.write_at_s);
  }
}

void SrSender::finish(std::uint64_t msg_number) {
  const auto it = messages_.find(msg_number);
  if (it == messages_.end()) return;
  // Extract rather than erase: the node (with its vector capacity) is kept
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
                     .a = msg.chunks, .b = stats_.retransmissions});
  }
  qp_.send_stream_end(msg.handle);
  reap(msg.handle);
  DoneFn done = std::move(msg.done);
  msg.handle = nullptr;
  msg.data = nullptr;
  spare_ = std::move(node);
  if (done) done(Status::ok());
}

void SrSender::reap(core::SendHandle* handle) {
  // Poll the handle until the backend confirms injection completed, then it
  // is recycled; lazy polling keeps completion latency off the ACK path.
  if (qp_.send_poll(handle).code() == StatusCode::kNotReady) {
    sim_.schedule(SimTime::from_micros(10),
                  [this, handle] { reap(handle); });
  }
}

// ---------------------------------------------------------------------------
// Receiver
// ---------------------------------------------------------------------------

SrReceiver::SrReceiver(sim::Simulator& simulator, core::Qp& qp,
                       ControlLink& control, const LinkProfile& profile,
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
  msg.last_nack_s.assign(msg.chunks, -1.0);
  msg.complete = false;
  ++stats_.messages;
  ack_tick(msg_number);
  arm_cts_retry(msg, msg_number);
  return Status::ok();
}

void SrReceiver::arm_cts_retry(MsgState& msg, std::uint64_t msg_number) {
  msg.cts_timer =
      sim_.schedule(SimTime::from_seconds(profile_.cts_retry_interval_s()),
                    [this, msg_number] {
                      const auto it = messages_.find(msg_number);
                      if (it == messages_.end()) return;
                      qp_.resend_cts(it->second.handle);
                      arm_cts_retry(it->second, msg_number);
                    });
}

void SrReceiver::on_chunk_event(const core::RecvEvent& event) {
  telemetry::ProfScope prof(telemetry::ProfCategory::kSr);
  const auto it = messages_.find(event.handle->msg_number());
  if (it == messages_.end()) return;
  MsgState& msg = it->second;
  // Any data means the sender got a CTS; the retry has done its job.
  if (msg.cts_timer.valid()) {
    sim_.cancel(msg.cts_timer);
    msg.cts_timer = {};
  }
  if (msg.complete) return;

  if (event.type == core::RecvEvent::Type::kMessageCompleted) {
    complete(msg, event.handle->msg_number());
    return;
  }
  if (config_.nack_enabled) maybe_nack(msg, event.chunk_index);
}

void SrReceiver::send_ack(MsgState& msg) {
  const AtomicBitmap* bitmap = nullptr;
  if (!qp_.recv_bitmap_get(msg.handle, &bitmap)) return;

  ControlMessage& ack = ctrl_scratch_;
  reset_control(ack, ControlType::kSrAck, msg.handle->msg_number());
  std::size_t cumulative = bitmap->first_zero(msg.chunks);
  // Failpoint for the conformance harness (src/check/): claim one chunk
  // beyond the true cumulative point, silently "acknowledging" the first
  // missing chunk — the classic off-by-one a bitmap ACK encoder can make.
  if (SDR_FAILPOINT("sr.ack_cumulative_off_by_one") &&
      cumulative < msg.chunks) {
    ++cumulative;
  }
  ack.cumulative = static_cast<std::uint32_t>(cumulative);
  // Selective window: words starting at the cumulative point.
  const std::size_t base_word = cumulative / 64;
  ack.selective_base = static_cast<std::uint32_t>(base_word * 64);
  ack.selective.reserve(kSelectiveWindowWords);
  for (std::size_t w = 0; w < kSelectiveWindowWords; ++w) {
    const std::size_t wi = base_word + w;
    if (wi >= bitmap_words(msg.chunks)) break;
    ack.selective.push_back(bitmap->load_word(wi));
  }
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
          now_s - msg.last_nack_s[hole] < config_.nack_holdoff_s) {
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

void SrReceiver::ack_tick(std::uint64_t msg_number) {
  telemetry::ProfScope prof(telemetry::ProfCategory::kSr);
  const auto it = messages_.find(msg_number);
  if (it == messages_.end()) return;
  MsgState& msg = it->second;
  if (msg.complete) return;
  send_ack(msg);
  sim_.schedule(SimTime::from_seconds(config_.ack_interval_s),
                [this, msg_number] { ack_tick(msg_number); });
}

void SrReceiver::complete(MsgState& msg, std::uint64_t msg_number) {
  msg.complete = true;
  // Final ACK (repeated to survive control-path drops).
  const std::uint32_t cumulative = static_cast<std::uint32_t>(msg.chunks);
  ControlMessage& ack = ctrl_scratch_;
  reset_control(ack, ControlType::kSrAck, msg_number);
  ack.cumulative = cumulative;
  encode_control(ack, wire_scratch_);
  control_.send(wire_scratch_.data(), wire_scratch_.size());
  ++stats_.acks_sent;
  if (telemetry::observing()) {
    // Sent with the final ACK. a = chunks.
    telemetry::emit({.t = sim_.now(),
                     .kind = telemetry::EventKind::kMsgComplete,
                     .layer = telemetry::Layer::kSr,
                     .conn = qp_.control_qp_num(), .msg = msg_number,
                     .a = msg.chunks});
  }
  for (std::size_t r = 1; r < kFinalAckRepeats; ++r) {
    // The repeat rebuilds the (tiny, constant) final ACK into the scratch
    // buffers at fire time instead of capturing a copy of the wire bytes —
    // the capture stays within the inline event budget and the repeat path
    // allocates nothing.
    sim_.schedule(SimTime::from_seconds(config_.ack_interval_s *
                                        static_cast<double>(r)),
                  [this, msg_number, cumulative] {
                    ControlMessage& repeat = ctrl_scratch_;
                    reset_control(repeat, ControlType::kSrAck, msg_number);
                    repeat.cumulative = cumulative;
                    encode_control(repeat, wire_scratch_);
                    control_.send(wire_scratch_.data(), wire_scratch_.size());
                    ++stats_.acks_sent;
                  });
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

}  // namespace sdr::reliability
