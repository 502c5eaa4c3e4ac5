#include "reliability/ec_protocol.hpp"

#include <algorithm>
#include <bit>
#include <cassert>

#include "common/logging.hpp"

namespace sdr::reliability {

// ---------------------------------------------------------------------------
// Sender
// ---------------------------------------------------------------------------

EcSender::EcSender(sim::Simulator& simulator, core::Qp& qp,
                   ControlLink& control, const LinkProfile& profile,
                   const ec::ErasureCodec& codec, EcProtoConfig config)
    : sim_(simulator),
      qp_(qp),
      control_(control),
      profile_(profile),
      codec_(codec),
      config_(config),
      chunk_bytes_(qp.attr().chunk_size) {
  assert(codec_.k() == config_.k && codec_.m() == config_.m);
  control_.set_receiver(
      [this](const std::uint8_t* d, std::size_t n) { on_control(d, n); });
  if (telemetry::enabled()) register_metrics();
}

void EcSender::register_metrics() {
  auto& reg = telemetry::registry();
  tele_ = telemetry::Scope(reg, reg.instance_name("reliability.ec.sender"));
  tele_.bind_counter("messages", &stats_.messages);
  tele_.bind_counter("data_chunks_sent", &stats_.data_chunks_sent);
  tele_.bind_counter("parity_chunks_sent", &stats_.parity_chunks_sent);
  tele_.bind_counter("fallback_retransmissions",
                     &stats_.fallback_retransmissions);
  tele_.bind_counter("ec_nacks", &stats_.ec_nacks);
  tele_.bind_gauge("inflight_messages", [this] {
    return static_cast<double>(messages_.size());
  });
  msg_completion_hist_ = tele_.histogram("msg_completion_s", 1e-6, 1e3);
}

Status EcSender::write(const std::uint8_t* data, std::size_t length,
                       DoneFn done) {
  const std::size_t sub_bytes = config_.k * chunk_bytes_;
  if (data == nullptr || length == 0 || length % sub_bytes != 0) {
    return Status(StatusCode::kInvalidArgument,
                  "EC write length must be a whole number of submessages "
                  "(k * chunk_size)");
  }
  const std::size_t L = length / sub_bytes;

  MsgState msg;
  msg.data = data;
  msg.length = length;
  msg.submessages = L;
  msg.write_at_s = sim_.now().seconds();
  msg.done = std::move(done);
  msg.parity.resize(L * config_.m * chunk_bytes_);
  msg.timers.assign(L, {});
  msg.acked.assign(L, Bitmap{});
  msg.sub_done.assign(L, false);

  // Encode all parity submessages. In a deployment this overlaps with data
  // injection on spare cores (paper §4.1.2); in virtual time it is free —
  // the real encode cost is measured by bench_fig11_ec_encode.
  std::vector<const std::uint8_t*> data_blocks(config_.k);
  std::vector<std::uint8_t*> parity_blocks(config_.m);
  for (std::size_t s = 0; s < L; ++s) {
    for (std::size_t j = 0; j < config_.k; ++j) {
      data_blocks[j] = data + (s * config_.k + j) * chunk_bytes_;
    }
    for (std::size_t t = 0; t < config_.m; ++t) {
      parity_blocks[t] = msg.parity.data() + (s * config_.m + t) * chunk_bytes_;
    }
    codec_.encode(std::span<const std::uint8_t* const>(data_blocks),
                  std::span<std::uint8_t* const>(parity_blocks),
                  chunk_bytes_);
  }

  // Data submessages: streaming sends, kept open for potential fallback
  // retransmission into the same remote buffers.
  std::uint64_t base = 0;
  for (std::size_t s = 0; s < L; ++s) {
    core::SendHandle* handle = nullptr;
    if (Status st = qp_.send_stream_start(0, false, &handle); !st) return st;
    if (s == 0) base = handle->msg_number();
    qp_.send_stream_continue(handle, data + s * sub_bytes, 0, sub_bytes);
    msg.data_handles.push_back(handle);
    sub_to_base_[handle->msg_number()] = base;
    stats_.data_chunks_sent += config_.k;
  }
  // Parity submessages: one-shot sends (never retransmitted).
  for (std::size_t s = 0; s < L; ++s) {
    core::SendHandle* handle = nullptr;
    if (Status st = qp_.send_post(msg.parity.data() + s * config_.m * chunk_bytes_,
                                  config_.m * chunk_bytes_, 0, false, &handle);
        !st) {
      return st;
    }
    msg.parity_handles.push_back(handle);
    reap(handle);  // parity contexts are destroyed as soon as injected
    stats_.parity_chunks_sent += config_.m;
  }

  ++stats_.messages;
  if (telemetry::observing()) {
    // msg = base (first data submessage), a = bytes, b = submessages.
    telemetry::emit({.t = sim_.now(), .kind = telemetry::EventKind::kWrite,
                     .layer = telemetry::Layer::kEc,
                     .conn = qp_.control_qp_num(), .msg = base, .a = length,
                     .b = L});
  }
  messages_.emplace(base, std::move(msg));
  return Status::ok();
}

void EcSender::on_control(const std::uint8_t* data, std::size_t length) {
  telemetry::ProfScope prof(telemetry::ProfCategory::kEc);
  const auto parsed = decode_control(data, length);
  if (!parsed) return;
  const ControlMessage& ctl = *parsed;

  switch (ctl.type) {
    case ControlType::kEcAck: {
      finish(ctl.msg_number);
      break;
    }
    case ControlType::kEcNack: {
      const auto it = messages_.find(ctl.msg_number);
      if (it == messages_.end()) return;
      ++stats_.ec_nacks;
      enter_fallback(it->second, ctl.msg_number, ctl.indices);
      break;
    }
    case ControlType::kSrAck: {
      // Fallback per-submessage ACK: msg_number is the submessage's own.
      const auto bit = sub_to_base_.find(ctl.msg_number);
      if (bit == sub_to_base_.end()) return;
      const std::uint64_t base = bit->second;
      const auto it = messages_.find(base);
      if (it == messages_.end()) return;
      const std::size_t sub = static_cast<std::size_t>(ctl.msg_number - base);
      apply_fallback_ack(it->second, base, sub, ctl);
      break;
    }
    default:
      break;
  }
}

void EcSender::enter_fallback(MsgState& msg, std::uint64_t base,
                              const std::vector<std::uint32_t>& failed) {
  for (std::uint32_t sub : failed) {
    if (sub >= msg.submessages || msg.sub_done[sub]) continue;
    if (!msg.timers[sub].empty()) continue;  // already in fallback
    if (telemetry::observing()) {
      // a = submessage, b = k.
      telemetry::emit({.t = sim_.now(),
                       .kind = telemetry::EventKind::kEcFallback,
                       .layer = telemetry::Layer::kEc,
                       .conn = qp_.control_qp_num(), .msg = base,
                       .chunk = static_cast<std::uint32_t>(sub), .a = sub,
                       .b = config_.k});
    }
    msg.acked[sub].resize(config_.k);
    msg.timers[sub].assign(config_.k, sim::EventId{});
    ++msg.subs_pending_fallback;
    for (std::size_t c = 0; c < config_.k; ++c) {
      fallback_send(msg, base, sub, c, /*retransmission=*/true);
      arm_fallback_timer(base, sub, c);
    }
  }
}

void EcSender::fallback_send(MsgState& msg, std::uint64_t base,
                             std::size_t sub, std::size_t chunk,
                             bool retransmission) {
  (void)base;
  const std::size_t sub_bytes = config_.k * chunk_bytes_;
  const std::uint8_t* src = msg.data + sub * sub_bytes + chunk * chunk_bytes_;
  qp_.send_stream_continue(msg.data_handles[sub], src, chunk * chunk_bytes_,
                           chunk_bytes_);
  if (retransmission) {
    ++stats_.fallback_retransmissions;
    if (telemetry::observing()) {
      // msg = the submessage's own, a = submessage, b = chunk.
      telemetry::emit({.t = sim_.now(),
                       .kind = telemetry::EventKind::kRetransmit,
                       .layer = telemetry::Layer::kEc,
                       .conn = qp_.control_qp_num(),
                       .msg = msg.data_handles[sub]->msg_number(),
                       .chunk = static_cast<std::uint32_t>(chunk),
                       .bytes = chunk_bytes_, .a = sub, .b = chunk});
    }
  }
}

void EcSender::arm_fallback_timer(std::uint64_t base, std::size_t sub,
                                  std::size_t chunk) {
  const auto it = messages_.find(base);
  if (it == messages_.end()) return;
  it->second.timers[sub][chunk] = sim_.schedule(
      SimTime::from_seconds(config_.fallback_rto_s),
      [this, base, sub, chunk] {
        telemetry::ProfScope prof(telemetry::ProfCategory::kEc);
        const auto mit = messages_.find(base);
        if (mit == messages_.end()) return;
        MsgState& m = mit->second;
        if (m.sub_done[sub] || m.acked[sub].test(chunk)) return;
        fallback_send(m, base, sub, chunk, /*retransmission=*/true);
        arm_fallback_timer(base, sub, chunk);
      });
}

void EcSender::apply_fallback_ack(MsgState& msg, std::uint64_t base,
                                  std::size_t sub,
                                  const ControlMessage& ack) {
  (void)base;
  if (sub >= msg.submessages || msg.sub_done[sub]) return;
  if (msg.acked[sub].size() == 0) {
    // ACK for a submessage that never entered fallback (e.g. the receiver
    // recovered it after our NACK raced its parity) — nothing to cancel.
    return;
  }
  const std::size_t cumulative =
      std::min<std::size_t>(ack.cumulative, config_.k);
  auto mark = [&](std::size_t c) {
    if (msg.acked[sub].test(c)) return;
    msg.acked[sub].set(c);
    if (msg.timers[sub][c].valid()) {
      sim_.cancel(msg.timers[sub][c]);
      msg.timers[sub][c] = {};
    }
  };
  for (std::size_t c = 0; c < cumulative; ++c) mark(c);
  // Word scan: countr_zero hops between acked chunks instead of testing
  // all 64 bit positions per selective word.
  for (std::size_t w = 0; w < ack.selective.size(); ++w) {
    std::uint64_t word = ack.selective[w];
    const std::size_t word_base = ack.selective_base + w * 64;
    while (word != 0) {
      const std::size_t c =
          word_base + static_cast<std::size_t>(std::countr_zero(word));
      word &= word - 1;
      if (c < config_.k) mark(c);
    }
  }
  if (msg.acked[sub].all_set()) {
    msg.sub_done[sub] = true;
    if (msg.subs_pending_fallback > 0) --msg.subs_pending_fallback;
  }
}

void EcSender::finish(std::uint64_t base) {
  const auto it = messages_.find(base);
  if (it == messages_.end()) return;
  MsgState msg = std::move(it->second);
  messages_.erase(it);
  if (msg_completion_hist_.live() && msg.write_at_s >= 0.0) {
    msg_completion_hist_.record(sim_.now().seconds() - msg.write_at_s);
  }
  if (telemetry::observing()) {
    // a = submessages, b = the sender's fallback retransmissions so far.
    telemetry::emit({.t = sim_.now(), .kind = telemetry::EventKind::kMsgDone,
                     .layer = telemetry::Layer::kEc,
                     .conn = qp_.control_qp_num(), .msg = base,
                     .a = msg.submessages,
                     .b = stats_.fallback_retransmissions});
  }
  for (std::size_t s = 0; s < msg.submessages; ++s) {
    for (sim::EventId id : msg.timers[s]) {
      if (id.valid()) sim_.cancel(id);
    }
    sub_to_base_.erase(msg.data_handles[s]->msg_number());
    // A stream whose CTS never arrived has everything still queued; the
    // receiver completed without it (parity recovery), so it will never
    // drain — release it instead of reap-polling it forever.
    if (!msg.data_handles[s]->cts_ready()) {
      qp_.send_abort(msg.data_handles[s]);
      continue;
    }
    qp_.send_stream_end(msg.data_handles[s]);
    reap(msg.data_handles[s]);
  }
  for (std::size_t s = 0; s < msg.submessages; ++s) {
    // Parity one-shots self-reap once injected; a CTS-less one never will.
    // A reaped handle may already carry a newer message (the slot pool
    // recycles), so only touch it if it still holds our number (parity
    // numbers follow the data numbers: base + submessages + s).
    core::SendHandle* parity = msg.parity_handles[s];
    if (parity->msg_number() != base + msg.submessages + s) continue;
    if (parity->cts_ready()) continue;
    qp_.send_abort(parity);
  }
  if (msg.done) msg.done(Status::ok());
}

void EcSender::reap(core::SendHandle* handle) {
  if (qp_.send_poll(handle).code() == StatusCode::kNotReady) {
    sim_.schedule(SimTime::from_micros(10), [this, handle] { reap(handle); });
  }
}

// ---------------------------------------------------------------------------
// Receiver
// ---------------------------------------------------------------------------

EcReceiver::EcReceiver(sim::Simulator& simulator, core::Qp& qp,
                       ControlLink& control, const LinkProfile& profile,
                       const ec::ErasureCodec& codec, EcProtoConfig config)
    : sim_(simulator),
      qp_(qp),
      control_(control),
      profile_(profile),
      codec_(codec),
      config_(config),
      chunk_bytes_(qp.attr().chunk_size) {
  qp_.set_recv_event_handler(
      [this](const core::RecvEvent& event) { on_chunk_event(event); });
  if (telemetry::enabled()) register_metrics();
}

void EcReceiver::register_metrics() {
  auto& reg = telemetry::registry();
  tele_ = telemetry::Scope(reg, reg.instance_name("reliability.ec.receiver"));
  tele_.bind_counter("messages", &stats_.messages);
  tele_.bind_counter("decoded_submessages", &stats_.decoded_submessages);
  tele_.bind_counter("clean_submessages", &stats_.clean_submessages);
  tele_.bind_counter("fallback_submessages", &stats_.fallback_submessages);
  tele_.bind_counter("ec_nacks_sent", &stats_.ec_nacks_sent);
  tele_.bind_counter("ftos_fired", &stats_.ftos_fired);
  tele_.bind_gauge("inflight_messages", [this] {
    return static_cast<double>(messages_.size());
  });
  chunk_completion_hist_ = tele_.histogram("chunk_completion_s", 1e-6, 1e3);
  msg_completion_hist_ = tele_.histogram("msg_completion_s", 1e-6, 1e3);
}

Status EcReceiver::expect(std::uint8_t* buffer, std::size_t length,
                          const verbs::MemoryRegion* mr, DoneFn done) {
  const std::size_t sub_bytes = config_.k * chunk_bytes_;
  if (buffer == nullptr || length == 0 || length % sub_bytes != 0) {
    return Status(StatusCode::kInvalidArgument,
                  "EC receive length must be a whole number of submessages");
  }
  const std::size_t L = length / sub_bytes;

  MsgState msg;
  msg.buffer = buffer;
  msg.length = length;
  msg.submessages = L;
  msg.posted_at_s = sim_.now().seconds();
  msg.done = std::move(done);
  msg.sub_recovered.assign(L, false);
  msg.parity_scratch.resize(L * config_.m * chunk_bytes_);
  msg.parity_mr =
      qp_.context().mr_reg(msg.parity_scratch.data(), msg.parity_scratch.size());

  // Post order must mirror the sender's send order: data 0..L-1, parity
  // 0..L-1 (SDR matching is order-based).
  std::uint64_t base = 0;
  for (std::size_t s = 0; s < L; ++s) {
    core::RecvHandle* handle = nullptr;
    if (Status st = qp_.recv_post(buffer + s * sub_bytes, sub_bytes, mr,
                                  &handle);
        !st) {
      return st;
    }
    if (s == 0) base = handle->msg_number();
    msg.data_handles.push_back(handle);
  }
  for (std::size_t s = 0; s < L; ++s) {
    core::RecvHandle* handle = nullptr;
    if (Status st = qp_.recv_post(
            msg.parity_scratch.data() + s * config_.m * chunk_bytes_,
            config_.m * chunk_bytes_, msg.parity_mr, &handle);
        !st) {
      return st;
    }
    msg.parity_handles.push_back(handle);
  }
  for (std::size_t s = 0; s < L; ++s) {
    handle_to_base_[msg.data_handles[s]->msg_number()] = base;
    handle_to_base_[msg.parity_handles[s]->msg_number()] = base;
  }

  if (config_.cts_retry_s > 0.0) {
    sim_.schedule(SimTime::from_seconds(config_.cts_retry_s),
                  [this, base] { cts_tick(base); });
  }

  // Global deadlock-prevention timeout (armed at posting).
  const double wire_chunks =
      static_cast<double>(length / chunk_bytes_) *
      (1.0 + static_cast<double>(config_.m) / static_cast<double>(config_.k));
  const double fto_s =
      wire_chunks * profile_.chunk_injection_s() + config_.beta * profile_.rtt_s;
  msg.global_timer = sim_.schedule(
      SimTime::from_seconds(config_.global_timeout_factor *
                            (fto_s + profile_.rtt_s)),
      [this, base] {
        const auto it = messages_.find(base);
        if (it == messages_.end() || it->second.complete) return;
        MsgState& m = it->second;
        m.complete = true;
        if (m.fto_timer.valid()) sim_.cancel(m.fto_timer);
        if (m.ack_timer.valid()) sim_.cancel(m.ack_timer);
        for (auto* h : m.data_handles) qp_.recv_complete(h);
        for (auto* h : m.parity_handles) qp_.recv_complete(h);
        DoneFn cb = std::move(m.done);
        for (auto* h : m.data_handles) handle_to_base_.erase(h->msg_number());
        for (auto* h : m.parity_handles)
          handle_to_base_.erase(h->msg_number());
        messages_.erase(it);
        if (cb) cb(Status(StatusCode::kAborted, "EC global timeout"));
      });

  // FTO armed at posting, not on first chunk arrival: a loss burst that
  // eats every packet of the message (data and parity) would otherwise
  // leave the receiver silent and the sender waiting forever — the global
  // timeout would be the only way out.
  arm_fto(msg, base);

  ++stats_.messages;
  messages_.emplace(base, std::move(msg));
  return Status::ok();
}

void EcReceiver::on_chunk_event(const core::RecvEvent& event) {
  telemetry::ProfScope prof(telemetry::ProfCategory::kEc);
  const auto bit = handle_to_base_.find(event.handle->msg_number());
  if (bit == handle_to_base_.end()) return;
  const std::uint64_t base = bit->second;
  const auto it = messages_.find(base);
  if (it == messages_.end()) return;
  MsgState& msg = it->second;
  if (msg.complete) return;

  // Which submessage does this event concern?
  const std::uint64_t idx = event.handle->msg_number() - base;
  const std::size_t sub = idx < msg.submessages
                              ? static_cast<std::size_t>(idx)
                              : static_cast<std::size_t>(idx - msg.submessages);
  if (sub >= msg.submessages || msg.sub_recovered[sub]) return;

  if (submessage_recoverable(msg, sub) && try_recover(msg, sub)) {
    msg.sub_recovered[sub] = true;
    ++msg.subs_recovered;
    if (chunk_completion_hist_.live() && msg.posted_at_s >= 0.0) {
      chunk_completion_hist_.record(sim_.now().seconds() - msg.posted_at_s);
    }
    if (telemetry::observing()) {
      // a = submessage, b = recovered so far, c = submessages.
      telemetry::emit({.t = sim_.now(),
                       .kind = telemetry::EventKind::kSubRecovered,
                       .layer = telemetry::Layer::kEc,
                       .conn = qp_.control_qp_num(), .msg = base, .a = sub,
                       .b = msg.subs_recovered, .c = msg.submessages});
    }
    if (msg.fallback) {
      // Tell the sender to stop retransmitting this submessage.
      ControlMessage& ack = ctrl_scratch_;
      reset_control(ack, ControlType::kSrAck,
                    msg.data_handles[sub]->msg_number());
      ack.cumulative = static_cast<std::uint32_t>(config_.k);
      encode_control(ack, wire_scratch_);
      control_.send(wire_scratch_.data(), wire_scratch_.size());
    }
    check_message(msg, base);
  }
}

bool EcReceiver::submessage_recoverable(const MsgState& msg,
                                        std::size_t sub) const {
  ec::PresenceMap present(config_.k + config_.m, false);
  const AtomicBitmap* data_bits = nullptr;
  const AtomicBitmap* parity_bits = nullptr;
  qp_.recv_bitmap_get(msg.data_handles[sub], &data_bits);
  qp_.recv_bitmap_get(msg.parity_handles[sub], &parity_bits);
  if (data_bits == nullptr || parity_bits == nullptr) return false;
  for (std::size_t j = 0; j < config_.k; ++j) present[j] = data_bits->test(j);
  for (std::size_t t = 0; t < config_.m; ++t) {
    present[config_.k + t] = parity_bits->test(t);
  }
  return codec_.can_recover(present);
}

bool EcReceiver::try_recover(MsgState& msg, std::size_t sub) {
  ec::PresenceMap present(config_.k + config_.m, false);
  const AtomicBitmap* data_bits = nullptr;
  const AtomicBitmap* parity_bits = nullptr;
  qp_.recv_bitmap_get(msg.data_handles[sub], &data_bits);
  qp_.recv_bitmap_get(msg.parity_handles[sub], &parity_bits);
  bool all_data = true;
  for (std::size_t j = 0; j < config_.k; ++j) {
    present[j] = data_bits->test(j);
    all_data = all_data && present[j];
  }
  if (all_data) {
    ++stats_.clean_submessages;
    return true;
  }
  for (std::size_t t = 0; t < config_.m; ++t) {
    present[config_.k + t] = parity_bits->test(t);
  }
  std::vector<std::uint8_t*> blocks(config_.k + config_.m);
  const std::size_t sub_bytes = config_.k * chunk_bytes_;
  for (std::size_t j = 0; j < config_.k; ++j) {
    blocks[j] = msg.buffer + sub * sub_bytes + j * chunk_bytes_;
  }
  for (std::size_t t = 0; t < config_.m; ++t) {
    blocks[config_.k + t] =
        msg.parity_scratch.data() + (sub * config_.m + t) * chunk_bytes_;
  }
  if (!codec_.decode(std::span<std::uint8_t* const>(blocks), present,
                     chunk_bytes_)) {
    return false;
  }
  ++stats_.decoded_submessages;
  if (telemetry::observing()) {
    // msg = the submessage's own, a = submessage.
    telemetry::emit({.t = sim_.now(), .kind = telemetry::EventKind::kEcRepair,
                     .layer = telemetry::Layer::kEc,
                     .conn = qp_.control_qp_num(),
                     .msg = msg.data_handles[sub]->msg_number(),
                     .chunk = static_cast<std::uint32_t>(sub), .a = sub});
  }
  return true;
}

void EcReceiver::check_message(MsgState& msg, std::uint64_t base) {
  if (msg.subs_recovered == msg.submessages) complete(msg, base);
}

void EcReceiver::arm_fto(MsgState& msg, std::uint64_t base) {
  msg.fto_armed = true;
  const double wire_chunks =
      static_cast<double>(msg.length / chunk_bytes_) *
      (1.0 + static_cast<double>(config_.m) / static_cast<double>(config_.k));
  // + 2 RTT of slack: the timer now starts at posting, before the
  // RTS/CTS handshake and the first injected byte.
  const double fto_s = wire_chunks * profile_.chunk_injection_s() +
                       config_.beta * profile_.rtt_s + 2.0 * profile_.rtt_s;
  msg.fto_timer = sim_.schedule(SimTime::from_seconds(fto_s),
                                [this, base] { on_fto(base); });
}

void EcReceiver::on_fto(std::uint64_t base) {
  telemetry::ProfScope prof(telemetry::ProfCategory::kEc);
  const auto it = messages_.find(base);
  if (it == messages_.end()) return;
  MsgState& msg = it->second;
  if (msg.complete) return;
  ++stats_.ftos_fired;
  if (telemetry::observing()) {
    // The receiver's fallback timeout. a = submessages still unrecovered,
    // b = FTOs fired so far.
    telemetry::emit({.t = sim_.now(), .kind = telemetry::EventKind::kRtoFired,
                     .layer = telemetry::Layer::kEc,
                     .conn = qp_.control_qp_num(), .msg = base,
                     .a = msg.submessages - msg.subs_recovered,
                     .b = stats_.ftos_fired});
  }
  const bool first_fire = !msg.fallback;
  msg.fallback = true;
  if (msg.sub_nacked.empty()) msg.sub_nacked.assign(msg.submessages, false);

  ControlMessage& nack = ctrl_scratch_;
  reset_control(nack, ControlType::kEcNack, base);
  for (std::size_t s = 0; s < msg.submessages && nack.indices.size() < 512;
       ++s) {
    if (!msg.sub_recovered[s]) {
      nack.indices.push_back(static_cast<std::uint32_t>(s));
      if (!msg.sub_nacked[s]) {
        msg.sub_nacked[s] = true;
        ++stats_.fallback_submessages;
      }
    }
  }
  if (nack.indices.empty()) return;
  encode_control(nack, wire_scratch_);
  control_.send(wire_scratch_.data(), wire_scratch_.size());
  ++stats_.ec_nacks_sent;
  // Keep refiring while submessages are outstanding: the NACK itself (or
  // the sender's entire first transmission) can be lost, and the sender
  // may not even have posted the message yet.
  arm_fto(msg, base);
  if (first_fire) fallback_ack_tick(base);
}

void EcReceiver::cts_tick(std::uint64_t base) {
  telemetry::ProfScope prof(telemetry::ProfCategory::kEc);
  const auto it = messages_.find(base);
  if (it == messages_.end()) return;
  MsgState& msg = it->second;
  if (msg.complete) return;
  // Re-CTS every stream that has produced nothing: either its CTS was
  // lost (the sender's chunks sit queued until one lands) or the stream
  // itself is still in flight — the retry pace is several RTTs, so an
  // in-flight first chunk wins the race and the duplicate never sends.
  bool silent = false;
  for (core::RecvHandle* h : msg.data_handles) {
    if (qp_.recv_packets(h) != 0) continue;
    qp_.resend_cts(h);
    silent = true;
  }
  for (core::RecvHandle* h : msg.parity_handles) {
    if (qp_.recv_packets(h) != 0) continue;
    qp_.resend_cts(h);
    silent = true;
  }
  if (!silent) return;  // every stream has started; nothing left to nudge
  sim_.schedule(SimTime::from_seconds(config_.cts_retry_s),
                [this, base] { cts_tick(base); });
}

void EcReceiver::fallback_ack_tick(std::uint64_t base) {
  telemetry::ProfScope prof(telemetry::ProfCategory::kEc);
  const auto it = messages_.find(base);
  if (it == messages_.end()) return;
  MsgState& msg = it->second;
  if (msg.complete) return;
  send_fallback_acks(msg, base);
  msg.ack_timer =
      sim_.schedule(SimTime::from_seconds(config_.fallback_ack_interval_s),
                    [this, base] { fallback_ack_tick(base); });
}

void EcReceiver::send_fallback_acks(MsgState& msg, std::uint64_t base) {
  (void)base;
  for (std::size_t s = 0; s < msg.submessages; ++s) {
    if (msg.sub_recovered[s]) continue;
    const AtomicBitmap* bits = nullptr;
    qp_.recv_bitmap_get(msg.data_handles[s], &bits);
    if (bits == nullptr) continue;
    ControlMessage& ack = ctrl_scratch_;
    reset_control(ack, ControlType::kSrAck,
                  msg.data_handles[s]->msg_number());
    ack.cumulative = static_cast<std::uint32_t>(bits->first_zero(config_.k));
    ack.selective_base = 0;
    ack.selective.reserve(bitmap_words(config_.k));
    for (std::size_t w = 0; w < bitmap_words(config_.k); ++w) {
      ack.selective.push_back(bits->load_word(w));
    }
    encode_control(ack, wire_scratch_);
    control_.send(wire_scratch_.data(), wire_scratch_.size());
  }
}

void EcReceiver::complete(MsgState& msg, std::uint64_t base) {
  msg.complete = true;
  if (msg_completion_hist_.live() && msg.posted_at_s >= 0.0) {
    msg_completion_hist_.record(sim_.now().seconds() - msg.posted_at_s);
  }
  if (telemetry::observing()) {
    // a = submessages, b = submessages decoded from parity so far.
    telemetry::emit({.t = sim_.now(),
                     .kind = telemetry::EventKind::kMsgComplete,
                     .layer = telemetry::Layer::kEc,
                     .conn = qp_.control_qp_num(), .msg = base,
                     .a = msg.submessages, .b = stats_.decoded_submessages});
  }
  if (msg.fto_timer.valid()) sim_.cancel(msg.fto_timer);
  if (msg.global_timer.valid()) sim_.cancel(msg.global_timer);
  if (msg.ack_timer.valid()) sim_.cancel(msg.ack_timer);

  ControlMessage& ack = ctrl_scratch_;
  reset_control(ack, ControlType::kEcAck, base);
  encode_control(ack, wire_scratch_);
  control_.send(wire_scratch_.data(), wire_scratch_.size());
  for (std::size_t r = 1; r < config_.final_ack_repeats; ++r) {
    // Init-capture copies the scratch: the repeat fires after the scratch
    // has been reused, and a const member would degrade the event's
    // relocation to a copy (InlineFunction requires nothrow moves).
    sim_.schedule(
        SimTime::from_seconds(config_.fallback_ack_interval_s *
                              static_cast<double>(r)),
        [this, ack_wire = wire_scratch_] {
          control_.send(ack_wire.data(), ack_wire.size());
        });
  }

  for (auto* h : msg.data_handles) {
    handle_to_base_.erase(h->msg_number());
    qp_.recv_complete(h);
  }
  for (auto* h : msg.parity_handles) {
    handle_to_base_.erase(h->msg_number());
    qp_.recv_complete(h);
  }
  DoneFn done = std::move(msg.done);
  messages_.erase(base);
  if (done) done(Status::ok());
}

}  // namespace sdr::reliability
