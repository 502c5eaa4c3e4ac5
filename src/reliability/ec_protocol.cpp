#include "reliability/ec_protocol.hpp"

#include <algorithm>
#include <cassert>

#include "common/logging.hpp"

namespace sdr::reliability {

namespace {

constexpr std::uint64_t kNoMessage = ~std::uint64_t{0};

/// The deadlock guard (paper: "a global timeout is also set at message
/// posting to prevent deadlock"): at either end, the round that follows
/// this many silent rounds aborts the message. With the doubling capped at
/// 16x, a receive on a dead path gives up about 223 × (FTO + 2 RTT) after
/// posting.
constexpr unsigned kSilentFtoLimit = 16;

/// FTO = (M + M/R) * T_INJ + beta * RTT for `chunks` data chunks, which
/// both ends' silence clocks wait on.
double fto_s(std::size_t chunks, const EcProtoConfig& config,
             const LinkProfile& profile) {
  const double wire_chunks =
      static_cast<double>(chunks) *
      (1.0 + static_cast<double>(config.m) / static_cast<double>(config.k));
  return wire_chunks * profile.chunk_injection_s() +
         config.beta * profile.rtt_s;
}

/// Whether a recycled parity buffer of `capacity` bytes may carry a message
/// that needs `need`: it must be large enough and at most twice that, so a
/// node that once carried a bulk message does not pin that much memory for
/// every small one after it.
bool fits(std::size_t capacity, std::size_t need) {
  return capacity >= need && capacity / 2 < need;
}

/// The state node for a new message keyed `key`: a recycled one from `free`
/// when there is one, so its buffers keep their capacity. The first node
/// for which `fitting` holds is preferred. Every field still holds the
/// previous message's value; the caller resets what it uses.
template <typename Map, typename Fitting>
typename Map::mapped_type& acquire_node(
    Map& map, std::vector<typename Map::node_type>& free, std::uint64_t key,
    Fitting fitting) {
  if (free.empty()) return map[key];
  auto pick = std::find_if(free.begin(), free.end(),
                           [&](const auto& n) { return fitting(n.mapped()); });
  if (pick == free.end()) --pick;
  typename Map::node_type node = std::move(*pick);
  if (pick != free.end() - 1) *pick = std::move(free.back());
  free.pop_back();
  node.key() = key;
  return map.insert(std::move(node)).position->second;
}

}  // namespace

// ---------------------------------------------------------------------------
// Sender
// ---------------------------------------------------------------------------

EcSender::EcSender(sim::Simulator& simulator, core::Qp& qp,
                   verbs::ControlLink& control, const LinkProfile& profile,
                   const ec::ErasureCodec& codec, EcProtoConfig config,
                   const SrProtoConfig& sr)
    : sim_(simulator),
      qp_(qp),
      control_(control),
      profile_(profile),
      codec_(codec),
      config_(config),
      chunk_bytes_(qp.attr().chunk_size),
      sub_base_(qp.attr().max_inflight, kNoMessage),
      data_blocks_(config.k),
      parity_blocks_(config.m),
      retx_(simulator, sr, profile, telemetry::ProfCategory::kEc,
            [this](std::uint64_t number, std::size_t chunk, bool) {
              return resend(number, chunk);
            }) {
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
  const std::size_t parity_bytes = L * config_.m * chunk_bytes_;

  // The first data stream's number is the message's key (its base).
  core::SendHandle* handle = nullptr;
  if (Status st = qp_.send_stream_start(0, false, &handle); !st) return st;
  const std::uint64_t base = handle->msg_number();
  MsgState& msg = acquire_node(messages_, free_, base, [&](const MsgState& m) {
    return fits(m.parity.capacity(), parity_bytes);
  });
  msg.data = data;
  msg.length = length;
  msg.submessages = L;
  msg.base = base;
  msg.posts = 0;
  msg.write_at_s = sim_.now().seconds();
  msg.done = std::move(done);
  if (!fits(msg.parity.capacity(), parity_bytes)) {
    msg.parity = std::vector<std::uint8_t>(parity_bytes);
  }
  msg.parity.resize(parity_bytes);
  // A failed post releases the sends already started (nothing will finish
  // them) and returns the state node to the pool.
  auto abandon = [this, base](const Status& st) {
    auto node = messages_.extract(base);
    release_handles(node.mapped());
    node.mapped().done = nullptr;
    free_.push_back(std::move(node));
    return st;
  };

  // Encode all parity submessages. In a deployment this overlaps with data
  // injection on spare cores (paper §4.1.2); in virtual time it is free —
  // the real encode cost is measured by bench_fig11_ec_encode.
  for (std::size_t s = 0; s < L; ++s) {
    for (std::size_t j = 0; j < config_.k; ++j) {
      data_blocks_[j] = data + (s * config_.k + j) * chunk_bytes_;
    }
    for (std::size_t t = 0; t < config_.m; ++t) {
      parity_blocks_[t] =
          msg.parity.data() + (s * config_.m + t) * chunk_bytes_;
    }
    codec_.encode(std::span<const std::uint8_t* const>(data_blocks_),
                  std::span<std::uint8_t* const>(parity_blocks_),
                  chunk_bytes_);
  }

  // Data submessages: streaming sends, kept open for potential fallback
  // retransmission into the same remote buffers. This sender is the only
  // one posting on its QP, so the message's sends take consecutive
  // numbers from base on.
  for (std::size_t s = 0; s < L; ++s) {
    if (s > 0) {
      if (Status st = qp_.send_stream_start(0, false, &handle); !st) {
        return abandon(st);
      }
    }
    assert(handle->msg_number() == base + msg.posts);
    ++msg.posts;
    qp_.send_stream_continue(handle, data + s * sub_bytes, 0, sub_bytes);
    sub_base_[handle->slot()] = base;
    stats_.data_chunks_sent += config_.k;
  }
  // Parity submessages: one-shot sends (never retransmitted). They cannot
  // leave before the receiver's CTS, so they are not polled while they
  // wait: finish() releases them together with the data streams.
  for (std::size_t s = 0; s < L; ++s) {
    if (Status st = qp_.send_post(msg.parity.data() + s * config_.m * chunk_bytes_,
                                  config_.m * chunk_bytes_, 0, false, &handle);
        !st) {
      return abandon(st);
    }
    assert(handle->msg_number() == base + msg.posts);
    ++msg.posts;
    stats_.parity_chunks_sent += config_.m;
  }
  msg.silent_rounds = 0;
  msg.heard = false;
  arm_timer(msg, base);

  ++stats_.messages;
  if (telemetry::observing()) {
    // msg = base (first data submessage), a = bytes, b = submessages.
    telemetry::emit({.t = sim_.now(), .kind = telemetry::EventKind::kWrite,
                     .layer = telemetry::Layer::kEc,
                     .conn = qp_.control_qp_num(), .msg = base, .a = length,
                     .b = L});
  }
  return Status::ok();
}

void EcSender::on_control(const std::uint8_t* data, std::size_t length) {
  telemetry::ProfScope prof(telemetry::ProfCategory::kEc);
  if (!decode_control(data, length, ctrl_scratch_)) return;
  const ControlMessage& ctl = ctrl_scratch_;

  switch (ctl.type) {
    case ControlType::kEcAck: {
      finish(ctl.msg_number, Status::ok());
      break;
    }
    case ControlType::kEcNack: {
      const auto it = messages_.find(ctl.msg_number);
      if (it == messages_.end()) return;
      ++stats_.ec_nacks;
      it->second.heard = true;
      enter_fallback(it->second, ctl.msg_number, ctl.indices);
      break;
    }
    case ControlType::kSrAck: {
      // Fallback per-submessage ACK: msg_number is the submessage's own. A
      // submessage that never entered fallback has no chunks to acknowledge,
      // but the ACK is still word from the receiver.
      std::size_t sub = 0;
      if (MsgState* msg = message_of(ctl.msg_number, sub)) {
        msg->heard = true;
        if (sub < msg->fallback.size()) {
          retx_.apply_ack(msg->fallback[sub], ctl, [](std::size_t, double) {});
        }
      }
      break;
    }
    default:
      break;
  }
}

EcSender::MsgState* EcSender::message_of(std::uint64_t number,
                                         std::size_t& sub) {
  // The submessage's slot names the message that last posted a data stream
  // there; a stale number (that message finished, the slot moved on) falls
  // outside the live message's data submessages.
  const std::uint64_t base = sub_base_[qp_.slot_of(number)];
  const auto it = messages_.find(base);
  if (it == messages_.end() || number < base ||
      number - base >= it->second.submessages) {
    return nullptr;
  }
  sub = static_cast<std::size_t>(number - base);
  return &it->second;
}

void EcSender::enter_fallback(MsgState& msg, std::uint64_t base,
                              const std::vector<std::uint32_t>& failed) {
  // Only the message's first NACK can find the vector short, and no stream
  // of the message is armed before it.
  if (msg.fallback.size() < msg.submessages) {
    msg.fallback.resize(msg.submessages);
  }
  for (std::uint32_t sub : failed) {
    if (sub >= msg.submessages) continue;
    Retransmitter::Stream& stream = msg.fallback[sub];
    if (!stream.chunks.empty()) continue;  // already in fallback
    if (telemetry::observing()) {
      // a = submessage, b = k.
      telemetry::emit({.t = sim_.now(),
                       .kind = telemetry::EventKind::kEcFallback,
                       .layer = telemetry::Layer::kEc,
                       .conn = qp_.control_qp_num(), .msg = base,
                       .chunk = static_cast<std::uint32_t>(sub), .a = sub,
                       .b = config_.k});
    }
    // Every chunk goes again at once: the NACK says the submessage failed,
    // not which of its chunks are missing.
    stream.reset(config_.k);
    for (std::size_t c = 0; c < config_.k; ++c) {
      retx_.retransmit(stream, base + sub, c);
    }
  }
}

bool EcSender::resend(std::uint64_t number, std::size_t chunk) {
  std::size_t sub = 0;
  const MsgState& msg = *message_of(number, sub);
  const std::size_t sub_bytes = config_.k * chunk_bytes_;
  const std::uint8_t* src = msg.data + sub * sub_bytes + chunk * chunk_bytes_;
  const Status st = qp_.send_stream_continue(
      qp_.send_handle(number), src, chunk * chunk_bytes_, chunk_bytes_);
  ++stats_.fallback_retransmissions;
  if (telemetry::observing()) {
    // msg = the submessage's own, a = submessage, b = chunk.
    telemetry::emit({.t = sim_.now(),
                     .kind = telemetry::EventKind::kRetransmit,
                     .layer = telemetry::Layer::kEc,
                     .conn = qp_.control_qp_num(), .msg = number,
                     .chunk = static_cast<std::uint32_t>(chunk),
                     .bytes = chunk_bytes_, .a = sub, .b = chunk});
  }
  return st.is_ok();
}

void EcSender::arm_timer(MsgState& msg, std::uint64_t base) {
  msg.timer = sim_.schedule(
      SimTime::from_seconds(backed_off_s(
          fto_s(msg.length / chunk_bytes_, config_, profile_) +
              3.0 * profile_.rtt_s,
          msg.silent_rounds)),
      [this, base] { on_timer(base); });
}

void EcSender::on_timer(std::uint64_t base) {
  telemetry::ProfScope prof(telemetry::ProfCategory::kEc);
  MsgState& msg = messages_.find(base)->second;  // finish() disarms it
  if (msg.heard) {
    msg.heard = false;
    msg.silent_rounds = 0;
  } else if (msg.silent_rounds == kSilentFtoLimit) {
    finish(base, Status(StatusCode::kAborted, "EC sender timeout"));
    return;
  } else {
    // Probe: a receiver that finished the message answers a copy of it.
    for (std::size_t s = 0; s < msg.submessages; ++s) {
      if (qp_.send_handle(base + s)->cts_ready()) {
        resend(base + s, 0);
        break;
      }
    }
    ++msg.silent_rounds;
  }
  arm_timer(msg, base);
}

void EcSender::finish(std::uint64_t base, const Status& status) {
  const auto it = messages_.find(base);
  if (it == messages_.end()) return;
  MsgState& msg = it->second;
  sim_.cancel(msg.timer);
  if (status && msg_completion_hist_.live() && msg.write_at_s >= 0.0) {
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
  // Close the fallback streams: a recycled node holds none open.
  for (std::size_t s = 0; s < std::min(msg.submessages, msg.fallback.size());
       ++s) {
    retx_.cancel(msg.fallback[s]);
    msg.fallback[s].reset(0);
  }
  release_handles(msg);
  DoneFn done = std::move(msg.done);
  msg.data = nullptr;
  // Recycle the node before the callback so a re-entrant write() finds it.
  free_.push_back(messages_.extract(it));
  if (done) done(status);
}

void EcSender::release_handles(const MsgState& msg) {
  // A send whose CTS never arrived has everything still queued; the
  // receiver completed without it (parity recovery), so it will never
  // drain: abort it instead of reap-polling it forever. The rest have
  // almost always left the NIC by the final ACK, so reap() rarely has to
  // retry. Parity handles were held since write() like the data streams,
  // so each still carries its own message. Holding them is safe for slot
  // reuse: a later send that wraps onto a parity slot passes this
  // message's data slots first (their numbers come before the parity
  // numbers), and those were held too. Each held handle still names its
  // send, so the core's handle for each number is the message's own.
  for (std::size_t i = 0; i < msg.posts; ++i) {
    core::SendHandle* handle = qp_.send_handle(msg.base + i);
    if (!handle->cts_ready()) {
      qp_.send_abort(handle);
      continue;
    }
    if (i < msg.submessages) qp_.send_stream_end(handle);
    reap(sim_, qp_, handle);
  }
}

// ---------------------------------------------------------------------------
// Receiver
// ---------------------------------------------------------------------------

EcReceiver::EcReceiver(sim::Simulator& simulator, core::Qp& qp,
                       verbs::ControlLink& control, const LinkProfile& profile,
                       const ec::ErasureCodec& codec, EcProtoConfig config)
    : sim_(simulator),
      qp_(qp),
      control_(control),
      profile_(profile),
      codec_(codec),
      config_(config),
      chunk_bytes_(qp.attr().chunk_size),
      handle_base_(qp.attr().max_inflight, kNoMessage),
      subs_(qp.attr().max_inflight),
      present_(config.k + config.m, false),
      decode_blocks_(config.k + config.m) {
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

EcReceiver::~EcReceiver() {
  // A registration may be dropped only once no receive slot is bound to it.
  core::Context& ctx = qp_.context();
  for (auto& [base, msg] : messages_) {
    complete_receives(msg);
    if (msg.parity_mr != nullptr) ctx.mr_dereg(msg.parity_mr);
  }
  for (auto& node : free_) {
    if (node.mapped().parity_mr != nullptr) {
      ctx.mr_dereg(node.mapped().parity_mr);
    }
  }
}

Status EcReceiver::expect(std::uint8_t* buffer, std::size_t length,
                          const verbs::MemoryRegion* mr, DoneFn done) {
  const std::size_t sub_bytes = config_.k * chunk_bytes_;
  if (buffer == nullptr || length == 0 || length % sub_bytes != 0) {
    return Status(StatusCode::kInvalidArgument,
                  "EC receive length must be a whole number of submessages");
  }
  const std::size_t L = length / sub_bytes;

  // Post order must mirror the sender's send order: data 0..L-1, parity
  // 0..L-1 (SDR matching is order-based). The first data receive's number
  // is the message's key (its base).
  core::RecvHandle* handle = nullptr;
  if (Status st = qp_.recv_post(buffer, sub_bytes, mr, &handle); !st) {
    return st;
  }
  const std::uint64_t base = handle->msg_number();
  const std::size_t parity_bytes = L * config_.m * chunk_bytes_;
  MsgState& msg = acquire_node(messages_, free_, base, [&](const MsgState& m) {
    return fits(m.parity_scratch.size(), parity_bytes);
  });
  msg.buffer = buffer;
  msg.length = length;
  msg.submessages = L;
  msg.base = base;
  msg.posts = 0;
  msg.posted_at_s = sim_.now().seconds();
  msg.done = std::move(done);
  msg.subs_recovered = 0;
  msg.fallback = false;
  msg.silent_rounds = 0;
  msg.fto_timer = {};
  // The parity scratch keeps its registration while it fits. Every receive
  // bound to it was completed (rebound to the NULL key) before the node was
  // recycled, so replacing it is safe too.
  if (msg.parity_mr == nullptr ||
      !fits(msg.parity_scratch.size(), parity_bytes)) {
    if (msg.parity_mr != nullptr) qp_.context().mr_dereg(msg.parity_mr);
    msg.parity_scratch = std::vector<std::uint8_t>(parity_bytes);
    msg.parity_mr = qp_.context().mr_reg(msg.parity_scratch.data(),
                                         msg.parity_scratch.size());
  }
  // A failed post completes the receives already posted (nothing else
  // will, and they are bound to the parity scratch) and returns the state
  // node to the pool.
  auto abandon = [this, base](const Status& st) {
    auto node = messages_.extract(base);
    complete_receives(node.mapped());
    node.mapped().done = nullptr;
    free_.push_back(std::move(node));
    return st;
  };

  // As at the sender, the message's receives take consecutive numbers.
  for (std::size_t s = 0; s < L; ++s) {
    if (s > 0) {
      if (Status st = qp_.recv_post(buffer + s * sub_bytes, sub_bytes, mr,
                                    &handle);
          !st) {
        return abandon(st);
      }
    }
    assert(handle->msg_number() == base + msg.posts);
    ++msg.posts;
    handle_base_[handle->slot()] = base;
    subs_[handle->slot()] = SubState{};
  }
  for (std::size_t s = 0; s < L; ++s) {
    if (Status st = qp_.recv_post(
            msg.parity_scratch.data() + s * config_.m * chunk_bytes_,
            config_.m * chunk_bytes_, msg.parity_mr, &handle);
        !st) {
      return abandon(st);
    }
    assert(handle->msg_number() == base + msg.posts);
    ++msg.posts;
    handle_base_[handle->slot()] = base;
  }

  // FTO armed at posting, not on first chunk arrival: a loss burst that
  // eats every packet of the message (data and parity), or a lost CTS,
  // would otherwise leave the receiver silent and the sender waiting
  // forever.
  arm_fto(msg, base);

  ++stats_.messages;
  return Status::ok();
}

void EcReceiver::on_chunk_event(const core::RecvEvent& event) {
  telemetry::ProfScope prof(telemetry::ProfCategory::kEc);
  // The message that posted a receive is the last to have written its
  // slot's entry; release() unmaps the slots whose late copies it ignores.
  const std::uint64_t number = event.handle->msg_number();
  const std::uint64_t base = handle_base_[event.handle->slot()];
  if (event.type == core::RecvEvent::Type::kLate) {
    // As in SrReceiver: a copy an RTT or more after the ACK means it was lost.
    const double after_s =
        sim_.now().seconds() - event.handle->completed_at_s();
    if (base != kNoMessage && after_s >= profile_.rtt_s) send_ec_ack(base);
    return;
  }
  const auto it = messages_.find(base);
  if (it == messages_.end()) return;
  MsgState& msg = it->second;
  if (number < base || number - base >= 2 * msg.submessages) return;
  msg.silent_rounds = 0;

  // Which submessage does this event concern?
  const std::uint64_t idx = number - base;
  const std::size_t sub = idx < msg.submessages
                              ? static_cast<std::size_t>(idx)
                              : static_cast<std::size_t>(idx - msg.submessages);
  SubState& state = subs_[qp_.slot_of(base + sub)];
  if (state.recovered) return;

  if (recover(msg, sub)) {
    state.recovered = true;
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
      reset_control(ack, ControlType::kSrAck, base + sub);
      ack.cumulative = static_cast<std::uint32_t>(config_.k);
      encode_control(ack, wire_scratch_);
      control_.send(wire_scratch_.data(), wire_scratch_.size());
    }
    if (msg.subs_recovered == msg.submessages) complete(it);
  } else if (msg.fallback && idx < msg.submessages) {
    // In fallback, data that lands is answered with its submessage's
    // bitmap, so the sender stops timing the chunks that arrived.
    send_fallback_ack(msg, sub);
  }
}

bool EcReceiver::recover(MsgState& msg, std::size_t sub) {
  const AtomicBitmap* data_bits = nullptr;
  const AtomicBitmap* parity_bits = nullptr;
  qp_.recv_bitmap_get(qp_.recv_handle(msg.base + sub), &data_bits);
  qp_.recv_bitmap_get(qp_.recv_handle(msg.base + msg.submessages + sub),
                      &parity_bits);
  if (data_bits == nullptr || parity_bits == nullptr) return false;
  bool all_data = true;
  for (std::size_t j = 0; j < config_.k; ++j) {
    present_[j] = data_bits->test(j);
    all_data = all_data && present_[j];
  }
  for (std::size_t t = 0; t < config_.m; ++t) {
    present_[config_.k + t] = parity_bits->test(t);
  }
  if (!codec_.can_recover(present_)) return false;
  if (all_data) {
    ++stats_.clean_submessages;
    return true;
  }
  const std::size_t sub_bytes = config_.k * chunk_bytes_;
  for (std::size_t j = 0; j < config_.k; ++j) {
    decode_blocks_[j] = msg.buffer + sub * sub_bytes + j * chunk_bytes_;
  }
  for (std::size_t t = 0; t < config_.m; ++t) {
    decode_blocks_[config_.k + t] =
        msg.parity_scratch.data() + (sub * config_.m + t) * chunk_bytes_;
  }
  if (!codec_.decode(std::span<std::uint8_t* const>(decode_blocks_), present_,
                     chunk_bytes_)) {
    return false;
  }
  ++stats_.decoded_submessages;
  if (telemetry::observing()) {
    // msg = the submessage's own, a = submessage.
    telemetry::emit({.t = sim_.now(), .kind = telemetry::EventKind::kEcRepair,
                     .layer = telemetry::Layer::kEc,
                     .conn = qp_.control_qp_num(), .msg = msg.base + sub,
                     .chunk = static_cast<std::uint32_t>(sub), .a = sub});
  }
  return true;
}

void EcReceiver::arm_fto(MsgState& msg, std::uint64_t base) {
  // + 2 RTT of slack: the timer starts at posting, before the RTS/CTS
  // handshake and the first injected byte.
  msg.fto_timer = sim_.schedule(
      SimTime::from_seconds(backed_off_s(
          fto_s(msg.length / chunk_bytes_, config_, profile_) +
              2.0 * profile_.rtt_s,
          msg.silent_rounds)),
      [this, base] { on_fto(base); });
}

void EcReceiver::on_fto(std::uint64_t base) {
  telemetry::ProfScope prof(telemetry::ProfCategory::kEc);
  const auto it = messages_.find(base);
  if (it == messages_.end()) return;
  MsgState& msg = it->second;
  if (msg.silent_rounds == kSilentFtoLimit) {
    release(it, Status(StatusCode::kAborted, "EC fallback timeout"));
    return;
  }
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
  msg.fallback = true;

  // Re-CTS every stream that has produced nothing: its CTS was lost (the
  // sender's chunks sit queued until one lands), the sender has not posted
  // yet, or every packet of the stream was dropped.
  for (std::size_t i = 0; i < msg.posts; ++i) {
    core::RecvHandle* h = qp_.recv_handle(base + i);
    if (qp_.recv_packets(h) == 0) qp_.resend_cts(h);
  }

  ControlMessage& nack = ctrl_scratch_;
  reset_control(nack, ControlType::kEcNack, base);
  for (std::size_t s = 0; s < msg.submessages && nack.indices.size() < 512;
       ++s) {
    SubState& state = subs_[qp_.slot_of(base + s)];
    if (!state.recovered) {
      nack.indices.push_back(static_cast<std::uint32_t>(s));
      if (!state.nacked) {
        state.nacked = true;
        ++stats_.fallback_submessages;
      }
    }
  }
  // A live message has an unrecovered submessage, so the NACK is never
  // empty.
  encode_control(nack, wire_scratch_);
  control_.send(wire_scratch_.data(), wire_scratch_.size());
  ++stats_.ec_nacks_sent;
  // Keep refiring while submessages are outstanding: the NACK itself (or
  // the sender's entire first transmission) can be lost, and the sender
  // may not even have posted the message yet.
  ++msg.silent_rounds;
  arm_fto(msg, base);
}

void EcReceiver::send_fallback_ack(const MsgState& msg, std::size_t sub) {
  const AtomicBitmap* bits = nullptr;
  if (!qp_.recv_bitmap_get(qp_.recv_handle(msg.base + sub), &bits)) return;
  build_ack(ctrl_scratch_, msg.base + sub, *bits, config_.k);
  encode_control(ctrl_scratch_, wire_scratch_);
  control_.send(wire_scratch_.data(), wire_scratch_.size());
}

void EcReceiver::complete(MsgMap::iterator it) {
  const std::uint64_t base = it->first;
  const MsgState& msg = it->second;
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
  send_ec_ack(base);
  release(it, Status::ok());
}

void EcReceiver::release(MsgMap::iterator it, const Status& status) {
  MsgState& msg = it->second;
  sim_.cancel(msg.fto_timer);
  complete_receives(msg);
  // Late copies of parity are the tail of the first transmission (parity
  // is never resent), and an aborted message must not be acknowledged.
  for (std::size_t i = 0; i < msg.posts; ++i) {
    if (i >= msg.submessages || !status) {
      handle_base_[qp_.slot_of(msg.base + i)] = kNoMessage;
    }
  }
  DoneFn done = std::move(msg.done);
  msg.buffer = nullptr;
  // Recycle the node before the callback so a re-entrant expect() finds it.
  free_.push_back(messages_.extract(it));
  if (done) done(status);
}

void EcReceiver::complete_receives(const MsgState& msg) {
  for (std::size_t i = 0; i < msg.posts; ++i) {
    qp_.recv_complete(qp_.recv_handle(msg.base + i));
  }
}

void EcReceiver::send_ec_ack(std::uint64_t base) {
  ControlMessage& ack = ctrl_scratch_;
  reset_control(ack, ControlType::kEcAck, base);
  encode_control(ack, wire_scratch_);
  control_.send(wire_scratch_.data(), wire_scratch_.size());
}

}  // namespace sdr::reliability
