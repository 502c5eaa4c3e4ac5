#include "reliability/reliable_channel.hpp"

#include <cstring>

#include "ec/reed_solomon.hpp"
#include "ec/xor_code.hpp"

namespace sdr::reliability {

void ReliableChannel::Options::derive_timeouts() {
  const double rtt = profile.rtt_s;
  const bool nack = kind == Kind::kSrNack;
  sr.rto_s = (nack ? 1.5 : 3.0) * rtt;
  sr.nack_enabled = nack;
  sr.ack_interval_s = std::max(rtt / 16.0, profile.chunk_injection_s() * 8.0);
}

ReliableChannel::ReliableChannel(sim::Simulator& simulator, verbs::Nic& src,
                                 verbs::Nic& dst, Options options)
    : sim_(simulator),
      options_(options),
      eager_retx_(simulator, options_.sr, options_.profile,
                  telemetry::ProfCategory::kSr,
                  [this](std::uint64_t id, std::size_t, bool) {
                    eager_transmit(id, eager_sends_.at(id).payload);
                    return true;
                  }) {
  src_ctx_ = std::make_unique<core::Context>(src, core::DevAttr{});
  dst_ctx_ = std::make_unique<core::Context>(dst, core::DevAttr{});
  src_qp_ = src_ctx_->create_qp(options_.attr);
  dst_qp_ = dst_ctx_->create_qp(options_.attr);
  src_qp_->connect(dst_qp_->info());
  dst_qp_->connect(src_qp_->info());

  src_control_ = std::make_unique<verbs::ControlLink>(src);
  dst_control_ = std::make_unique<verbs::ControlLink>(dst);
  src_control_->connect(dst.id(), dst_control_->qp_number());
  dst_control_->connect(src.id(), src_control_->qp_number());

  switch (options_.kind) {
    case Kind::kSrRto:
    case Kind::kSrNack:
      sr_sender_ = std::make_unique<SrSender>(sim_, *src_qp_, *src_control_,
                                              options_.profile, options_.sr);
      sr_receiver_ = std::make_unique<SrReceiver>(
          sim_, *dst_qp_, *dst_control_, options_.profile, options_.sr);
      break;
    case Kind::kEcMds:
      codec_ = std::make_unique<ec::ReedSolomon>(options_.ec.k, options_.ec.m);
      break;
    case Kind::kEcXor:
      codec_ = std::make_unique<ec::XorCode>(options_.ec.k, options_.ec.m);
      break;
  }
  if (codec_) {
    ec_sender_ = std::make_unique<EcSender>(sim_, *src_qp_, *src_control_,
                                            options_.profile, *codec_,
                                            options_.ec, options_.sr);
    ec_receiver_ = std::make_unique<EcReceiver>(sim_, *dst_qp_, *dst_control_,
                                                options_.profile, *codec_,
                                                options_.ec);
  }

  if (options_.eager_threshold_bytes > 0) {
    // Interpose on both control links: eager data/acks are consumed here,
    // everything else forwarded to the protocol handler installed above.
    protocol_src_handler_ = src_control_->receiver();
    src_control_->set_receiver(
        [this](const std::uint8_t* d, std::size_t n) { on_src_control(d, n); });
    dst_control_->set_receiver(
        [this](const std::uint8_t* d, std::size_t n) { on_dst_control(d, n); });
  }
}

ReliableChannel::~ReliableChannel() = default;

Status ReliableChannel::send(const std::uint8_t* data, std::size_t length,
                             DoneFn done) {
  if (options_.eager_threshold_bytes > 0 &&
      length <= options_.eager_threshold_bytes) {
    return eager_send(data, length, std::move(done));
  }
  if (sr_sender_) return sr_sender_->write(data, length, std::move(done));
  return ec_sender_->write(data, length, std::move(done));
}

Status ReliableChannel::recv(std::uint8_t* buffer, std::size_t length,
                             DoneFn done) {
  if (options_.eager_threshold_bytes > 0 &&
      length <= options_.eager_threshold_bytes) {
    return eager_recv(buffer, length, std::move(done));
  }
  const verbs::MemoryRegion* mr = recv_mr(buffer, length);
  if (mr == nullptr) {
    return Status(StatusCode::kInternal, "memory registration failed");
  }
  if (sr_receiver_) {
    return sr_receiver_->expect(buffer, length, mr, std::move(done));
  }
  return ec_receiver_->expect(buffer, length, mr, std::move(done));
}

// ---------------------------------------------------------------------------
// Eager small-message path: payload in the control datagram, retransmitted
// until acked, no CTS round trip. Sizes are known on both sides, so the
// eager/rendezvous split never desynchronizes the order-based matching.
// ---------------------------------------------------------------------------

Status ReliableChannel::eager_send(const std::uint8_t* data,
                                   std::size_t length, DoneFn done) {
  if (length == 0 || length > 4000) {
    return Status(StatusCode::kInvalidArgument,
                  "eager payload must fit one control datagram");
  }
  const std::uint64_t id = eager_send_seq_++;
  EagerSend& state = eager_sends_[id];
  state.payload.assign(data, data + length);
  state.done = std::move(done);
  state.stream.reset(1);
  eager_transmit(id, state.payload);
  eager_retx_.start(state.stream, id);
  return Status::ok();
}

void ReliableChannel::eager_transmit(std::uint64_t id,
                                     const std::vector<std::uint8_t>& payload) {
  ControlMessage& msg = ctrl_scratch_;
  reset_control(msg, ControlType::kEagerData, id);
  msg.payload.assign(payload.begin(), payload.end());
  encode_control(msg, wire_scratch_);
  src_control_->send(wire_scratch_.data(), wire_scratch_.size());
}

Status ReliableChannel::eager_recv(std::uint8_t* buffer, std::size_t length,
                                   DoneFn done) {
  const std::uint64_t id = eager_recv_seq_++;
  // Data may have raced ahead of the posted receive.
  if (const auto it = eager_stash_.find(id); it != eager_stash_.end()) {
    const std::size_t n = std::min(length, it->second.size());
    std::memcpy(buffer, it->second.data(), n);
    eager_stash_.erase(it);
    ++eager_completed_;
    if (done) done(Status::ok());
    return Status::ok();
  }
  eager_recvs_[id] = EagerRecv{buffer, length, std::move(done)};
  return Status::ok();
}

void ReliableChannel::on_dst_control(const std::uint8_t* data,
                                     std::size_t length) {
  if (!decode_control(data, length, decode_scratch_)) return;
  const ControlMessage& parsed = decode_scratch_;
  if (parsed.type != ControlType::kEagerData) return;  // receivers only
  // Always acknowledge — duplicates mean the previous ack was lost.
  ControlMessage& ack = ctrl_scratch_;
  reset_control(ack, ControlType::kEagerAck, parsed.msg_number);
  encode_control(ack, wire_scratch_);
  dst_control_->send(wire_scratch_.data(), wire_scratch_.size());

  if (const auto it = eager_recvs_.find(parsed.msg_number);
      it != eager_recvs_.end()) {
    const std::size_t n = std::min(it->second.length, parsed.payload.size());
    std::memcpy(it->second.buffer, parsed.payload.data(), n);
    DoneFn done = std::move(it->second.done);
    eager_recvs_.erase(it);
    ++eager_completed_;
    if (done) done(Status::ok());
  } else if (parsed.msg_number >= eager_recv_seq_) {
    // Early data for a not-yet-posted receive: stash one copy.
    eager_stash_.emplace(parsed.msg_number, parsed.payload);
  }  // else: duplicate of an already-completed message — ack was enough
}

void ReliableChannel::on_src_control(const std::uint8_t* data,
                                     std::size_t length) {
  if (decode_control(data, length, decode_scratch_) &&
      decode_scratch_.type == ControlType::kEagerAck) {
    const auto it = eager_sends_.find(decode_scratch_.msg_number);
    if (it != eager_sends_.end()) {
      eager_retx_.cancel(it->second.stream);
      DoneFn done = std::move(it->second.done);
      eager_sends_.erase(it);
      if (done) done(Status::ok());
    }
    return;
  }
  // Everything else belongs to the SR/EC sender protocol.
  if (protocol_src_handler_) protocol_src_handler_(data, length);
}

void ReliableChannel::set_static_rto(double rto_s) {
  if (sr_sender_) sr_sender_->set_static_rto(rto_s);
}

std::uint64_t ReliableChannel::retransmissions() const {
  if (sr_sender_) return sr_sender_->stats().retransmissions;
  return ec_sender_->stats().fallback_retransmissions;
}

const verbs::MemoryRegion* ReliableChannel::recv_mr(std::uint8_t* buffer,
                                                    std::size_t length) {
  for (const verbs::MemoryRegion* mr : recv_mrs_) {
    if (buffer >= mr->addr() && buffer + length <= mr->addr() + mr->length()) {
      return mr;
    }
  }
  const verbs::MemoryRegion* mr = dst_ctx_->mr_reg(buffer, length);
  if (mr != nullptr) recv_mrs_.push_back(mr);
  return mr;
}

}  // namespace sdr::reliability
