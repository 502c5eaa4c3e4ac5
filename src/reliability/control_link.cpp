#include "reliability/control_link.hpp"

namespace sdr::reliability {

namespace {
// Datagram buffer size: one MTU. The largest datagram is an eager one,
// 4000 B of payload plus its 23 B header.
constexpr std::size_t kBufferBytes = 4096;
// Posted receive buffers. One is in use at a time, since drain() runs
// inside the CQ push of each arrival; the rest are headroom.
constexpr std::size_t kRecvBuffers = 4;
}  // namespace

ControlLink::ControlLink(verbs::Nic& nic) : nic_(nic) {
  cq_ = std::make_unique<verbs::CompletionQueue>(kRecvBuffers + 16);
  verbs::QpConfig cfg;
  cfg.type = verbs::QpType::kUD;
  cfg.mtu = kBufferBytes;
  cfg.recv_cq = cq_.get();
  cfg.send_cq = nullptr;
  qp_ = nic_.create_qp(cfg);
  cq_->set_notify([this] { drain(); });

  buffers_ = std::make_unique_for_overwrite<std::uint8_t[]>(kRecvBuffers *
                                                             kBufferBytes);
  for (std::size_t i = 0; i < kRecvBuffers; ++i) {
    verbs::RecvWr rwr;
    rwr.wr_id = i;
    rwr.addr = buffers_.get() + i * kBufferBytes;
    rwr.length = kBufferBytes;
    qp_->post_recv(rwr);
  }
}

ControlLink::~ControlLink() {
  if (qp_ != nullptr) nic_.destroy_qp(qp_->num());
}

verbs::QpNumber ControlLink::qp_number() const { return qp_->num(); }

void ControlLink::connect(verbs::NicId peer_nic, verbs::QpNumber peer_qp) {
  peer_nic_ = peer_nic;
  peer_qp_ = peer_qp;
}

void ControlLink::send(const std::uint8_t* data, std::size_t length) {
  verbs::SendWr wr;
  wr.local_addr = data;
  wr.length = length;
  wr.signaled = false;
  wr.dst_nic = peer_nic_;
  wr.dst_qp = peer_qp_;
  qp_->post_send(wr);
  ++sent_;
}

void ControlLink::drain() {
  while (auto cqe = cq_->poll_one()) {
    if (!cqe->is_recv) continue;
    const std::size_t buf = static_cast<std::size_t>(cqe->wr_id);
    ++received_;
    std::uint8_t* addr = buffers_.get() + buf * kBufferBytes;
    if (on_receive_) {
      on_receive_(addr, cqe->byte_len);
    }
    verbs::RecvWr rwr;
    rwr.wr_id = buf;
    rwr.addr = addr;
    rwr.length = kBufferBytes;
    qp_->post_recv(rwr);
  }
}

}  // namespace sdr::reliability
