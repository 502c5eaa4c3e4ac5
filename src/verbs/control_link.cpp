#include "verbs/control_link.hpp"

namespace sdr::verbs {

namespace {
// Datagram buffer size: one MTU. The largest datagram is an eager one,
// 4000 B of payload plus its 23 B header.
constexpr std::size_t kBufferBytes = 4096;
}  // namespace

ControlLink::ControlLink(Nic& nic) : nic_(nic), cq_(16) {
  QpConfig cfg;
  cfg.type = QpType::kUD;
  cfg.mtu = kBufferBytes;
  cfg.recv_cq = &cq_;
  cfg.send_cq = nullptr;
  qp_ = nic_.create_qp(cfg);
  cq_.set_notify([this] { drain(); });

  buffer_ = std::make_unique_for_overwrite<std::uint8_t[]>(kBufferBytes);
  RecvWr rwr;
  rwr.addr = buffer_.get();
  rwr.length = kBufferBytes;
  qp_->post_recv(rwr);
}

ControlLink::~ControlLink() {
  if (qp_ != nullptr) nic_.destroy_qp(qp_->num());
}

QpNumber ControlLink::qp_number() const { return qp_->num(); }

void ControlLink::connect(NicId peer_nic, QpNumber peer_qp) {
  peer_nic_ = peer_nic;
  peer_qp_ = peer_qp;
}

void ControlLink::send(const std::uint8_t* data, std::size_t length) {
  SendWr wr;
  wr.local_addr = data;
  wr.length = length;
  wr.signaled = false;
  wr.dst_nic = peer_nic_;
  wr.dst_qp = peer_qp_;
  qp_->post_send(wr);
  ++sent_;
}

// Runs inside the CQ push of each arrival, so it finds one CQE: the
// datagram in the one buffer. Sends are unsignaled and the QP has no send
// CQ, so every CQE is a receive.
void ControlLink::drain() {
  while (const auto cqe = cq_.poll_one()) {
    ++received_;
    if (on_receive_) on_receive_(buffer_.get(), cqe->byte_len);
    RecvWr rwr;
    rwr.addr = buffer_.get();
    rwr.length = kBufferBytes;
    qp_->post_recv(rwr);
  }
}

}  // namespace sdr::verbs
