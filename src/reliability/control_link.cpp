#include "reliability/control_link.hpp"

namespace sdr::reliability {

ControlLink::ControlLink(verbs::Nic& nic, std::size_t recv_buffers,
                         std::size_t buffer_bytes)
    : nic_(nic) {
  cq_ = std::make_unique<verbs::CompletionQueue>(recv_buffers + 16);
  verbs::QpConfig cfg;
  cfg.type = verbs::QpType::kUD;
  cfg.mtu = buffer_bytes;
  cfg.recv_cq = cq_.get();
  cfg.send_cq = nullptr;
  qp_ = nic_.create_qp(cfg);
  cq_->set_notify([this] { drain(); });

  buffer_bytes_ = buffer_bytes;
  buffers_.resize(recv_buffers * buffer_bytes);
  for (std::size_t i = 0; i < recv_buffers; ++i) {
    verbs::RecvWr rwr;
    rwr.wr_id = i;
    rwr.addr = buffers_.data() + i * buffer_bytes_;
    rwr.length = buffer_bytes_;
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
    std::uint8_t* addr = buffers_.data() + buf * buffer_bytes_;
    if (on_receive_) {
      on_receive_(addr, cqe->byte_len);
    }
    verbs::RecvWr rwr;
    rwr.wr_id = buf;
    rwr.addr = addr;
    rwr.length = buffer_bytes_;
    qp_->post_recv(rwr);
  }
}

}  // namespace sdr::reliability
