// Control-path connection for reliability protocols (paper §4.1): a UD
// queue pair dedicated to ACK/NACK datagrams, kept separate from the SDR
// data path.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "verbs/cq.hpp"
#include "verbs/nic.hpp"

namespace sdr::reliability {

class ControlLink {
 public:
  /// Creates a UD QP on `nic` with `recv_buffers` pre-posted datagram
  /// buffers of `buffer_bytes` each.
  /// Lifetime: the link owns a QP inside `nic` and unregisters it on
  /// destruction — the NIC must outlive the ControlLink.
  ControlLink(verbs::Nic& nic, std::size_t recv_buffers = 256,
              std::size_t buffer_bytes = 4096);
  ~ControlLink();
  ControlLink(const ControlLink&) = delete;
  ControlLink& operator=(const ControlLink&) = delete;

  verbs::QpNumber qp_number() const;

  /// Address the peer (its nic id + control QP number).
  void connect(verbs::NicId peer_nic, verbs::QpNumber peer_qp);

  /// Send one datagram (<= MTU) to the connected peer.
  void send(const std::uint8_t* data, std::size_t length);

  using ReceiveFn = std::function<void(const std::uint8_t*, std::size_t)>;

  /// Incoming datagrams are delivered here (payload copied out).
  void set_receiver(ReceiveFn fn) { on_receive_ = std::move(fn); }

  /// The currently installed receiver — lets a composition layer wrap an
  /// already-installed protocol handler with a dispatcher.
  ReceiveFn receiver() const { return on_receive_; }

  std::uint64_t sent() const { return sent_; }
  std::uint64_t received() const { return received_; }

 private:
  void drain();

  verbs::Nic& nic_;
  std::unique_ptr<verbs::CompletionQueue> cq_;
  verbs::Qp* qp_{nullptr};
  verbs::NicId peer_nic_{0};
  verbs::QpNumber peer_qp_{0};
  // Receive buffers: one flat allocation, buffer i at [i * buffer_bytes_].
  std::vector<std::uint8_t> buffers_;
  std::size_t buffer_bytes_{0};
  ReceiveFn on_receive_;
  std::uint64_t sent_{0};
  std::uint64_t received_{0};
};

}  // namespace sdr::reliability
