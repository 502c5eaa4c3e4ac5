// Control-path connection for reliability protocols (paper §4.1): a UD
// queue pair dedicated to ACK/NACK datagrams, kept separate from the SDR
// data path.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>

#include "verbs/cq.hpp"
#include "verbs/nic.hpp"

namespace sdr::reliability {

class ControlLink {
 public:
  /// Creates a UD QP on `nic` with a few pre-posted 4 KiB datagram
  /// buffers. A few suffice at any load: the CQ notify drains inline, so
  /// each datagram is consumed and its buffer re-posted before the next
  /// delivery can reach the QP, and at most one buffer is ever in use.
  /// Lifetime: the link owns a QP inside `nic` and unregisters it on
  /// destruction — the NIC must outlive the ControlLink.
  explicit ControlLink(verbs::Nic& nic);
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
  // Receive buffers: one flat allocation, buffer i at [i * kBufferBytes].
  // Never zero-filled: a handler reads only the bytes a datagram wrote.
  std::unique_ptr<std::uint8_t[]> buffers_;
  ReceiveFn on_receive_;
  std::uint64_t sent_{0};
  std::uint64_t received_{0};
};

}  // namespace sdr::reliability
