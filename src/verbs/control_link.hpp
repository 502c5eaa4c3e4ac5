// Control-path endpoint: a UD queue pair for small datagrams, kept apart
// from the SDR data path. The SDR core's clear-to-send (paper §3.2.3) and
// the reliability protocols' ACK/NACK messages (§4.1) each ride one.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>

#include "verbs/cq.hpp"
#include "verbs/nic.hpp"

namespace sdr::verbs {

class ControlLink {
 public:
  /// Creates a UD QP on `nic` with one pre-posted 4 KiB datagram buffer.
  /// One suffices at any load: the CQ notify drains inline, so each
  /// datagram is handed over and the buffer re-posted before the next
  /// delivery can reach the QP.
  /// Lifetime: the link owns a QP inside `nic` and unregisters it on
  /// destruction — the NIC must outlive the ControlLink.
  explicit ControlLink(Nic& nic);
  ~ControlLink();
  ControlLink(const ControlLink&) = delete;
  ControlLink& operator=(const ControlLink&) = delete;

  QpNumber qp_number() const;

  /// Address the peer (its nic id + control QP number).
  void connect(NicId peer_nic, QpNumber peer_qp);

  /// Send one datagram (<= MTU) to the connected peer.
  void send(const std::uint8_t* data, std::size_t length);

  using ReceiveFn = std::function<void(const std::uint8_t*, std::size_t)>;

  /// Incoming datagrams are delivered here. The bytes are valid only for
  /// the duration of the call.
  void set_receiver(ReceiveFn fn) { on_receive_ = std::move(fn); }

  /// The currently installed receiver — lets a composition layer wrap an
  /// already-installed protocol handler with a dispatcher.
  ReceiveFn receiver() const { return on_receive_; }

  std::uint64_t sent() const { return sent_; }
  std::uint64_t received() const { return received_; }

 private:
  void drain();

  Nic& nic_;
  CompletionQueue cq_;
  Qp* qp_{nullptr};
  NicId peer_nic_{0};
  QpNumber peer_qp_{0};
  // The receive buffer. Never zero-filled: a handler reads only the bytes
  // a datagram wrote.
  std::unique_ptr<std::uint8_t[]> buffer_;
  ReceiveFn on_receive_;
  std::uint64_t sent_{0};
  std::uint64_t received_{0};
};

}  // namespace sdr::verbs
