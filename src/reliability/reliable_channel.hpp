// ReliableChannel: a unidirectional reliable Write pipe between two NICs,
// bundling the full two-connection design of paper §4.1 — an SDR data-path
// QP pair plus a UD control-path link — under a chosen reliability scheme.
// This is the composition layer examples and the executable collectives use.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "common/status.hpp"
#include "ec/codec.hpp"
#include "reliability/ec_protocol.hpp"
#include "reliability/profile.hpp"
#include "reliability/sr_protocol.hpp"
#include "sdr/sdr.hpp"
#include "sim/simulator.hpp"
#include "verbs/control_link.hpp"

namespace sdr::reliability {

class ReliableChannel {
 public:
  enum class Kind { kSrRto, kSrNack, kEcMds, kEcXor };

  struct Options {
    Kind kind{Kind::kSrRto};
    LinkProfile profile{};
    core::QpAttr attr{};
    SrProtoConfig sr{};
    EcProtoConfig ec{};

    /// Eager small-message path (the §4.1 rendezvous-vs-eager freedom,
    /// citing [43]): messages up to this many bytes ride the control-path
    /// datagram directly, skipping the SDR CTS round trip. 0 disables.
    /// Bounded by the control datagram size (~4000 B of payload). Lost
    /// datagrams are retransmitted like SR chunks, under `sr`'s RTO policy.
    std::size_t eager_threshold_bytes{0};

    /// Derive protocol timeouts from the link profile (RTO = 3 RTT for the
    /// RTO scheme and EC's fallback, 1.5 RTT with NACK; paper §5.1.1).
    void derive_timeouts();
  };

  using DoneFn = std::function<void(const Status&)>;

  /// `src` and `dst` NICs must already be routed to each other through
  /// simulator channels.
  ReliableChannel(sim::Simulator& simulator, verbs::Nic& src, verbs::Nic& dst,
                  Options options);
  ~ReliableChannel();
  ReliableChannel(const ReliableChannel&) = delete;
  ReliableChannel& operator=(const ReliableChannel&) = delete;

  /// Reliable Write of [data, data+length). Buffer must outlive `done`.
  Status send(const std::uint8_t* data, std::size_t length, DoneFn done);

  /// Post the matching receive. For EC kinds, `length` must be a whole
  /// number of submessages.
  Status recv(std::uint8_t* buffer, std::size_t length, DoneFn done);

  /// Mid-flight RTO perturbation: forwards to SrSender::set_static_rto.
  /// No effect on the EC kinds.
  void set_static_rto(double rto_s);

  const Options& options() const { return options_; }
  std::uint64_t retransmissions() const;
  std::uint64_t eager_messages() const { return eager_completed_; }

 private:
  const verbs::MemoryRegion* recv_mr(std::uint8_t* buffer, std::size_t length);

  // ---- eager small-message path ----
  Status eager_send(const std::uint8_t* data, std::size_t length,
                    DoneFn done);
  Status eager_recv(std::uint8_t* buffer, std::size_t length, DoneFn done);
  void eager_transmit(std::uint64_t id,
                      const std::vector<std::uint8_t>& payload);
  void on_src_control(const std::uint8_t* data, std::size_t length);
  void on_dst_control(const std::uint8_t* data, std::size_t length);

  struct EagerSend {
    std::vector<std::uint8_t> payload;
    DoneFn done;
    Retransmitter::Stream stream;  // one chunk: the datagram
  };
  struct EagerRecv {
    std::uint8_t* buffer{nullptr};
    std::size_t length{0};
    DoneFn done;
  };
  std::uint64_t eager_send_seq_{0};
  std::uint64_t eager_recv_seq_{0};
  std::uint64_t eager_completed_{0};
  std::map<std::uint64_t, EagerSend> eager_sends_;
  std::map<std::uint64_t, EagerRecv> eager_recvs_;
  std::map<std::uint64_t, std::vector<std::uint8_t>> eager_stash_;
  // Reused eager encode scratch (same pattern as Sr/EcReceiver), and the
  // decode scratch for both control links. They are separate because
  // on_dst_control encodes the eager ACK while the decoded data is live.
  ControlMessage ctrl_scratch_;
  std::vector<std::uint8_t> wire_scratch_;
  ControlMessage decode_scratch_;
  verbs::ControlLink::ReceiveFn protocol_src_handler_;

  sim::Simulator& sim_;
  Options options_;
  Retransmitter eager_retx_;  // keyed by eager message id
  std::unique_ptr<core::Context> src_ctx_;
  std::unique_ptr<core::Context> dst_ctx_;
  core::Qp* src_qp_{nullptr};
  core::Qp* dst_qp_{nullptr};
  // Sender side (receives ACKs) and receiver side (sends ACKs).
  std::unique_ptr<verbs::ControlLink> src_control_;
  std::unique_ptr<verbs::ControlLink> dst_control_;
  std::unique_ptr<ec::ErasureCodec> codec_;
  std::unique_ptr<SrSender> sr_sender_;
  std::unique_ptr<SrReceiver> sr_receiver_;
  std::unique_ptr<EcSender> ec_sender_;
  std::unique_ptr<EcReceiver> ec_receiver_;
  // Receive registrations, each reused by every later receive inside it:
  // the collective re-posts the same buffers each step, and every fleet
  // receive is a prefix of one sink.
  std::vector<const verbs::MemoryRegion*> recv_mrs_;
};

}  // namespace sdr::reliability
