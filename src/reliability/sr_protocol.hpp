// Executable Selective Repeat reliability over the SDR API (paper §4.1.1).
//
// Sender: streams message chunks through SDR streaming sends; every chunk
// carries a retransmission timeout RTO = RTT + alpha*RTT; expired chunks are
// re-injected with send_stream_continue (the retransmission use case the
// streaming API exists for). ACKs remove acknowledged chunks from the
// retransmission queue.
//
// Receiver: reacts to chunk-bitmap completions (the event-driven analog of
// polling the SDR bitmap). Each receive holds one timer. Until the first
// chunk lands it is the CTS retry: the CTS is one unreliable datagram, and
// a sender that never gets it never injects, so the receiver re-sends it
// after LinkProfile::cts_retry_interval_s() and then at doubling intervals
// (the shared backed_off_s). From the first chunk to completion it is the
// ACK tick: every ack_interval_s an ACK encodes the bitmap as a cumulative
// ACK plus a selective window, so no ACK goes out before data does. The
// final ACK goes once; a copy of the message landing an RTT or more later
// means it was lost, and is answered with it again. With NACK enabled, gaps
// observed in the bitmap trigger immediate negative acknowledgments,
// cutting drop recovery to ~1 RTT.
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "common/status.hpp"
#include "reliability/ack_codec.hpp"
#include "reliability/profile.hpp"
#include "reliability/selective_repeat.hpp"
#include "sdr/sdr.hpp"
#include "sim/simulator.hpp"
#include "telemetry/telemetry.hpp"
#include "verbs/control_link.hpp"

namespace sdr::reliability {

struct SrSenderStats {
  std::uint64_t messages{0};
  std::uint64_t chunks_sent{0};
  std::uint64_t retransmissions{0};
  std::uint64_t acks_received{0};
  std::uint64_t nacks_received{0};
};

class SrSender {
 public:
  using DoneFn = std::function<void(const Status&)>;

  /// The control link must already be connected to the receiver's link and
  /// is consumed exclusively by this sender (its receive callback is set).
  SrSender(sim::Simulator& simulator, core::Qp& qp,
           verbs::ControlLink& control, const LinkProfile& profile,
           SrProtoConfig config);

  /// Reliably deliver [data, data+length) into the receiver's next posted
  /// buffer. Buffer must stay alive until `done` fires.
  Status write(const std::uint8_t* data, std::size_t length, DoneFn done);

  /// Mid-flight RTO perturbation (used by the tuner and the conformance
  /// harness): replaces the static RTO for timers armed from now on.
  /// Already-armed chunk timers keep their old deadline — exactly the race
  /// the harness wants to explore. No effect while adaptive_rto is on.
  void set_static_rto(double rto_s) { retx_.set_static_rto(rto_s); }

  const SrSenderStats& stats() const { return stats_; }
  const RttEstimator& rtt_estimator() const { return retx_.estimator(); }

 private:
  struct MsgState {
    core::SendHandle* handle{nullptr};
    const std::uint8_t* data{nullptr};
    std::size_t length{0};
    Retransmitter::Stream stream;  // one entry per chunk
    double write_at_s{-1.0};  // write() sim time (completion latency)
    DoneFn done;
  };

  void register_metrics();
  /// Put one chunk on the wire; false if the core refused it.
  bool inject(MsgState& msg, std::size_t chunk, bool retransmission);
  bool resend(std::uint64_t msg_number, std::size_t chunk, bool expired);
  void on_control(const std::uint8_t* data, std::size_t length);
  void finish(std::uint64_t msg_number);

  sim::Simulator& sim_;
  core::Qp& qp_;
  verbs::ControlLink& control_;
  std::size_t chunk_bytes_;
  std::unordered_map<std::uint64_t, MsgState> messages_;
  /// Finished-message state kept for reuse: the map node and the per-chunk
  /// vectors inside it retain their capacity, so a steady stream of
  /// messages allocates nothing after the first (lossy SR is part of the
  /// zero-alloc datapath gate).
  std::unordered_map<std::uint64_t, MsgState>::node_type spare_;
  /// Decode scratch: reused per control message, capacity sticks.
  ControlMessage ctrl_scratch_;
  Retransmitter retx_;
  SrSenderStats stats_;
  telemetry::HistogramHandle rtt_hist_;  // Karn RTT samples
  // Tail-latency rollups: write() -> chunk acked / message finished.
  telemetry::HistogramHandle chunk_completion_hist_;
  telemetry::HistogramHandle msg_completion_hist_;
  telemetry::Scope tele_;  // last member: unbinds before stats_ dies
};

struct SrReceiverStats {
  std::uint64_t messages{0};
  std::uint64_t acks_sent{0};
  std::uint64_t nacks_sent{0};
};

class SrReceiver {
 public:
  using DoneFn = std::function<void(const Status&)>;

  SrReceiver(sim::Simulator& simulator, core::Qp& qp,
             verbs::ControlLink& control, const LinkProfile& profile,
             SrProtoConfig config);

  /// Post a buffer for the next incoming message. Fires `done` after the
  /// message is fully received and recv_complete has been issued.
  Status expect(std::uint8_t* buffer, std::size_t length,
                const verbs::MemoryRegion* mr, DoneFn done);

  const SrReceiverStats& stats() const { return stats_; }

 private:
  struct MsgState {
    core::RecvHandle* handle{nullptr};
    std::size_t chunks{0};
    DoneFn done;
    /// Per-chunk NACK suppression; filled only with NACKs enabled.
    std::vector<double> last_nack_s;
    /// The CTS retry until the first chunk event, then the ACK tick;
    /// completion cancels it.
    sim::EventId timer{};
    unsigned cts_retries{0};  // CTS re-sends so far (the retry's backoff)
    bool data_seen{false};    // a chunk event fired: the timer ACKs
  };

  void register_metrics();
  void on_chunk_event(const core::RecvEvent& event);
  void send_ack(MsgState& msg);
  void maybe_nack(MsgState& msg, std::size_t completed_chunk);
  void arm_timer(MsgState& msg, std::uint64_t msg_number);
  void on_timer(std::uint64_t msg_number);
  void complete(MsgState& msg, std::uint64_t msg_number);
  void send_final_ack(std::uint64_t msg_number, std::size_t chunks);

  sim::Simulator& sim_;
  core::Qp& qp_;
  verbs::ControlLink& control_;
  LinkProfile profile_;
  SrProtoConfig config_;
  std::unordered_map<std::uint64_t, MsgState> messages_;
  /// Completed-message node kept for reuse (see SrSender::spare_).
  std::unordered_map<std::uint64_t, MsgState>::node_type spare_;
  /// ACK/NACK build + wire scratch: reused per control send so the
  /// steady-state ACK path allocates nothing.
  ControlMessage ctrl_scratch_;
  std::vector<std::uint8_t> wire_scratch_;
  SrReceiverStats stats_;
  telemetry::Scope tele_;  // last member: unbinds before stats_ dies
};

}  // namespace sdr::reliability
