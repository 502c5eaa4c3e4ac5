// Executable erasure-coding reliability over the SDR API (paper §4.1.2).
//
// Sender: splits the message into L data submessages of k chunks, encodes m
// parity chunks per submessage, and injects data (streaming sends, kept open
// so the fallback path can retransmit into the same buffers) followed by
// parity (one-shot sends — parity is never retransmitted). On a positive
// ACK the buffers are released; on an EC NACK the listed submessages switch
// to Selective Repeat: each becomes a stream of the SR Retransmitter. Each
// message holds the receiver's silence clock plus the NACK's trip back: a
// silent round re-sends one data chunk (a finished receiver answers it with
// its ACK), and the round after 16 silent ones aborts the message.
//
// Receiver: posts L data receive buffers (regions of the application buffer
// — zero copy) and L parity scratch buffers. Chunk-bitmap events drive
// decodability checks; once every submessage is recoverable the missing
// data chunks are EC-decoded in place and one positive ACK is sent; a late
// copy of its data (an RTT or more after) is answered with it again. The
// fallback timeout FTO = (M + M/R)*T_INJ + beta*RTT, armed at posting with
// 2 RTT of handshake slack, is the receiver's one per-message timer, for
// re-asking and giving up. Each round re-sends the CTS of every stream that
// has produced no packets (each submessage stream rides its own CTS
// datagram), sends an EC NACK listing the unrecovered submessages, and
// re-arms, doubling the wait (the shared backed_off_s) for every round
// since the last chunk event. The round after 16 silent ones aborts the
// message: the paper's deadlock guard, measured in silence rather than age.
// Fallback ACKs answer data: once a message is in fallback, each chunk
// event of an unrecovered data submessage sends that submessage's bitmap
// ACK, and its recovery sends the ACK that stops its retransmission.
//
// Both sides do per-message work only when something happens (a write, a
// chunk event, a control message, a timer) and allocate nothing per message
// in steady state: finished messages' state nodes are recycled with their
// buffers, a message's submessages are consecutive core messages whose
// handles the core holds, and submessage -> message lookups index a flat
// array by the core message-table slot.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/status.hpp"
#include "ec/codec.hpp"
#include "reliability/ack_codec.hpp"
#include "reliability/profile.hpp"
#include "reliability/selective_repeat.hpp"
#include "sdr/sdr.hpp"
#include "sim/simulator.hpp"
#include "telemetry/telemetry.hpp"
#include "verbs/control_link.hpp"

namespace sdr::reliability {

struct EcProtoConfig {
  std::size_t k{32};
  std::size_t m{8};
  /// FTO slack beyond injection, in RTTs (paper's beta = 0.5 alpha).
  double beta{0.5};
};

struct EcSenderStats {
  std::uint64_t messages{0};
  std::uint64_t data_chunks_sent{0};
  std::uint64_t parity_chunks_sent{0};
  std::uint64_t fallback_retransmissions{0};
  std::uint64_t ec_nacks{0};
};

class EcSender {
 public:
  using DoneFn = std::function<void(const Status&)>;

  /// The fallback retransmits under `sr`'s RTO policy; the receiver
  /// answers each fallback chunk that lands with an ACK.
  EcSender(sim::Simulator& simulator, core::Qp& qp,
           verbs::ControlLink& control, const LinkProfile& profile,
           const ec::ErasureCodec& codec, EcProtoConfig config,
           const SrProtoConfig& sr);

  /// Message length must be a whole number of submessages
  /// (k * chunk_size); callers pad to this granularity.
  Status write(const std::uint8_t* data, std::size_t length, DoneFn done);

  const EcSenderStats& stats() const { return stats_; }

 private:
  struct MsgState {
    const std::uint8_t* data{nullptr};
    std::size_t length{0};
    std::size_t submessages{0};
    /// Its sends are core messages base, base + 1, ...: the data streams
    /// (kept open), then the one-shot parity sends (held to finish). The
    /// core holds their handles; `posts` counts the sends that started.
    std::uint64_t base{0};
    std::size_t posts{0};
    std::vector<std::uint8_t> parity;  // encoded parity buffer
    /// Fallback Selective Repeat: one stream per data submessage, opened
    /// by the NACK that first lists it and closed by finish(). The
    /// message's first EC NACK sizes the vector, before any of its streams
    /// is armed (a timer points at its stream). A recycled node may hold
    /// more than `submessages` entries, or fewer before that NACK; only
    /// the first `submessages` are live.
    std::vector<Retransmitter::Stream> fallback;
    double write_at_s{-1.0};  // write() sim time (completion latency)
    sim::EventId timer{};       // the silence clock
    unsigned silent_rounds{0};  // its rounds since one heard the receiver
    bool heard{false};  // an EC NACK or fallback ACK came this round
    DoneFn done;
  };

  void register_metrics();
  void on_control(const std::uint8_t* data, std::size_t length);
  void enter_fallback(MsgState& msg, std::uint64_t base,
                      const std::vector<std::uint32_t>& failed);
  /// The live message whose data submessage is `number`, and its index.
  MsgState* message_of(std::uint64_t number, std::size_t& sub);
  bool resend(std::uint64_t number, std::size_t chunk);
  void arm_timer(MsgState& msg, std::uint64_t base);
  void on_timer(std::uint64_t base);
  /// Disarm every timer of the message, release its sends, fire `done`.
  void finish(std::uint64_t base, const Status& status);
  /// Hand every send of `msg` back to the core, in post order: abort the
  /// CTS-less ones, end the data streams, reap.
  void release_handles(const MsgState& msg);

  using MsgMap = std::unordered_map<std::uint64_t, MsgState>;

  sim::Simulator& sim_;
  core::Qp& qp_;
  verbs::ControlLink& control_;
  LinkProfile profile_;
  const ec::ErasureCodec& codec_;
  EcProtoConfig config_;
  std::size_t chunk_bytes_;
  // Keyed by the base (first data submessage) SDR message number.
  MsgMap messages_;
  /// Finished-message nodes kept for reuse, with the capacity of every
  /// buffer inside them. A list, not one spare: up to a window of messages
  /// finish back to back.
  std::vector<MsgMap::node_type> free_;
  /// Data submessage -> base, one entry per message-table slot (fallback
  /// ACK routing). Entries are never cleared: a lookup checks that the
  /// message number falls inside the base's live message.
  std::vector<std::uint64_t> sub_base_;
  // Encode block-pointer scratch (k data, m parity).
  std::vector<const std::uint8_t*> data_blocks_;
  std::vector<std::uint8_t*> parity_blocks_;
  /// Decode scratch: reused per control message, capacity sticks.
  ControlMessage ctrl_scratch_;
  Retransmitter retx_;  // keyed by the data submessage's message number
  EcSenderStats stats_;
  // Tail-latency rollup: write() -> positive EC ACK.
  telemetry::HistogramHandle msg_completion_hist_;
  telemetry::Scope tele_;  // last member: unbinds before stats_ dies
};

struct EcReceiverStats {
  std::uint64_t messages{0};
  std::uint64_t decoded_submessages{0};   // recovered via parity
  std::uint64_t clean_submessages{0};     // all data chunks arrived
  std::uint64_t fallback_submessages{0};  // needed SR retransmission
  std::uint64_t ec_nacks_sent{0};
  std::uint64_t ftos_fired{0};
};

class EcReceiver {
 public:
  using DoneFn = std::function<void(const Status&)>;

  EcReceiver(sim::Simulator& simulator, core::Qp& qp,
             verbs::ControlLink& control, const LinkProfile& profile,
             const ec::ErasureCodec& codec, EcProtoConfig config);
  /// Completes the receives of messages still in flight, then deregisters
  /// every parity scratch MR. The Qp's context must still be alive.
  ~EcReceiver();
  EcReceiver(const EcReceiver&) = delete;
  EcReceiver& operator=(const EcReceiver&) = delete;

  /// Post `buffer` for the next incoming EC message. Length must be a whole
  /// number of submessages. Fires `done` once all data chunks are present
  /// or recovered (and all receives completed).
  Status expect(std::uint8_t* buffer, std::size_t length,
                const verbs::MemoryRegion* mr, DoneFn done);

  const EcReceiverStats& stats() const { return stats_; }

 private:
  struct MsgState {
    std::uint8_t* buffer{nullptr};
    std::size_t length{0};
    std::size_t submessages{0};
    /// Its receives are core messages base, base + 1, ...: data, then
    /// parity. The core holds their handles; `posts` counts the receives
    /// posted.
    std::uint64_t base{0};
    std::size_t posts{0};
    /// Registered once per buffer, as parity_mr.
    std::vector<std::uint8_t> parity_scratch;
    const verbs::MemoryRegion* parity_mr{nullptr};
    std::size_t subs_recovered{0};
    double posted_at_s{-1.0};  // expect() sim time (completion latency)
    bool fallback{false};
    /// FTO rounds since the last chunk event: the FTO's backoff, and the
    /// deadlock guard's count.
    unsigned silent_rounds{0};
    sim::EventId fto_timer{};
    DoneFn done;
  };

  using MsgMap = std::unordered_map<std::uint64_t, MsgState>;

  void register_metrics();
  void on_chunk_event(const core::RecvEvent& event);
  /// Whether submessage `sub` is complete, decoding it in place if its
  /// data chunks are not all there.
  bool recover(MsgState& msg, std::size_t sub);
  void arm_fto(MsgState& msg, std::uint64_t base);
  void on_fto(std::uint64_t base);
  /// Answer a data chunk of unrecovered submessage `sub` with its bitmap.
  void send_fallback_ack(const MsgState& msg, std::size_t sub);
  void complete(MsgMap::iterator it);
  /// Completion's and abort's teardown: disarm the FTO, complete the
  /// receives and unmap those never to be answered, recycle, fire `done`.
  void release(MsgMap::iterator it, const Status& status);
  /// recv_complete every receive of `msg`: its slots rebind to the NULL
  /// key, so nothing is bound to its parity scratch any more.
  void complete_receives(const MsgState& msg);
  void send_ec_ack(std::uint64_t base);

  sim::Simulator& sim_;
  core::Qp& qp_;
  verbs::ControlLink& control_;
  LinkProfile profile_;
  const ec::ErasureCodec& codec_;
  EcProtoConfig config_;
  std::size_t chunk_bytes_;
  MsgMap messages_;
  /// Completed-message nodes kept for reuse (see EcSender::free_).
  std::vector<MsgMap::node_type> free_;
  /// Data or parity submessage -> base, one entry per message-table slot,
  /// checked against the live message on lookup.
  std::vector<std::uint64_t> handle_base_;
  /// Per data submessage, at its receive's slot; reset when it is posted.
  struct SubState {
    bool recovered{false};
    /// Counted in fallback_submessages: refired NACKs re-list it on the
    /// wire but must not count it again.
    bool nacked{false};
  };
  std::vector<SubState> subs_;
  // Recoverability/decode scratch: presence of the k + m blocks of the
  // submessage under test, and their addresses.
  ec::PresenceMap present_;
  std::vector<std::uint8_t*> decode_blocks_;
  // Reused ACK/NACK encode scratch (same pattern as SrReceiver): the
  // control path allocates nothing in steady state.
  ControlMessage ctrl_scratch_;
  std::vector<std::uint8_t> wire_scratch_;
  EcReceiverStats stats_;
  // Tail-latency rollups: expect() -> submessage recovered / message done.
  telemetry::HistogramHandle chunk_completion_hist_;
  telemetry::HistogramHandle msg_completion_hist_;
  telemetry::Scope tele_;  // last member: unbinds before stats_ dies
};

}  // namespace sdr::reliability
