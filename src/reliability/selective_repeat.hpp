// Selective Repeat, written once (paper §4.1.1): the per-chunk
// retransmitter of SrSender, EcSender's fallback (§4.1.2: NACKed
// submessages "switch to Selective Repeat") and the eager path, and the
// ACK builder of SrReceiver and EcReceiver's fallback.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/bitmap.hpp"
#include "common/rng.hpp"
#include "reliability/ack_codec.hpp"
#include "reliability/profile.hpp"
#include "reliability/rtt_estimator.hpp"
#include "sdr/sdr.hpp"
#include "sim/simulator.hpp"
#include "telemetry/profiler.hpp"

namespace sdr::reliability {

struct SrProtoConfig {
  /// Chunk retransmission timeout. The paper sets RTO = RTT + alpha*RTT;
  /// the "SR RTO" evaluation scenario corresponds to 3 RTT.
  double rto_s{0.075};
  /// Receiver ACK cadence while data flows: from a message's first chunk
  /// event to its completion.
  double ack_interval_s{0.005};
  /// Enable receiver-side NACKs on bitmap gaps. The receiver NACKs a hole
  /// at most once per LinkProfile::rtt_s.
  bool nack_enabled{false};
  /// Adaptive RTO (paper §4.1.1 "RTO tuning"): estimate the RTO from
  /// per-chunk acknowledgment RTT samples (RFC 6298 / Karn) instead of
  /// using the static rto_s. rto_s still seeds the initial timeout.
  bool adaptive_rto{false};
};

/// The shared backoff: `base_s` doubled once per round, up to 16x. The
/// Retransmitter's chunk timers, SrReceiver's CTS retry and both EC ends'
/// silence clocks all wait this long.
inline double backed_off_s(double base_s, unsigned rounds) {
  return base_s * static_cast<double>(1u << std::min(rounds, 4u));
}

/// Per-chunk retransmission for the streams of one sender: SR messages, EC
/// submessages in fallback or eager datagrams. The owner keeps each stream,
/// injects its chunks and reports their ACKs; the retransmitter times them.
/// The RTO is config.rto_s, or with config.adaptive_rto an RttEstimator fed
/// Karn samples: chunks acked on their first transmission, measured from
/// the CTS, which every first transmission is queued behind. Each
/// retransmission doubles a chunk's timeout (backed_off_s), and each arming
/// adds up to 25 % jitter from the retransmitter's own Rng, so the RTOs of
/// one burst's losses do not expire together and tail-drop the
/// retransmission storm. A timer points at its stream: a stream must not
/// move or die until every chunk is acked or cancel() ran.
class Retransmitter {
 public:
  struct Chunk {
    sim::EventId timer{};
    std::uint8_t retries{0};  // capped at 8; Karn skips a retried chunk
    bool acked{false};
  };
  struct Stream {
    std::vector<Chunk> chunks;  // empty: not open
    std::size_t acked_count{0};
    double cts_at_s{-1.0};  // when start() ran: injection could begin

    void reset(std::size_t n) {
      chunks.assign(n, Chunk{});
      acked_count = 0;
      cts_at_s = -1.0;
    }
    bool complete() const { return acked_count == chunks.size(); }
  };

  /// Puts chunk `chunk` of the owner's stream `key` back on the wire;
  /// `expired` tells a timeout from a NACK. Returns whether it was injected.
  using ResendFn =
      std::function<bool(std::uint64_t key, std::size_t chunk, bool expired)>;

  /// Timer firings are profiled under `category`.
  Retransmitter(sim::Simulator& simulator, const SrProtoConfig& config,
                const LinkProfile& profile, telemetry::ProfCategory category,
                ResendFn resend);
  Retransmitter(const Retransmitter&) = delete;  // armed timers point here
  Retransmitter& operator=(const Retransmitter&) = delete;

  /// Injection began (the CTS arrived): time every unacked chunk that has
  /// no timer yet.
  void start(Stream& s, std::uint64_t key);
  /// Resend a chunk now (a NACK listed it) and re-time it; a chunk past
  /// the stream or already acked is ignored.
  void retransmit(Stream& s, std::uint64_t key, std::size_t chunk);
  /// Acknowledge one chunk and disarm its timer. False if it already was;
  /// else `sample_s` is its RTT sample, negative when Karn excludes it.
  bool ack_chunk(Stream& s, std::size_t chunk, double& sample_s);
  /// Acknowledge the chunks an ACK's cumulative point and selective window
  /// cover, calling on_acked(chunk, sample_s) for each newly acked one.
  template <typename OnAcked>
  void apply_ack(Stream& s, const ControlMessage& ack, OnAcked&& on_acked) {
    const std::size_t n = s.chunks.size();
    double sample_s = 0.0;
    const auto mark = [&](std::size_t chunk) {
      if (ack_chunk(s, chunk, sample_s)) on_acked(chunk, sample_s);
    };
    const std::size_t cumulative = std::min<std::size_t>(ack.cumulative, n);
    for (std::size_t c = 0; c < cumulative; ++c) mark(c);
    // Word scan over the selective window: countr_zero jumps straight to the
    // next set bit; clearing it with `word & (word - 1)` makes the loop cost
    // proportional to acked chunks, not window width.
    for (std::size_t w = 0; w < ack.selective.size(); ++w) {
      std::uint64_t word = ack.selective[w];
      const std::size_t base = ack.selective_base + w * 64;
      while (word != 0) {
        const std::size_t chunk =
            base + static_cast<std::size_t>(std::countr_zero(word));
        word &= word - 1;
        if (chunk < n) mark(chunk);
      }
    }
  }
  /// Disarm every timer of `s`.
  void cancel(Stream& s);

  /// Replaces the static RTO for timers armed from now on. Armed timers
  /// keep their deadline. No effect while the RTO is adaptive.
  void set_static_rto(double rto_s) { rto_s_ = rto_s; }
  double rto_s() const { return adaptive_ ? estimator_.rto_s() : rto_s_; }
  const RttEstimator& estimator() const { return estimator_; }

 private:
  void arm(Stream& s, std::uint64_t key, std::size_t chunk);
  void resend(Stream& s, std::uint64_t key, std::size_t chunk, bool expired);

  sim::Simulator& sim_;
  double rto_s_;
  bool adaptive_;
  RttEstimator estimator_;
  Rng rng_{0x5EEDCAFE};  // timer jitter
  telemetry::ProfCategory category_;
  ResendFn resend_;
};

/// Reset `ack` to the SR ACK of message `msg_number` whose receive bitmap
/// covers `chunks` chunks: the cumulative point (the first missing chunk)
/// and a selective window of bitmap words from its word on.
void build_ack(ControlMessage& ack, std::uint64_t msg_number,
               const AtomicBitmap& bitmap, std::size_t chunks);

/// Poll a finished send until the backend confirms its injection completed
/// and the core recycles it; lazy polling keeps it off the ACK path.
void reap(sim::Simulator& simulator, core::Qp& qp, core::SendHandle* handle);

}  // namespace sdr::reliability
