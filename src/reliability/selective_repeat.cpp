#include "reliability/selective_repeat.hpp"

#include "common/failpoint.hpp"

namespace sdr::reliability {

Retransmitter::Retransmitter(sim::Simulator& simulator,
                             const SrProtoConfig& config,
                             const LinkProfile& profile,
                             telemetry::ProfCategory category,
                             ResendFn resend)
    : sim_(simulator),
      rto_s_(config.rto_s),
      adaptive_(config.adaptive_rto),
      // The static RTO seeds the estimator. Principled floor: an
      // acknowledgment can never return faster than the round trip plus
      // the receiver's ACK cadence; an RTO below that would guarantee
      // spurious retransmission storms.
      estimator_({.min_rto_s = profile.rtt_s + 2.0 * config.ack_interval_s,
                  .initial_rto_s = config.rto_s}),
      category_(category),
      resend_(std::move(resend)) {}

void Retransmitter::start(Stream& s, std::uint64_t key) {
  s.cts_at_s = sim_.now().seconds();
  for (std::size_t c = 0; c < s.chunks.size(); ++c) {
    if (!s.chunks[c].acked && !s.chunks[c].timer.valid()) arm(s, key, c);
  }
}

void Retransmitter::retransmit(Stream& s, std::uint64_t key,
                               std::size_t chunk) {
  if (chunk >= s.chunks.size() || s.chunks[chunk].acked) return;
  if (s.chunks[chunk].timer.valid()) sim_.cancel(s.chunks[chunk].timer);
  resend(s, key, chunk, /*expired=*/false);
}

bool Retransmitter::ack_chunk(Stream& s, std::size_t chunk,
                              double& sample_s) {
  Chunk& c = s.chunks[chunk];
  if (c.acked) return false;
  c.acked = true;
  ++s.acked_count;
  if (c.timer.valid()) {
    sim_.cancel(c.timer);
    c.timer = {};
  }
  sample_s = -1.0;
  if (c.retries == 0 && s.cts_at_s >= 0.0) {
    sample_s = sim_.now().seconds() - s.cts_at_s;
    if (adaptive_) estimator_.update(sample_s);
  }
  return true;
}

void Retransmitter::cancel(Stream& s) {
  for (Chunk& c : s.chunks) {
    if (c.timer.valid()) sim_.cancel(c.timer);
    c.timer = {};
  }
}

void Retransmitter::arm(Stream& s, std::uint64_t key, std::size_t chunk) {
  const double jitter = 1.0 + 0.25 * rng_.next_double();
  s.chunks[chunk].timer = sim_.schedule(
      SimTime::from_seconds(backed_off_s(rto_s(), s.chunks[chunk].retries) *
                            jitter),
      [this, stream = &s, key, chunk] {
        telemetry::ProfScope prof(category_);
        resend(*stream, key, chunk, /*expired=*/true);
      });
}

void Retransmitter::resend(Stream& s, std::uint64_t key, std::size_t chunk,
                           bool expired) {
  if (resend_(key, chunk, expired) && s.chunks[chunk].retries < 8) {
    ++s.chunks[chunk].retries;
  }
  arm(s, key, chunk);
}

void build_ack(ControlMessage& ack, std::uint64_t msg_number,
               const AtomicBitmap& bitmap, std::size_t chunks) {
  reset_control(ack, ControlType::kSrAck, msg_number);
  std::size_t cumulative = bitmap.first_zero(chunks);
  // Failpoint for the conformance harness (src/check/): claim one chunk
  // beyond the true cumulative point, silently "acknowledging" the first
  // missing chunk — the classic off-by-one a bitmap ACK encoder can make.
  if (SDR_FAILPOINT("sr.ack_cumulative_off_by_one") && cumulative < chunks) {
    ++cumulative;
  }
  ack.cumulative = static_cast<std::uint32_t>(cumulative);
  // Selective window: 64-bit words from the cumulative point on. "As much
  // as fits in the ACK payload" (paper §4.1.1): 64 words cover 4096 chunks
  // (512 B on the wire). Undersizing the window makes the sender spuriously
  // retransmit received-but-unacknowledged chunks.
  constexpr std::size_t kSelectiveWindowWords = 64;
  const std::size_t base_word = cumulative / 64;
  ack.selective_base = static_cast<std::uint32_t>(base_word * 64);
  ack.selective.reserve(kSelectiveWindowWords);
  for (std::size_t w = 0; w < kSelectiveWindowWords; ++w) {
    const std::size_t wi = base_word + w;
    if (wi >= bitmap_words(chunks)) break;
    ack.selective.push_back(bitmap.load_word(wi));
  }
}

void reap(sim::Simulator& simulator, core::Qp& qp, core::SendHandle* handle) {
  if (qp.send_poll(handle).code() == StatusCode::kNotReady) {
    simulator.schedule(SimTime::from_micros(10), [&simulator, &qp, handle] {
      reap(simulator, qp, handle);
    });
  }
}

}  // namespace sdr::reliability
