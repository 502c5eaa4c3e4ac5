// Packet drop models for the long-haul channel.
//
// The paper's measurements (Fig 2) show inter-datacenter drop rates varying
// by three orders of magnitude across trials, correlated with payload size
// (ISP switch-buffer congestion), while private optical networks sit near
// 1e-8. We provide:
//   * IidDrop           — the i.i.d. Bernoulli model used by the analytical
//                         framework (paper §4.2.1 assumes i.i.d. chunk drop).
//   * GilbertElliott    — two-state burst-loss model, used by robustness
//                         tests and the burst-ablation bench.
//   * CongestionDrop    — per-trial congestion intensity modulating a
//                         size-dependent drop probability; reproduces the
//                         Fig 2 variability measurement.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <unordered_set>
#include <vector>

#include "common/rng.hpp"

namespace sdr::sim {

class DropModel {
 public:
  virtual ~DropModel() = default;
  /// Decide the fate of one packet of `bytes` payload.
  virtual bool should_drop(Rng& rng, std::size_t bytes) = 0;
  /// Reset any internal channel state (e.g. at trial boundaries).
  virtual void reset(Rng& /*rng*/) {}
};

/// Independent, identically distributed drops with fixed probability.
class IidDrop final : public DropModel {
 public:
  explicit IidDrop(double p_drop) : p_(p_drop) {}
  bool should_drop(Rng& rng, std::size_t /*bytes*/) override {
    return rng.bernoulli(p_);
  }
  double probability() const { return p_; }

 private:
  double p_;
};

/// Gilbert-Elliott two-state Markov loss: a "good" state with low loss and a
/// "bad" (bursty) state with high loss; transitions occur per packet.
class GilbertElliott final : public DropModel {
 public:
  GilbertElliott(double p_good_to_bad, double p_bad_to_good,
                 double loss_in_good, double loss_in_bad)
      : p_gb_(p_good_to_bad),
        p_bg_(p_bad_to_good),
        loss_good_(loss_in_good),
        loss_bad_(loss_in_bad) {}

  bool should_drop(Rng& rng, std::size_t /*bytes*/) override {
    if (bad_) {
      if (rng.bernoulli(p_bg_)) bad_ = false;
    } else {
      if (rng.bernoulli(p_gb_)) bad_ = true;
    }
    return rng.bernoulli(bad_ ? loss_bad_ : loss_good_);
  }

  void reset(Rng& rng) override {
    // Start from the stationary distribution.
    const double stationary_bad = p_gb_ / (p_gb_ + p_bg_);
    bad_ = rng.bernoulli(stationary_bad);
  }

  /// Long-run average loss rate (stationary mixture).
  double stationary_loss() const {
    const double pi_bad = p_gb_ / (p_gb_ + p_bg_);
    return pi_bad * loss_bad_ + (1.0 - pi_bad) * loss_good_;
  }

 private:
  double p_gb_, p_bg_, loss_good_, loss_bad_;
  bool bad_{false};
};

/// Deterministic fault injection: drops exactly the packets whose (0-based)
/// send index the caller scripted. Used by tests that need to reason about
/// a precise loss pattern — "drop packet 5 of the first message", "drop a
/// burst of m+1 chunks of one submessage" — rather than a rate.
///
/// A scripted index past the last packet actually sent is almost always a
/// test bug (the scenario changed and the script rotted): such indices are
/// reported by unused_indices()/unused_count() and logged at WARN on
/// destruction so they cannot pass silently. The conformance harness
/// (src/check/) additionally treats a non-empty unused set as an oracle
/// failure.
class ScriptedDrop final : public DropModel {
 public:
  explicit ScriptedDrop(std::vector<std::uint64_t> drop_indices)
      : drop_(drop_indices.begin(), drop_indices.end()) {}
  ~ScriptedDrop() override;

  bool should_drop(Rng& /*rng*/, std::size_t /*bytes*/) override {
    return drop_.count(counter_++) != 0;
  }

  void reset(Rng& /*rng*/) override {
    high_water_ = std::max(high_water_, counter_);
    counter_ = 0;
  }

  std::uint64_t packets_seen() const { return counter_; }

  /// Scripted indices no packet has reached yet (across every trial since
  /// construction), sorted ascending.
  std::vector<std::uint64_t> unused_indices() const;
  std::size_t unused_count() const;

 private:
  std::unordered_set<std::uint64_t> drop_;
  std::uint64_t counter_{0};
  std::uint64_t high_water_{0};  // max counter_ over reset() boundaries
};

/// Congestion-modulated drop model for the Fig 2 reproduction.
///
/// Each trial samples a congestion intensity C from a lognormal distribution
/// (heavy tail: most trials are quiet, some hit a congested ISP buffer).
/// The per-packet drop probability grows with payload size (larger packets
/// are more likely to overflow a nearly full buffer):
///     p(bytes) = clamp(base * C * (bytes / ref_bytes)^gamma, 0, p_max)
class CongestionDrop final : public DropModel {
 public:
  void reset(Rng& rng) override {
    // exp(sigma * N(0,1) - sigma^2/2) has mean 1.
    congestion_ = std::exp(kLogSigma * rng.normal() -
                           0.5 * kLogSigma * kLogSigma);
  }

  bool should_drop(Rng& rng, std::size_t bytes) override {
    return rng.bernoulli(drop_probability(bytes));
  }

  double drop_probability(std::size_t bytes) const {
    const double size_factor =
        std::pow(static_cast<double>(bytes) / kRefBytes, kGamma);
    return std::clamp(kBaseDrop * congestion_ * size_factor, 0.0, kPMax);
  }

 private:
  static constexpr double kBaseDrop = 3e-4;    // median drop at ref packet size
  static constexpr double kRefBytes = 1024.0;  // reference payload (1 KiB)
  static constexpr double kGamma = 1.6;        // size sensitivity exponent
  static constexpr double kLogSigma = 2.3;  // lognormal sigma: ~3 decades
  static constexpr double kPMax = 0.5;

  double congestion_{1.0};
};

}  // namespace sdr::sim
