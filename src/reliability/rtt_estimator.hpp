// RFC 6298-style adaptive retransmission timeout.
//
// The paper lists "retransmission timeout (RTO) tuning" among the SR
// extensions a software-defined reliability layer can adopt (§4.1.1, citing
// F-RTO). This estimator maintains the classic smoothed RTT / RTT variance
// pair from per-chunk acknowledgment samples; Karn's algorithm applies
// (callers must not feed samples from retransmitted chunks).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>

namespace sdr::reliability {

class RttEstimator {
 public:
  struct Params {
    double min_rto_s{1e-4};
    double initial_rto_s{0.2};
  };
  /// RTO ceiling, whatever the samples say.
  static constexpr double kMaxRtoS = 10.0;

  RttEstimator() : params_(Params{}) {}
  explicit RttEstimator(Params params) : params_(params) {}

  /// Feed one RTT sample (seconds). Per Karn's algorithm the caller must
  /// only sample chunks acknowledged on their first transmission.
  void update(double sample_s) {
    if (sample_s <= 0.0) return;
    if (samples_ == 0) {
      srtt_ = sample_s;
      rttvar_ = sample_s / 2.0;
    } else {
      rttvar_ = (1.0 - kBeta) * rttvar_ + kBeta * std::abs(srtt_ - sample_s);
      srtt_ = (1.0 - kAlpha) * srtt_ + kAlpha * sample_s;
    }
    ++samples_;
  }

  double rto_s() const {
    const double rto = samples_ == 0 ? params_.initial_rto_s
                                     : srtt_ + kK * rttvar_;
    return std::clamp(rto, params_.min_rto_s, kMaxRtoS);
  }

  double srtt_s() const { return srtt_; }
  double rttvar_s() const { return rttvar_; }
  std::uint64_t samples() const { return samples_; }

 private:
  // RFC 6298 gains.
  static constexpr double kAlpha = 1.0 / 8.0;  // SRTT gain
  static constexpr double kBeta = 1.0 / 4.0;   // RTTVAR gain
  static constexpr double kK = 4.0;            // RTO = SRTT + K * RTTVAR

  Params params_;
  double srtt_{0.0};
  double rttvar_{0.0};
  std::uint64_t samples_{0};
};

}  // namespace sdr::reliability
