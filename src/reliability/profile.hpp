// Deployment profile of a sender-receiver path, consumed by the executable
// reliability protocols (timeout computation) and the protocol tuner.
#pragma once

#include <cstddef>

#include "common/units.hpp"
#include "model/link_params.hpp"

namespace sdr::reliability {

struct LinkProfile {
  double bandwidth_bps{400 * Gbps};
  double rtt_s{0.025};
  double p_drop_packet{1e-5};  // per-MTU-packet drop estimate
  std::size_t mtu{4096};
  std::size_t chunk_bytes{64 * KiB};

  double chunk_injection_s() const {
    return injection_time_s(chunk_bytes, bandwidth_bps);
  }

  /// When SrReceiver first re-sends the clear-to-send of a posted buffer
  /// that has seen no data yet; later re-sends back off (backed_off_s).
  /// Several RTTs, so an in-flight first chunk almost always lands first
  /// and the retry fires for a lost CTS.
  double cts_retry_interval_s() const { return 4.0 * rtt_s; }

  /// Model-level view (chunk-granularity drop probability).
  model::LinkParams to_model() const;
};

}  // namespace sdr::reliability
