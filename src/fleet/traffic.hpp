// Fleet traffic model: seeded per-tenant message schedules.
//
// A tenant is a class of traffic sharing one statistical shape — the
// small-op/bulk dichotomy of production RDMA fleets (Storm-style traces):
// message sizes follow a Zipf rank distribution over power-of-two size
// classes (rank 1 = the base size = most frequent), and arrivals follow a
// Poisson process. Every schedule is derived from (tenant seed, connection
// index) with derive_seed, so a fleet plan depends only on the seed and the
// configuration — never on construction order or thread count.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hpp"

namespace sdr::fleet {

/// Statistical shape of one tenant's per-connection traffic.
struct TenantTraffic {
  std::string name{"tenant"};
  /// Endpoint share of this tenant, normalized across the mix.
  double share{1.0};
  /// Mean per-connection arrival rate (Poisson) in messages/s.
  double msgs_per_s{2000.0};
  /// Message size of Zipf rank r is base_msg_bytes << (r - 1).
  std::size_t base_msg_bytes{4096};
  std::size_t size_ranks{4};
  double zipf_s{1.2};
  /// Per-connection in-flight message cap; arrivals beyond it queue.
  std::size_t window{8};

  std::size_t max_msg_bytes() const {
    return base_msg_bytes << (size_ranks > 0 ? size_ranks - 1 : 0);
  }
};

/// One planned message on one connection.
struct PlannedMessage {
  std::int64_t arrival_ns{0};
  std::uint32_t bytes{0};
};

/// Generate `count` messages for one connection of `tenant`. Arrival times
/// are strictly ordered (Poisson gaps are positive); sizes are drawn
/// independently per message. The generator is seeded from (seed,
/// connection_index) so connections are uncorrelated and the plan is
/// reproducible in isolation.
std::vector<PlannedMessage> plan_messages(const TenantTraffic& tenant,
                                          std::size_t count,
                                          std::uint64_t seed,
                                          std::uint64_t connection_index);

}  // namespace sdr::fleet
