#include "fleet/traffic.hpp"

#include "common/time.hpp"

namespace sdr::fleet {

std::vector<PlannedMessage> plan_messages(const TenantTraffic& tenant,
                                          std::size_t count,
                                          std::uint64_t seed,
                                          std::uint64_t connection_index) {
  std::vector<PlannedMessage> plan;
  plan.reserve(count);
  Rng rng(derive_seed(seed, connection_index));
  const ZipfSampler zipf(tenant.size_ranks, tenant.zipf_s);

  PoissonProcess poisson(tenant.msgs_per_s);

  std::int64_t last_ns = -1;
  for (std::size_t i = 0; i < count; ++i) {
    PlannedMessage msg;
    msg.arrival_ns = SimTime::from_seconds(poisson.next(rng)).ns;
    // Integer-ns rounding can collapse neighbours; keep arrivals strictly
    // ordered so per-message latency accounting is unambiguous.
    if (msg.arrival_ns <= last_ns) msg.arrival_ns = last_ns + 1;
    last_ns = msg.arrival_ns;

    const std::size_t rank = zipf.sample(rng);
    msg.bytes = static_cast<std::uint32_t>(tenant.base_msg_bytes
                                           << (rank - 1));
    plan.push_back(msg);
  }
  return plan;
}

}  // namespace sdr::fleet
