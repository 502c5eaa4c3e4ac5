// Fleet scenario engine: hundreds of endpoints, thousands of concurrent
// messages, one resource-modeled fabric.
//
// The paper evaluates reliability schemes one flow at a time; a planetary
// fleet is the opposite regime — many tenants' flows share DC-to-DC trunks
// and finite NIC injection capacity, and the interesting outputs are
// *fleet-level*: aggregate goodput, Jain fairness across endpoints, and the
// completion-latency tail. This engine builds that regime deterministically:
//
//   * Topology: one NIC per datacenter, fully meshed with ECMP multipath
//     trunks (Fabric). Endpoints are SDR/RC connections multiplexed onto
//     their DC's NIC — the thousand-QP fan-in the dense QPN table exists
//     for. (The software NICs do not forward, so endpoint traffic is the
//     cross-DC traffic the paper's WAN story is about.)
//   * Resource model: NicCaps on every DC NIC (nic_model.hpp) — descriptor
//     and doorbell PCIe costs, SQ-depth backpressure, per-QP/per-verb token
//     buckets — so endpoints contend for injection, not just bandwidth.
//   * Traffic: a seeded tenant mix (traffic.hpp) of Zipf-sized messages
//     with Poisson arrivals, windowed per connection with FIFO backlog,
//     plus a dependency-driven ring collective (reduce-scatter + allgather
//     schedule) running as one tenant among many.
//   * Schemes: every data connection runs the trial's reliability scheme —
//     SDR+SR, SDR+EC (sizes padded to whole submessages), or verbs RC
//     (write-with-immediate, Go-Back-N) as the commodity baseline.
//
// run_fleet() is pure with respect to its config: same config => same
// FleetResult, including the order-sensitive completion digest, on any
// thread of any --jobs=N sweep.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "fleet/traffic.hpp"
#include "verbs/nic_model.hpp"

namespace sdr::fleet {

enum class Scheme : std::uint8_t { kSr, kEc, kRc };

const char* scheme_name(Scheme scheme);

struct FleetConfig {
  std::size_t dcs{4};
  std::size_t endpoints_per_dc{64};
  Scheme scheme{Scheme::kSr};

  // ---- inter-DC trunks (full mesh, ECMP) ----
  double distance_km{1500.0};
  double p_drop{1e-4};

  // ---- NIC injection resource model ----
  verbs::NicCaps caps{};

  // ---- traffic ----
  std::vector<TenantTraffic> tenants{};
  std::size_t messages_per_connection{16};

  // ---- collective tenant (ring over one endpoint per DC) ----
  bool collective{true};
  std::size_t collective_iterations{2};

  std::uint64_t seed{1};

  /// The standard fleet: 4 DCs x 64 endpoints, a 70/30 small-op/bulk
  /// tenant mix, ring collective, NIC model enabled.
  static FleetConfig defaults();
};

struct TenantResult {
  std::string name;
  std::uint64_t connections{0};
  /// Messages in the tenant's plans. A fleet that quiesced posted them all,
  /// except collective steps behind a failed step.
  std::uint64_t planned{0};
  std::uint64_t posted{0};
  std::uint64_t completed{0};
  /// Receiver gave up with an error (an EC receive after 16 silent FTO
  /// rounds): the message is accounted but never counted as delivered.
  std::uint64_t failed{0};
  std::uint64_t useful_bytes{0};
  double goodput_gbps{0.0};
  double p50_ms{0.0};
  double p99_ms{0.0};
  double p999_ms{0.0};
};

struct FleetResult {
  std::vector<TenantResult> tenants;

  std::uint64_t endpoints{0};
  std::uint64_t connections{0};
  std::uint64_t qps_created{0};
  std::uint64_t messages_posted{0};
  std::uint64_t messages_completed{0};
  std::uint64_t messages_failed{0};
  std::uint64_t useful_bytes{0};
  /// Peak simultaneously outstanding messages (in-flight + queued).
  std::uint64_t peak_concurrent{0};
  std::uint64_t retransmissions{0};
  std::uint64_t trunk_drops{0};
  std::uint64_t unknown_qp_packets{0};
  std::uint64_t unroutable_packets{0};

  double makespan_s{0.0};
  double fleet_goodput_gbps{0.0};
  /// Jain index over per-sender-endpoint completed useful bytes.
  double jain_fairness{0.0};
  double p50_ms{0.0};
  double p99_ms{0.0};
  double p999_ms{0.0};

  /// True when the event queue drained before the horizon.
  bool quiesced{false};
  /// Thread-local payload-pool live slots after the run (0 when every
  /// in-flight packet was released — the sdrcheck fleet oracle).
  std::uint64_t payload_live_slots{0};

  /// Order-sensitive digest over (connection, seq, completion-ns, bytes)
  /// in completion order — integer-only, so bit-identical across runs,
  /// threads and --jobs splits.
  std::uint64_t digest{0};
};

FleetResult run_fleet(const FleetConfig& config);

}  // namespace sdr::fleet
