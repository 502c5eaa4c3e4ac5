// The software NIC: owns QPs, a protection domain, and routes packets
// between the simulator channels and the QPs.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "sim/channel.hpp"
#include "sim/simulator.hpp"
#include "telemetry/telemetry.hpp"
#include "verbs/mr.hpp"
#include "verbs/nic_model.hpp"
#include "verbs/qp.hpp"
#include "verbs/types.hpp"

namespace sdr::verbs {

/// QP numbers are assigned sequentially from this base and never reused, so
/// `num - kFirstQpNumber` indexes a dense table: the per-packet lookup on
/// the fleet fan-in path (thousands of QPs per NIC) is one bounds check and
/// one load instead of a hash probe.
inline constexpr QpNumber kFirstQpNumber = 0x100;

class Nic {
 public:
  Nic(sim::Simulator& simulator, NicId id);
  Nic(const Nic&) = delete;
  Nic& operator=(const Nic&) = delete;

  NicId id() const { return id_; }
  sim::Simulator& simulator() { return sim_; }
  ProtectionDomain& pd() { return pd_; }

  /// Injection resource model (nic_model.hpp). Set caps before creating
  /// QPs: each QP snapshots them at construction, like hardware context
  /// init. Default caps leave the model disabled (infinitely fast posting).
  void set_caps(const NicCaps& caps) { caps_ = caps; }
  const NicCaps& caps() const { return caps_; }

  Qp* create_qp(const QpConfig& config);
  Qp* find_qp(QpNumber num);
  void destroy_qp(QpNumber num);

  /// Route packets destined to `remote` through `tx`. The channel's
  /// receiver callback must be wired to the remote NIC's deliver().
  void add_route(NicId remote, sim::Channel* tx);

  /// ECMP-style multi-path route (paper §3.4.1): packets are spread over
  /// `paths` by a flow hash of (src QP, dst QP), so each QP pair stays on
  /// one path (in-order per flow) while different channel QPs fan out
  /// across paths.
  void add_multipath_route(NicId remote, std::vector<sim::Channel*> paths);

  /// The path a given flow would take (single-path routes return it).
  sim::Channel* route_to(NicId remote, QpNumber src_qp = 0,
                         QpNumber dst_qp = 0) const;

  /// Hand a wire packet to the fabric (serialization/drop handled by the
  /// channel). Packets to unknown destinations are counted and dropped.
  void send_packet(WirePacket&& pkt);

  /// Channel delivery entry point.
  void deliver(sim::Packet&& packet);

  std::uint64_t unroutable_packets() const { return unroutable_; }
  std::uint64_t unknown_qp_packets() const { return unknown_qp_; }
  std::size_t qp_count() const { return live_qps_; }

 private:
  void register_metrics();

  sim::Simulator& sim_;
  NicId id_;
  ProtectionDomain pd_;
  NicCaps caps_;
  QpNumber next_qp_num_{kFirstQpNumber};
  // Dense QPN-indexed table: slot i holds QP number kFirstQpNumber + i.
  // Destroyed QPs null their slot (numbers are never reused), so a late
  // packet for a dead QP still resolves to "unknown" in O(1).
  std::vector<std::unique_ptr<Qp>> qps_;
  std::size_t live_qps_{0};
  // Dense NicId-indexed route table: every topology in the repo (pairs,
  // rings, meshes, stars, fleets) numbers NICs with small sequential ids.
  std::vector<std::vector<sim::Channel*>> routes_;
  std::uint64_t unroutable_{0};
  std::uint64_t unknown_qp_{0};
  telemetry::Scope tele_;  // last member: unbinds before counters die
};

/// Two NICs, ids 1 and 2, routed to each other over one duplex link: a -> b
/// on the link's forward channel, b -> a on its backward channel.
struct NicPair {
  std::unique_ptr<Nic> a;
  std::unique_ptr<Nic> b;
  std::unique_ptr<sim::DuplexLink> link;
};

/// Both directions share `config`; each drops by its own model.
NicPair make_connected_pair(sim::Simulator& simulator,
                            sim::Channel::Config config,
                            std::unique_ptr<sim::DropModel> forward,
                            std::unique_ptr<sim::DropModel> backward);

/// i.i.d. loss in each direction.
NicPair make_connected_pair(sim::Simulator& simulator,
                            sim::Channel::Config config, double p_drop_fwd,
                            double p_drop_bwd = 0.0);

}  // namespace sdr::verbs
