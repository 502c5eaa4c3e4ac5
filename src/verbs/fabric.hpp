// Fabric: a topology builder for multi-NIC simulations.
//
// Owns NICs and the duplex links between them, wires channel receivers to
// NIC delivery, and supports ECMP-style multi-path trunks between a pair of
// NICs (paper §3.4.1: "by spreading traffic across channel QPs, SDR could
// leverage intra-datacenter multi-pathing (e.g., ECMP) and multi-plane
// networks"). Each path of a trunk is an independent channel — its own
// serializer, loss state and (optionally skewed) delay — so multi-path
// reordering emerges naturally.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "sim/channel.hpp"
#include "sim/drop_model.hpp"
#include "sim/simulator.hpp"
#include "verbs/nic.hpp"

namespace sdr::verbs {

class Fabric {
 public:
  explicit Fabric(sim::Simulator& simulator) : sim_(simulator) {}
  Fabric(const Fabric&) = delete;
  Fabric& operator=(const Fabric&) = delete;

  /// Create a NIC (ids assigned 1, 2, ...).
  Nic* add_nic();
  Nic* nic(std::size_t index) { return nics_[index].get(); }
  std::size_t nic_count() const { return nics_.size(); }

  struct LinkOptions {
    sim::Channel::Config config{};
    double p_drop_forward{0.0};
    double p_drop_backward{0.0};
    /// Number of parallel paths (1 = plain duplex link).
    std::size_t paths{1};
    /// Per-path extra one-way delay skew: path k gets +k*path_skew_s.
    double path_skew_s{0.0};
  };

  /// Connect two NICs bidirectionally (each direction gets `paths`
  /// channels; flows are spread by the NIC's ECMP hash).
  void connect(Nic* a, Nic* b, const LinkOptions& options);

  /// Every channel the fabric owns (one per direction per path), in
  /// creation order — fleet rollups aggregate drop/backlog stats from it.
  const std::vector<std::unique_ptr<sim::Channel>>& channels() const {
    return channels_;
  }

 private:
  sim::Simulator& sim_;
  std::vector<std::unique_ptr<Nic>> nics_;
  std::vector<std::unique_ptr<sim::Channel>> channels_;
  std::uint64_t link_seed_{0x7ab71c};
};

}  // namespace sdr::verbs
