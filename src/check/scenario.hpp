// Seed -> scenario mapping for the sdrcheck conformance harness.
//
// A Scenario is a complete, self-describing end-to-end experiment: link
// geometry, loss process, SDR packet geometry, a batch of concurrent
// messages, and the reliability knobs under test. Two invariants make the
// harness reproducible anywhere:
//
//   1. generate_scenario(seed) is a pure function of the seed. All
//      randomness flows through common::Rng (xoshiro256**, pinned by
//      common_test golden vectors), never through std:: distributions whose
//      implementations vary across standard libraries — a CI seed replays
//      bit-for-bit on any machine.
//   2. shrink_scenario(full, level) is a pure function of (scenario,
//      level): the shrink ladder applies `level` deterministic reduction
//      steps, so any failure the shrinker minimizes is reproducible from
//      the single command `sdrcheck --seed=S --shrink-level=K`.
//
// See DESIGN.md §"Testing strategy" for the full seed->scenario catalogue.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace sdr::check {

/// Forward-path loss process. The backward channel carries the CTS
/// datagrams and the control path (ACKs, NACKs). It already reorders and
/// duplicates like the forward one, because DuplexLink gives both
/// directions the same Channel::Config, but its only loss is the scripted
/// CTS drop of Scenario::drop_first_cts.
enum class DropKind : std::uint8_t { kClean, kIid, kGilbertElliott, kScripted };

/// Which Selective Repeat flavor the SR arm runs (paper §4.1.1).
enum class SrFlavor : std::uint8_t { kRto, kNack };

const char* drop_kind_name(DropKind kind);

struct MessageSpec {
  std::size_t chunks{1};    // message length in SDR chunks
  double post_delay_s{0.0}; // when both endpoints post it (staggered starts)
};

struct Scenario {
  std::uint64_t seed{0};
  int shrink_level{0};

  // Link geometry (symmetric duplex).
  double bandwidth_bps{0.0};
  double distance_km{0.0};
  double reorder_probability{0.0};
  double reorder_extra_delay_s{0.0};
  double duplicate_probability{0.0};

  // Forward-path loss.
  DropKind drop{DropKind::kClean};
  double iid_p{0.0};
  double ge_p_good_to_bad{0.0};
  double ge_p_bad_to_good{1.0};
  double ge_loss_good{0.0};
  double ge_loss_bad{0.0};
  /// Scripted send indices, always < total_data_packets() so every index is
  /// consumed by the first transmission pass of any arm (the unused-index
  /// oracle relies on this bound).
  std::vector<std::uint64_t> scripted_drops;

  // SDR packet geometry: chunk = mtu * packets_per_chunk.
  std::size_t mtu{1024};
  std::size_t packets_per_chunk{1};

  // Traffic: 1-8 concurrent messages.
  std::vector<MessageSpec> messages;

  // Reliability knobs.
  SrFlavor sr_flavor{SrFlavor::kRto};
  bool adaptive_rto{false};
  double rto_rtt_multiple{3.0};
  std::size_t ec_k{8};
  std::size_t ec_m{4};
  bool rc_go_back_n{true};

  // Mid-flight RTO perturbation: at perturb_at_s the SR sender's static RTO
  // is rescaled by perturb_rto_multiple (no-op when adaptive_rto).
  bool perturb_rto{false};
  double perturb_at_s{0.0};
  double perturb_rto_multiple{1.0};

  // Fleet mode (appended generator fields): a seed subset additionally
  // runs a small two-DC fleet (src/fleet/) at this scenario's geometry and
  // loss point and checks the fleet-level oracles — every posted message
  // completes or is accounted as failed, the event queue and payload pool
  // quiesce at the horizon, and per-tenant counters conserve the fleet
  // totals. Shrink rules for these fields are appended to the ladder.
  bool fleet_mode{false};
  std::size_t fleet_endpoints_per_dc{0};
  std::size_t fleet_messages_per_connection{0};
  std::size_t fleet_scheme{0};  // 0 = SR, 1 = EC, 2 = RC
  bool fleet_collective{false};

  // Far-horizon timer perturbation (timer-wheel overflow exercise): the
  // runner schedules this many timers past the wheel's 2^36 ns (~68.7 s)
  // horizon alongside the protocol run, cancels every other one, and
  // asserts the survivors fire in timestamp order at their exact deadlines
  // after the protocol drains. Overflow-heap entries thereby coexist with
  // (and must never disturb) the protocol's event stream.
  bool far_timers{false};
  std::size_t far_timer_count{0};

  // Control-path loss (appended generator field): the SR and EC arms drop
  // backward packet 0, the CTS of the first posted receive, so the
  // message completes only through the receiver's CTS retry. No shrink
  // rule strips it: the failures it finds need the lost CTS to reproduce.
  bool drop_first_cts{false};

  std::size_t chunk_bytes() const { return mtu * packets_per_chunk; }
  double rtt_s() const;
  /// Total first-transmission data packets across all messages (parity and
  /// retransmissions excluded).
  std::size_t total_data_packets() const;
  std::size_t total_chunks() const;
  /// Message length in bytes (exact for SR/RC; the EC arm pads to whole
  /// submessages of ec_k chunks).
  std::size_t message_bytes(std::size_t i) const;
  std::size_t ec_padded_chunks(std::size_t i) const;
  /// Deadline by which every message must have completed: generous in RTTs
  /// and injection times so only a genuinely wedged protocol misses it.
  double horizon_s() const;
  /// One-line human summary ("bw=100G dist=250km ge(...) 3 msgs ...").
  std::string describe() const;
};

/// Deterministic seed->scenario mapping (pure; see file header).
Scenario generate_scenario(std::uint64_t seed);

/// Apply `level` shrink steps to `full`. Each step applies the first rule
/// that still bites, in order: halve the message count (floor 1), halve
/// every message's chunk count (floor 1), trim the scripted drop schedule
/// to its first half (floor 4, then 1), disable reordering/duplication/
/// perturbation/far timers, shrink the fleet. Scripted indices are
/// re-normalized (mod the shrunk packet count, deduplicated) so at least one
/// drop survives every step. Fleet mode and the lost CTS are never stripped.
/// Levels beyond the fixpoint return the fixpoint.
Scenario shrink_scenario(const Scenario& full, int level);

/// True when shrink_scenario(s, 1) would change nothing.
bool fully_shrunk(const Scenario& s);

}  // namespace sdr::check
