// Scenario execution arms for the sdrcheck harness.
//
// Each arm runs one Scenario end to end through a different reliability
// stack on a fresh Simulator and NIC pair (verbs::make_connected_pair with
// the scenario's forward and backward drop models):
//
//   * SR arm — a ReliableChannel: sim -> verbs -> SDR core ->
//     SrSender/SrReceiver (RTO or NACK flavor per the scenario, adaptive
//     RTO and mid-flight RTO perturbations included),
//   * EC arm — a ReliableChannel under EcSender/EcReceiver (Reed-Solomon
//     with SR fallback; message lengths padded to whole submessages),
//   * RC arm — the hardware-reliability baseline: raw RC verbs QPs
//     (go-back-N or selective repeat) carrying the same bytes.
//
// Every arm checks its own per-run oracles (completion by deadline,
// byte-exact delivery, pool/event leaks at teardown, event-time order,
// scripted-drop consumption; the RC arm additionally checks CQE/ePSN
// ordering) and returns the delivered bytes so check.cpp can run the
// differential SR == EC == RC comparison.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "check/scenario.hpp"

namespace sdr::check {

struct CheckOptions;  // check.hpp

struct ArmResult {
  std::string name;
  /// Oracle violations; empty means the arm passed.
  std::vector<std::string> failures;
  /// Delivered bytes, messages concatenated in post order (EC padding
  /// stripped) — input to the cross-arm differential oracle.
  std::vector<std::uint8_t> received;
  /// Per-message completion times (sim seconds), -1 when never completed.
  std::vector<double> done_at_s;
  std::uint64_t retransmissions{0};
  /// Flight-recorder JSON dump of this arm (capture_flight runs only).
  std::string flight_json;
  /// Chrome trace events of this arm (capture_spans runs only) — bare
  /// comma-separated objects, combine via SpanRecorder::wrap_chrome_events.
  /// Each arm offsets its process ids by its own base, so several arms
  /// merge into one Perfetto document.
  std::string chrome_events;

  bool ok() const { return failures.empty(); }
};

ArmResult run_sr_arm(const Scenario& s, const CheckOptions& opts);
ArmResult run_ec_arm(const Scenario& s, const CheckOptions& opts);
ArmResult run_rc_arm(const Scenario& s, const CheckOptions& opts);

/// The deterministic payload pattern for message `index` of scenario-seed
/// `seed` (shared by all arms so differential comparison is meaningful).
std::vector<std::uint8_t> message_pattern(std::uint64_t seed,
                                          std::size_t index,
                                          std::size_t bytes);

}  // namespace sdr::check
