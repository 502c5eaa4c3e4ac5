// sdrcheck: property-based conformance checking over random scenarios.
//
// check_seed() runs one seed through all three arms (SR, EC, RC — see
// runner.hpp) and layers the cross-arm oracles on top of the per-arm ones:
//
//   * differential — SR, EC and RC must deliver byte-identical payloads
//     for the same scenario (every arm reuses message_pattern, so the
//     concatenated `received` buffers must match exactly),
//   * analytic model — for scenarios the closed-form model covers (single
//     message, clean or i.i.d. loss, no reordering/duplication/
//     perturbation, static RTO), the simulated SR completion time must
//     land within a generous tolerance band around
//     model::expected_completion_s,
//   * sweep equivalence — check_seeds() runs seed batches through the
//     sweep engine and records a per-seed digest of the delivered bytes
//     and completion times; to_jsonl() output must be bit-identical at any
//     --jobs level (verified by the harness's own tests and by rerunning
//     the CLI at different job counts).
//
// On failure, shrink_failure() walks the deterministic shrink ladder
// (scenario.hpp) to the smallest level that still fails and emits a
// one-line repro: `sdrcheck --seed=S --shrink-level=K`.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "check/runner.hpp"
#include "check/scenario.hpp"

namespace sdr::check {

struct CheckOptions {
  /// Keep each arm's flight-recorder JSON dump (bounded rings of protocol
  /// state transitions) in ArmResult::flight_json; it is written next to
  /// the seed repro line when an oracle fails. The recorder itself is
  /// always armed: it keeps the event stream on for the event-order oracle.
  bool capture_flight{true};
  /// Per-arm causal span recorders: a --trace-perfetto replay merges every
  /// arm's spans into one Chrome trace document.
  bool capture_spans{false};
};

/// Outcome of one seed at one shrink level: the scenario, every arm's
/// result, and the cross-arm oracle verdicts.
struct SeedReport {
  std::uint64_t seed{0};
  int shrink_level{0};
  Scenario scenario;
  std::vector<ArmResult> arms;
  /// Cross-arm oracle failures (differential, model); per-arm failures
  /// live in arms[i].failures.
  std::vector<std::string> failures;

  bool ok() const;
  /// All failures, arm-prefixed, one per line; empty string when ok().
  std::string failure_text() const;
  /// Order- and platform-stable digest of delivered bytes + completion
  /// times across arms; drives the serial-vs-parallel equivalence oracle.
  std::uint64_t digest() const;
  /// Merged per-arm flight-recorder dumps:
  /// {"seed":N,"shrink_level":K,"arms":[{"arm":"sr_rto","flight":{...}}]}.
  /// Empty string when no arm captured flight data.
  std::string flight_json() const;
  /// Merged Chrome trace document of every arm's spans (capture_spans
  /// runs); empty string when no arm captured spans.
  std::string chrome_json() const;
};

/// The one-line command that reproduces a (seed, shrink level) run.
std::string repro_command(std::uint64_t seed, int shrink_level);

SeedReport check_seed(std::uint64_t seed, const CheckOptions& opts,
                      int shrink_level = 0);

struct ShrinkOutcome {
  /// Report at the minimal still-failing shrink level.
  SeedReport minimal;
  int level{0};
  std::string repro;
};

/// Given a failing seed, walk shrink levels upward and return the deepest
/// level that still fails (greedy prefix walk; stops at the first passing
/// level or at the ladder fixpoint).
ShrinkOutcome shrink_failure(std::uint64_t seed, const CheckOptions& opts);

struct BatchResult {
  std::uint64_t base_seed{0};
  std::size_t total{0};
  std::vector<std::uint64_t> failing_seeds;
  std::vector<ShrinkOutcome> shrunk;
  /// Deterministic per-seed records (seed, ok, failure count, digest) —
  /// bit-identical for any jobs count.
  std::string jsonl;
  /// SeedReport::digest() of every seed, in index order.
  std::vector<std::uint64_t> digests;

  bool ok() const { return failing_seeds.empty(); }
  /// The per-seed digests folded in index order: equal digests mean the
  /// same outcome on every seed of the batch.
  std::uint64_t digest() const;
};

/// Run `count` seeds (derive_seed(base_seed, i) each) through the sweep
/// engine with `jobs` workers, then shrink any failures serially.
BatchResult check_seeds(std::uint64_t base_seed, std::size_t count,
                        const CheckOptions& opts, unsigned jobs = 1);

}  // namespace sdr::check
