// Guided reliability-scheme selection (paper §5.2: "the guided choice and
// performance tuning of an optimal reliability algorithm can improve average
// and 99.9th percentile Write completion time by up to 5x and 12x").
//
// Given a deployment profile (bandwidth, RTT, drop rate, chunking) and a
// message size, the tuner evaluates the completion-time model for every
// candidate scheme and recommends the minimum-cost one, together with the
// concrete protocol parameters (RTO, EC split, FTO slack) an application
// should configure.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "model/protocols.hpp"
#include "reliability/profile.hpp"

namespace sdr::reliability {

struct Candidate {
  model::Scheme scheme;
  model::SchemeParams params;
  double expected_s{0.0};
  double p999_s{0.0};
  double slowdown_vs_ideal{0.0};
};

struct Recommendation {
  Candidate best;
  std::vector<Candidate> ranked;  // all candidates, best first
  std::string rationale;
};

struct TunerOptions {
  /// EC splits to consider (paper Fig 10d evaluates several; (32,8) is the
  /// balanced default).
  std::vector<std::pair<std::size_t, std::size_t>> ec_splits{
      {32, 4}, {32, 8}, {16, 8}, {8, 8}};
  /// Monte-Carlo samples behind each candidate's p99.9 (reported, not
  /// ranked on: candidates rank by expected completion time); 0 skips it.
  std::uint64_t tail_samples{2000};
  std::uint64_t seed{0x7a11f00dULL};
};

Recommendation recommend(const LinkProfile& profile, std::size_t message_bytes,
                         const TunerOptions& options = TunerOptions{});

}  // namespace sdr::reliability
