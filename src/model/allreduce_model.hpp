// Inter-datacenter ring Allreduce completion model (paper §5.3, Appendix C).
//
// N datacenters run the ring algorithm: 2N-2 sequential rounds, each a
// point-to-point step of buffer_size/N bytes whose duration is drawn from
// the chosen reliability scheme's completion-time distribution. Finish
// times follow the recurrence
//   T(i, r) = max(T(i-1, r-1), T(i, r-1)) + t(i, r-1)
// and the collective completes at max_i T(i, 2N-2). The model samples the
// recurrence to estimate the tail (Fig 13) and exposes the Appendix C
// analytical lower bound (2N-2)(C + mu_X) for tests.
#pragma once

#include <cstdint>

#include "model/protocols.hpp"

namespace sdr::model {

struct AllreduceParams {
  std::uint64_t datacenters{4};
  std::uint64_t buffer_bytes{128ull << 20};  // per-rank buffer
  LinkParams link;                           // per-hop link (chunk_bytes set)
  Scheme scheme{Scheme::kEcMds};

  /// Chunks per ring segment (buffer/N rounded up to whole chunks).
  std::uint64_t segment_chunks() const {
    const std::uint64_t seg = buffer_bytes / datacenters;
    return (seg + link.chunk_bytes - 1) / link.chunk_bytes;
  }
};

/// One sampled end-to-end ring-allreduce completion time (seconds).
double allreduce_sample_s(Rng& rng, const AllreduceParams& params);

/// Distribution over `n` samples.
DistributionSummary allreduce_distribution(const AllreduceParams& params,
                                           std::uint64_t n,
                                           std::uint64_t seed);

/// Appendix C lower bound: (2N-2) * (C + mu_X) where C is the lossless
/// per-stage time and mu_X the expected reliability overhead per stage.
double allreduce_expected_lower_bound_s(const AllreduceParams& params);

/// Binary-tree allreduce (reduce up + broadcast down): 2*ceil(log2 N)
/// barrier-synchronized rounds, each moving the FULL buffer over every
/// active tree edge; a round finishes at the max of its edges' completion
/// times. Appendix C notes the per-stage reliability cost accumulates for
/// any stage-based schedule — the tree trades 2N-2 small stages for
/// 2*log2(N) large ones.
double tree_allreduce_sample_s(Rng& rng, const AllreduceParams& params);

DistributionSummary tree_allreduce_distribution(const AllreduceParams& params,
                                                std::uint64_t n,
                                                std::uint64_t seed);

/// Appendix C-style bound for the tree schedule:
/// 2*ceil(log2 N) * (C + mu_X) with full-buffer stages.
double tree_allreduce_expected_lower_bound_s(const AllreduceParams& params);

}  // namespace sdr::model
