// Deterministic, seedable random number generation.
//
// Every stochastic component in the repository (drop models, completion-time
// samplers, workload generators) draws from an explicitly seeded Xoshiro256**
// generator so that each experiment is exactly reproducible from the seed
// printed by the bench harness. We do not use std::mt19937 because its state
// is large and its distributions are not portable across standard library
// implementations; the samplers below are self-contained.
#pragma once

#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

namespace sdr {

/// SplitMix64 output function (the finalizer applied to each state word).
constexpr std::uint64_t splitmix64_mix(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// The additive constant of the SplitMix64 stream (golden-ratio increment).
inline constexpr std::uint64_t kSplitMix64Gamma = 0x9e3779b97f4a7c15ULL;

/// SplitMix64: used only to expand a 64-bit seed into Xoshiro state.
constexpr std::uint64_t splitmix64(std::uint64_t& state) {
  state += kSplitMix64Gamma;
  return splitmix64_mix(state);
}

/// Per-trial / per-stream seed derivation: element `index + 1` of the
/// SplitMix64 stream seeded with `base_seed`, computed in O(1) by jumping
/// the state. Trials seeded with derive_seed(base, 0), derive_seed(base, 1),
/// ... get uncorrelated generators whose values depend only on (base, index)
/// — never on thread count, scheduling, or evaluation order. The sweep
/// engine (src/sweep/) relies on this for bit-identical parallel results.
constexpr std::uint64_t derive_seed(std::uint64_t base_seed,
                                    std::uint64_t trial_index) {
  return splitmix64_mix(base_seed + (trial_index + 1) * kSplitMix64Gamma);
}

/// Xoshiro256** by Blackman & Vigna: fast, high-quality, 256-bit state.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x5d6e38f4a12c9b07ULL) { reseed(seed); }

  void reseed(std::uint64_t seed) {
    std::uint64_t sm = seed;
    for (auto& word : s_) word = splitmix64(sm);
  }

  std::uint64_t next_u64() {
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1) with 53 bits of entropy.
  double next_double() {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in (0, 1] — safe as a log() argument.
  double next_double_open() {
    return (static_cast<double>(next_u64() >> 11) + 1.0) * 0x1.0p-53;
  }

  /// Uniform integer in [0, bound) without modulo bias (Lemire's method).
  std::uint64_t next_below(std::uint64_t bound) {
    if (bound == 0) return 0;
    const std::uint64_t x = next_u64();
    __uint128_t m = static_cast<__uint128_t>(x) * bound;
    auto lo = static_cast<std::uint64_t>(m);
    if (lo < bound) {
      const std::uint64_t threshold = (0 - bound) % bound;
      while (lo < threshold) {
        m = static_cast<__uint128_t>(next_u64()) * bound;
        lo = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Bernoulli trial with success probability p.
  bool bernoulli(double p) {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return next_double() < p;
  }

  /// Geometric distribution: number of Bernoulli(p) trials until the first
  /// success, support {1, 2, ...}. Matches the paper's Y_i ~ Geom(1-Pdrop)
  /// (number of transmissions needed for delivery). Uses inversion, which is
  /// exact and O(1) for any p.
  std::uint64_t geometric(double p_success) {
    if (p_success >= 1.0) return 1;
    if (p_success <= 0.0) return std::numeric_limits<std::uint64_t>::max();
    const double u = next_double_open();
    const double v = std::ceil(std::log(u) / std::log1p(-p_success));
    if (v >= 9.2e18) return std::numeric_limits<std::uint64_t>::max();
    return v < 1.0 ? 1 : static_cast<std::uint64_t>(v);
  }

  /// Exponential distribution with rate lambda (mean 1/lambda).
  double exponential(double lambda) {
    return -std::log(next_double_open()) / lambda;
  }

  /// Standard normal via Box-Muller (the spare draw is discarded: the cost
  /// is irrelevant compared to the surrounding sampling loops, and keeping
  /// the sampler stateless simplifies reproducibility reasoning).
  double normal() {
    const double u1 = next_double_open();
    const double u2 = next_double();
    return std::sqrt(-2.0 * std::log(u1)) *
           std::cos(2.0 * 3.14159265358979323846 * u2);
  }

  /// Binomial(n, p) sampler.
  ///
  /// Used by the completion-time models to draw "how many of the M chunks
  /// were dropped at least k times" without iterating over every chunk. For
  /// small mean (n*p <= 32) we walk geometric inter-success gaps, which is
  /// exact and O(np); for a large mean we use the normal approximation with
  /// continuity correction — at that scale the relative error is far below
  /// the Monte-Carlo noise of the surrounding experiment.
  std::uint64_t binomial(std::uint64_t n, double p) {
    if (n == 0 || p <= 0.0) return 0;
    if (p >= 1.0) return n;
    const double mean = static_cast<double>(n) * p;
    if (mean <= 32.0) {
      // Count successes by jumping between them with geometric gaps.
      std::uint64_t successes = 0;
      std::uint64_t position = 0;
      while (true) {
        const std::uint64_t gap = geometric(p);  // trials up to next success
        if (gap > n - position) break;
        position += gap;
        ++successes;
        if (position >= n) break;
      }
      return successes;
    }
    const double stddev = std::sqrt(mean * (1.0 - p));
    const double draw = std::round(mean + stddev * normal());
    if (draw < 0.0) return 0;
    if (draw > static_cast<double>(n)) return n;
    return static_cast<std::uint64_t>(draw);
  }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t s_[4]{};
};

/// Zipf(s) sampler over ranks {1, ..., n}: P(rank k) proportional to k^-s.
/// The fleet traffic model uses it for message-size ranks — datacenter
/// traffic is dominated by small ops with a heavy bulk tail (Storm-style
/// mixes), which a power law captures with one parameter.
///
/// The CDF is precomputed once and sampled by binary search, so draws are
/// exact (no rejection loop whose iteration count could depend on float
/// rounding) and consume exactly one generator value each — the property
/// the pinned-vector determinism tests lock in, mirroring derive_seed.
class ZipfSampler {
 public:
  ZipfSampler(std::size_t n, double s) : cdf_(n > 0 ? n : 1) {
    const std::size_t ranks = cdf_.size();
    double total = 0.0;
    for (std::size_t k = 1; k <= ranks; ++k) {
      total += std::pow(static_cast<double>(k), -s);
      cdf_[k - 1] = total;
    }
    for (auto& c : cdf_) c /= total;
    cdf_.back() = 1.0;  // guard against rounding shortfall at the tail
  }

  std::size_t ranks() const { return cdf_.size(); }

  /// Probability of drawing `rank` (1-based); 0 outside [1, ranks()].
  double pmf(std::size_t rank) const {
    if (rank < 1 || rank > cdf_.size()) return 0.0;
    return rank == 1 ? cdf_[0] : cdf_[rank - 1] - cdf_[rank - 2];
  }

  /// Draw a rank in [1, ranks()]; rank 1 is the most probable.
  std::size_t sample(Rng& rng) const {
    const double u = rng.next_double();
    std::size_t lo = 0;
    std::size_t hi = cdf_.size() - 1;
    while (lo < hi) {
      const std::size_t mid = (lo + hi) / 2;
      if (cdf_[mid] <= u) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return lo + 1;
  }

 private:
  std::vector<double> cdf_;  // cdf_[k-1] = P(rank <= k)
};

/// Homogeneous Poisson arrival process: successive calls return strictly
/// increasing absolute arrival times whose gaps are Exponential(rate). One
/// generator value per arrival (the inversion sampler), so interleaving
/// several processes over derived seeds stays reproducible.
class PoissonProcess {
 public:
  explicit PoissonProcess(double rate_per_s, double start_s = 0.0)
      : rate_(rate_per_s), last_(start_s) {}

  double rate() const { return rate_; }
  double last() const { return last_; }

  double next(Rng& rng) {
    last_ += rng.exponential(rate_);
    return last_;
  }

 private:
  double rate_;
  double last_;
};

}  // namespace sdr
