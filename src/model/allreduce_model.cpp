#include "model/allreduce_model.hpp"

#include <algorithm>
#include <vector>

namespace sdr::model {

double allreduce_sample_s(Rng& rng, const AllreduceParams& params) {
  const auto n = static_cast<std::size_t>(params.datacenters);
  const std::uint64_t rounds = 2 * params.datacenters - 2;
  const std::uint64_t seg_chunks = params.segment_chunks();

  // finish[i] = T(i, r) rolling over rounds.
  std::vector<double> finish(n, 0.0);
  std::vector<double> prev(n, 0.0);
  for (std::uint64_t r = 1; r <= rounds; ++r) {
    prev.swap(finish);
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t pred = (i + n - 1) % n;
      const double ready = std::max(prev[pred], prev[i]);
      const double step =
          sample_completion_s(params.scheme, rng, params.link, seg_chunks);
      finish[i] = ready + step;
    }
  }
  return *std::max_element(finish.begin(), finish.end());
}

DistributionSummary allreduce_distribution(const AllreduceParams& params,
                                           std::uint64_t n,
                                           std::uint64_t seed) {
  Rng rng(seed);
  Histogram hist(1e-6, 1e6);
  for (std::uint64_t i = 0; i < n; ++i) {
    hist.record(allreduce_sample_s(rng, params));
  }
  DistributionSummary out;
  out.mean = hist.mean();
  out.p50 = hist.percentile(50);
  out.p99 = hist.percentile(99);
  out.p999 = hist.percentile(99.9);
  out.max = hist.max();
  out.samples = n;
  return out;
}

double allreduce_expected_lower_bound_s(const AllreduceParams& params) {
  const std::uint64_t rounds = 2 * params.datacenters - 2;
  const std::uint64_t seg_chunks = params.segment_chunks();
  const double c = ideal_completion_s(params.link, seg_chunks);
  const double expected =
      expected_completion_s(params.scheme, params.link, seg_chunks);
  const double mu_x = std::max(0.0, expected - c);
  return static_cast<double>(rounds) * (c + mu_x);
}

namespace {

std::uint64_t ceil_log2(std::uint64_t n) {
  std::uint64_t levels = 0;
  std::uint64_t v = 1;
  while (v < n) {
    v <<= 1;
    ++levels;
  }
  return levels;
}

}  // namespace

double tree_allreduce_sample_s(Rng& rng, const AllreduceParams& params) {
  const std::uint64_t n = params.datacenters;
  const std::uint64_t levels = ceil_log2(n);
  const std::uint64_t buffer_chunks =
      (params.buffer_bytes + params.link.chunk_bytes - 1) /
      params.link.chunk_bytes;

  double total = 0.0;
  // Reduce phase up the tree, then broadcast mirrors it down: the number
  // of concurrently active edges halves per level going up (and doubles
  // coming down), and each barrier round costs the max over its edges.
  for (int phase = 0; phase < 2; ++phase) {
    for (std::uint64_t level = 0; level < levels; ++level) {
      const std::uint64_t edges =
          std::max<std::uint64_t>(1, n >> (level + 1));
      double round_max = 0.0;
      for (std::uint64_t e = 0; e < edges; ++e) {
        round_max = std::max(
            round_max, sample_completion_s(params.scheme, rng, params.link,
                                           buffer_chunks));
      }
      total += round_max;
    }
  }
  return total;
}

DistributionSummary tree_allreduce_distribution(const AllreduceParams& params,
                                                std::uint64_t n,
                                                std::uint64_t seed) {
  Rng rng(seed);
  Histogram hist(1e-6, 1e6);
  for (std::uint64_t i = 0; i < n; ++i) {
    hist.record(tree_allreduce_sample_s(rng, params));
  }
  DistributionSummary out;
  out.mean = hist.mean();
  out.p50 = hist.percentile(50);
  out.p99 = hist.percentile(99);
  out.p999 = hist.percentile(99.9);
  out.max = hist.max();
  out.samples = n;
  return out;
}

double tree_allreduce_expected_lower_bound_s(const AllreduceParams& params) {
  const std::uint64_t rounds = 2 * ceil_log2(params.datacenters);
  const std::uint64_t buffer_chunks =
      (params.buffer_bytes + params.link.chunk_bytes - 1) /
      params.link.chunk_bytes;
  const double c = ideal_completion_s(params.link, buffer_chunks);
  const double expected =
      expected_completion_s(params.scheme, params.link, buffer_chunks);
  const double mu_x = std::max(0.0, expected - c);
  return static_cast<double>(rounds) * (c + mu_x);
}

}  // namespace sdr::model
