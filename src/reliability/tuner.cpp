#include "reliability/tuner.hpp"

#include <algorithm>
#include <sstream>

#include "common/logging.hpp"
#include "ec/probability.hpp"
#include "telemetry/telemetry.hpp"

namespace sdr::reliability {

model::LinkParams LinkProfile::to_model() const {
  model::LinkParams params;
  params.bandwidth_bps = bandwidth_bps;
  params.rtt_s = rtt_s;
  params.chunk_bytes = chunk_bytes;
  // Chunk-level drop probability from the per-packet estimate (Fig 15).
  params.p_drop = ec::chunk_drop_probability(p_drop_packet, chunk_bytes / mtu);
  return params;
}

Recommendation recommend(const LinkProfile& profile,
                         std::size_t message_bytes,
                         const TunerOptions& options) {
  const model::LinkParams link = profile.to_model();
  const std::uint64_t chunks =
      (message_bytes + profile.chunk_bytes - 1) / profile.chunk_bytes;
  const double ideal = model::ideal_completion_s(link, chunks);

  std::vector<Candidate> candidates;
  auto add = [&](model::Scheme scheme, model::SchemeParams params) {
    Candidate c;
    c.scheme = scheme;
    c.params = params;
    c.expected_s = model::expected_completion_s(scheme, link, chunks, params);
    if (options.tail_samples > 0) {
      const auto dist = model::sample_distribution(
          scheme, link, chunks, options.tail_samples, options.seed, params);
      c.p999_s = dist.p999;
    }
    c.slowdown_vs_ideal = c.expected_s / ideal;
    candidates.push_back(std::move(c));
  };

  add(model::Scheme::kSrRto, model::SchemeParams{});
  add(model::Scheme::kSrNack, model::SchemeParams{});
  for (const auto& [k, m] : options.ec_splits) {
    model::SchemeParams params;
    params.ec.k = k;
    params.ec.m = m;
    add(model::Scheme::kEcMds, params);
    add(model::Scheme::kEcXor, params);
  }

  std::stable_sort(candidates.begin(), candidates.end(),
                   [](const Candidate& a, const Candidate& b) {
                     return a.expected_s < b.expected_s;
                   });

  Recommendation rec;
  rec.best = candidates.front();
  rec.ranked = candidates;

  SDR_INFO("tuner: %s for %zu-byte message (%.2fx ideal, %zu candidates)",
           model::scheme_name(rec.best.scheme).c_str(), message_bytes,
           rec.best.slowdown_vs_ideal, candidates.size());

  if (telemetry::enabled()) {
    // Tuner decisions are process-wide owned counters (the tuner is a free
    // function with no instance to scope them to).
    auto& reg = telemetry::registry();
    reg.counter("reliability.tuner.recommendations").inc();
    reg.counter(std::string("reliability.tuner.pick.") +
                model::scheme_name(rec.best.scheme))
        .inc();
  }

  std::ostringstream why;
  const double bdp = bdp_bytes(profile.bandwidth_bps, profile.rtt_s);
  why << model::scheme_name(rec.best.scheme) << ": message "
      << format_bytes(message_bytes) << " vs BDP " << format_bytes(
             static_cast<std::uint64_t>(bdp))
      << ", chunk drop rate " << link.p_drop << ". Expected slowdown "
      << rec.best.slowdown_vs_ideal << "x vs ideal; runner-up "
      << model::scheme_name(rec.ranked.size() > 1 ? rec.ranked[1].scheme
                                                  : rec.best.scheme)
      << " at " << (rec.ranked.size() > 1 ? rec.ranked[1].slowdown_vs_ideal
                                          : rec.best.slowdown_vs_ideal)
      << "x.";
  rec.rationale = why.str();
  return rec;
}

}  // namespace sdr::reliability
