// Tests for the guided reliability-scheme tuner (paper §5.2): it must
// reproduce the paper's regime map — EC for BDP-scale messages at moderate
// drop rates, SR for huge messages at low drop rates and for tiny messages.
#include <gtest/gtest.h>

#include "reliability/tuner.hpp"

namespace sdr::reliability {
namespace {

LinkProfile cross_continent(double p_drop_packet) {
  LinkProfile p;
  p.bandwidth_bps = 400e9;
  p.rtt_s = 0.025;  // 3750 km
  p.p_drop_packet = p_drop_packet;
  p.mtu = 4096;
  p.chunk_bytes = 64 * 1024;
  return p;
}

TunerOptions fast_options() {
  TunerOptions opt;
  opt.tail_samples = 0;  // expectation-only for speed
  return opt;
}

TEST(TunerTest, EcWinsInTheRedRegion) {
  // Fig 9: 128 MiB at packet drop 1e-5..1e-3 -> EC outperforms SR.
  for (double p : {1e-5, 1e-4}) {
    const auto rec = recommend(cross_continent(p), 128u << 20, fast_options());
    EXPECT_TRUE(rec.best.scheme == model::Scheme::kEcMds ||
                rec.best.scheme == model::Scheme::kEcXor)
        << "p=" << p << " chose " << model::scheme_name(rec.best.scheme);
  }
}

TEST(TunerTest, SrWinsForHugeMessagesAtLowDrop) {
  // §5.2.2: 8 GiB at 1e-6 packet drop — injection hides retransmissions.
  const auto rec =
      recommend(cross_continent(1e-7), 8ull << 30, fast_options());
  EXPECT_TRUE(rec.best.scheme == model::Scheme::kSrRto ||
              rec.best.scheme == model::Scheme::kSrNack)
      << model::scheme_name(rec.best.scheme);
}

TEST(TunerTest, SmallMessagesDoNotJustifyEcCompute) {
  // Bottom rows of Fig 9: for small messages SR and EC tie; the ranking
  // must place an SR variant within a whisker of the best.
  const auto rec = recommend(cross_continent(1e-5), 64u << 10, fast_options());
  double best_sr = 1e30;
  for (const auto& c : rec.ranked) {
    if (c.scheme == model::Scheme::kSrRto ||
        c.scheme == model::Scheme::kSrNack) {
      best_sr = std::min(best_sr, c.expected_s);
    }
  }
  EXPECT_LT(best_sr / rec.best.expected_s, 1.05);
}

TEST(TunerTest, RankedListSortedAndComplete) {
  TunerOptions opt = fast_options();
  const auto rec = recommend(cross_continent(1e-4), 128u << 20, opt);
  // SR RTO + SR NACK + (MDS + XOR) x 4 splits = 10 candidates.
  EXPECT_EQ(rec.ranked.size(), 10u);
  for (std::size_t i = 1; i < rec.ranked.size(); ++i) {
    EXPECT_LE(rec.ranked[i - 1].expected_s, rec.ranked[i].expected_s + 1e-15);
  }
  EXPECT_EQ(rec.ranked.front().expected_s, rec.best.expected_s);
  EXPECT_FALSE(rec.rationale.empty());
}

TEST(TunerTest, HigherDropPrefersMoreParity) {
  // Fig 10d: at higher drop rates lower data-to-parity ratios win among
  // the MDS splits.
  TunerOptions opt = fast_options();
  auto best_mds_ratio = [&](double p) {
    const auto rec = recommend(cross_continent(p), 128u << 20, opt);
    for (const auto& c : rec.ranked) {
      if (c.scheme == model::Scheme::kEcMds) {
        return static_cast<double>(c.params.ec.k) /
               static_cast<double>(c.params.ec.m);
      }
    }
    return 0.0;
  };
  EXPECT_GE(best_mds_ratio(1e-6), best_mds_ratio(2e-3));
}

TEST(TunerTest, ProfileChunkDropConversion) {
  // LinkProfile -> model params applies 1-(1-p)^N chunk amplification.
  const LinkProfile prof = cross_continent(1e-5);
  const auto link = prof.to_model();
  EXPECT_NEAR(link.p_drop, 1.6e-4, 2e-6);  // 16 packets per 64 KiB chunk
  EXPECT_EQ(link.chunk_bytes, prof.chunk_bytes);
}

// ---------------------------------------------------------------------------
// Property tests (sdrcheck satellite): the recommendation must be a pure,
// reproducible function of its inputs, and stable on a stable link —
// re-profiling an unchanged channel must not flip the scheme choice.
// ---------------------------------------------------------------------------

TEST(TunerProperty, RecommendationIsDeterministic) {
  TunerOptions opt;
  opt.tail_samples = 500;  // exercise the sampled-tail path, seeded
  for (double p : {1e-6, 1e-4, 1e-3}) {
    const auto a = recommend(cross_continent(p), 32u << 20, opt);
    const auto b = recommend(cross_continent(p), 32u << 20, opt);
    ASSERT_EQ(a.ranked.size(), b.ranked.size());
    EXPECT_EQ(a.best.scheme, b.best.scheme);
    EXPECT_DOUBLE_EQ(a.best.expected_s, b.best.expected_s);
    EXPECT_DOUBLE_EQ(a.best.p999_s, b.best.p999_s);
    for (std::size_t i = 0; i < a.ranked.size(); ++i) {
      EXPECT_EQ(a.ranked[i].scheme, b.ranked[i].scheme);
      EXPECT_DOUBLE_EQ(a.ranked[i].expected_s, b.ranked[i].expected_s);
    }
  }
}

TEST(TunerProperty, ConvergesOnAStableLink) {
  // Feed the tuner a profile whose RTT estimate wobbles within a converged
  // estimator's band (±2%, per RttEstimatorProperty.ConvergesOnAStableLink)
  // — the recommended scheme must not flip.
  TunerOptions opt = fast_options();
  for (double p : {1e-6, 1e-4}) {
    const auto baseline = recommend(cross_continent(p), 64u << 20, opt);
    for (double wobble : {0.98, 0.99, 1.01, 1.02}) {
      LinkProfile prof = cross_continent(p);
      prof.rtt_s *= wobble;
      const auto rec = recommend(prof, 64u << 20, opt);
      EXPECT_EQ(rec.best.scheme, baseline.best.scheme)
          << "p=" << p << " wobble=" << wobble;
    }
  }
}

}  // namespace
}  // namespace sdr::reliability
