// Tests for the RFC 6298-style RTT estimator and the adaptive-RTO mode of
// the executable SR protocol (paper §4.1.1: "RTO tuning ... can also be
// supported").
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "common/rng.hpp"
#include "reliability/rtt_estimator.hpp"
#include "reliability/sr_protocol.hpp"
#include "sdr/sdr.hpp"
#include "sim/simulator.hpp"
#include "verbs/nic.hpp"

namespace sdr::reliability {
namespace {

TEST(RttEstimatorTest, InitialRtoBeforeSamples) {
  RttEstimator::Params params;
  params.initial_rto_s = 0.5;
  RttEstimator est(params);
  EXPECT_DOUBLE_EQ(est.rto_s(), 0.5);
  EXPECT_EQ(est.samples(), 0u);
}

TEST(RttEstimatorTest, FirstSampleSeedsSrttAndVar) {
  RttEstimator est;
  est.update(0.010);
  EXPECT_DOUBLE_EQ(est.srtt_s(), 0.010);
  EXPECT_DOUBLE_EQ(est.rttvar_s(), 0.005);
  EXPECT_NEAR(est.rto_s(), 0.010 + 4.0 * 0.005, 1e-12);
}

TEST(RttEstimatorTest, ConvergesToStableRtt) {
  RttEstimator est;
  for (int i = 0; i < 200; ++i) est.update(0.025);
  EXPECT_NEAR(est.srtt_s(), 0.025, 1e-6);
  // Variance decays toward zero on constant samples; RTO approaches SRTT.
  EXPECT_LT(est.rto_s(), 0.030);
  EXPECT_GE(est.rto_s(), 0.025);
}

TEST(RttEstimatorTest, VarianceTracksJitter) {
  RttEstimator jittery, stable;
  for (int i = 0; i < 200; ++i) {
    jittery.update(i % 2 == 0 ? 0.020 : 0.030);
    stable.update(0.025);
  }
  EXPECT_GT(jittery.rto_s(), stable.rto_s());
}

TEST(RttEstimatorTest, RtoClampedToBounds) {
  RttEstimator::Params params;
  params.min_rto_s = 0.001;
  RttEstimator est(params);
  est.update(10.0);  // absurd sample
  EXPECT_DOUBLE_EQ(est.rto_s(), RttEstimator::kMaxRtoS);
  RttEstimator tiny(params);
  for (int i = 0; i < 100; ++i) tiny.update(1e-7);
  EXPECT_DOUBLE_EQ(tiny.rto_s(), 0.001);
}

TEST(RttEstimatorTest, IgnoresNonPositiveSamples) {
  RttEstimator est;
  est.update(0.0);
  est.update(-1.0);
  EXPECT_EQ(est.samples(), 0u);
}

// ---------------------------------------------------------------------------
// Adaptive RTO end-to-end
// ---------------------------------------------------------------------------

class AdaptiveSrFixture : public ::testing::Test {
 protected:
  void wire(double p_drop, double static_rto_s, bool adaptive) {
    // Strict reverse dependency order before replacing the NIC pair.
    sender_.reset();
    receiver_.reset();
    ctrl_a_.reset();
    ctrl_b_.reset();
    ctx_a_.reset();
    ctx_b_.reset();
    sim::Channel::Config cfg;
    cfg.bandwidth_bps = 100e9;
    cfg.distance_km = 100.0;  // true RTT = 1 ms
    cfg.seed = 9;
    pair_ = verbs::make_connected_pair(sim_, cfg, p_drop, 0.0);
    ctx_a_ = std::make_unique<core::Context>(*pair_.a, core::DevAttr{});
    ctx_b_ = std::make_unique<core::Context>(*pair_.b, core::DevAttr{});
    core::QpAttr attr;
    attr.mtu = 1024;
    attr.chunk_size = 4096;
    attr.max_msg_size = 256 * 1024;
    attr.max_inflight = 8;
    qp_a_ = ctx_a_->create_qp(attr);
    qp_b_ = ctx_b_->create_qp(attr);
    qp_a_->connect(qp_b_->info());
    qp_b_->connect(qp_a_->info());
    ctrl_a_ = std::make_unique<verbs::ControlLink>(*pair_.a);
    ctrl_b_ = std::make_unique<verbs::ControlLink>(*pair_.b);
    ctrl_a_->connect(pair_.b->id(), ctrl_b_->qp_number());
    ctrl_b_->connect(pair_.a->id(), ctrl_a_->qp_number());

    LinkProfile profile;
    profile.bandwidth_bps = cfg.bandwidth_bps;
    profile.rtt_s = 2.0 * propagation_delay_s(cfg.distance_km);
    profile.mtu = 1024;
    profile.chunk_bytes = 4096;

    SrProtoConfig config;
    config.rto_s = static_rto_s;
    config.adaptive_rto = adaptive;
    config.ack_interval_s = profile.rtt_s / 4.0;
    sender_ = std::make_unique<SrSender>(sim_, *qp_a_, *ctrl_a_, profile,
                                         config);
    receiver_ = std::make_unique<SrReceiver>(sim_, *qp_b_, *ctrl_b_, profile,
                                             config);
  }

  double transfer(std::size_t bytes) {
    static std::vector<std::uint8_t> src;
    src.assign(bytes, 0x3C);
    std::vector<std::uint8_t> dst(bytes, 0);
    const auto* mr = ctx_b_->mr_reg(dst.data(), dst.size());
    const double start = sim_.now().seconds();
    bool ok = false;
    receiver_->expect(dst.data(), bytes, mr, [&](const Status& s) {
      ok = s.is_ok();
    });
    sender_->write(src.data(), bytes, [](const Status&) {});
    sim_.run();
    EXPECT_TRUE(ok);
    EXPECT_EQ(std::memcmp(dst.data(), src.data(), bytes), 0);
    return sim_.now().seconds() - start;
  }

  sim::Simulator sim_;
  verbs::NicPair pair_;
  std::unique_ptr<core::Context> ctx_a_, ctx_b_;
  core::Qp* qp_a_{nullptr};
  core::Qp* qp_b_{nullptr};
  std::unique_ptr<verbs::ControlLink> ctrl_a_, ctrl_b_;
  std::unique_ptr<SrSender> sender_;
  std::unique_ptr<SrReceiver> receiver_;
};

TEST_F(AdaptiveSrFixture, EstimatorLearnsTheChannelRtt) {
  // Static RTO grossly misconfigured (200 ms for a 1 ms channel); after a
  // few lossless messages the estimator must have learned an RTO within a
  // small multiple of the true chunk-ack latency.
  wire(0.0, 0.2, /*adaptive=*/true);
  for (int i = 0; i < 3; ++i) transfer(64 * 1024);
  EXPECT_GT(sender_->rtt_estimator().samples(), 0u);
  EXPECT_LT(sender_->rtt_estimator().rto_s(), 0.02)
      << "learned RTO should approach the ~1-2 ms ack latency";
}

TEST_F(AdaptiveSrFixture, AdaptiveRecoversFasterThanMisconfiguredStatic) {
  // Under loss, a 200 ms static RTO on a 1 ms link pays ~200 ms per drop.
  // The adaptive sender learns the channel during the first message and
  // recovers subsequent drops orders of magnitude faster.
  wire(0.02, 0.2, /*adaptive=*/false);
  double static_total = 0.0;
  for (int i = 0; i < 4; ++i) static_total += transfer(128 * 1024);

  wire(0.02, 0.2, /*adaptive=*/true);
  double adaptive_total = 0.0;
  for (int i = 0; i < 4; ++i) adaptive_total += transfer(128 * 1024);

  EXPECT_LT(adaptive_total, static_total * 0.5)
      << "static=" << static_total << "s adaptive=" << adaptive_total << "s";
}

TEST_F(AdaptiveSrFixture, AdaptiveStillDeliversUnderHeavyLoss) {
  wire(0.15, 0.05, /*adaptive=*/true);
  for (int i = 0; i < 3; ++i) transfer(64 * 1024);
}

// ---------------------------------------------------------------------------
// Property tests (sdrcheck satellite): invariants under randomized sample
// sequences, all driven by the pinned common::Rng.
// ---------------------------------------------------------------------------

TEST(RttEstimatorProperty, RtoAlwaysWithinBounds) {
  Rng rng(0xB0B0);
  for (int trial = 0; trial < 64; ++trial) {
    RttEstimator::Params params;
    params.min_rto_s = 1e-3 * (1.0 + rng.next_double());
    params.initial_rto_s = 1e-4 + 11.0 * rng.next_double();  // may exceed max
    RttEstimator est(params);
    // Samples are log-uniform over 1 us .. 10 s, so both clamp edges are
    // exercised; the invariant must hold before the first sample too.
    ASSERT_GE(est.rto_s(), params.min_rto_s) << "trial " << trial;
    ASSERT_LE(est.rto_s(), RttEstimator::kMaxRtoS) << "trial " << trial;
    for (int step = 0; step < 200; ++step) {
      est.update(std::pow(10.0, -6.0 + 7.0 * rng.next_double()));
      const double rto = est.rto_s();
      ASSERT_GE(rto, params.min_rto_s) << "trial " << trial;
      ASSERT_LE(rto, RttEstimator::kMaxRtoS) << "trial " << trial;
    }
  }
}

TEST(RttEstimatorProperty, ConvergesOnAStableLink) {
  // On a stable link (fixed RTT with small jitter) the estimator must
  // settle: SRTT within the jitter band of the true RTT, and the RTO
  // stable from one sample to the next (no oscillation for the tuner to
  // chase).
  Rng rng(0x57AB1E);
  for (double true_rtt : {1e-3, 0.025, 0.1}) {
    RttEstimator est;
    for (int i = 0; i < 500; ++i) {
      est.update(true_rtt * (1.0 + 0.01 * (rng.next_double() - 0.5)));
    }
    EXPECT_NEAR(est.srtt_s(), true_rtt, 0.02 * true_rtt);
    const double rto_a = est.rto_s();
    est.update(true_rtt);
    const double rto_b = est.rto_s();
    EXPECT_NEAR(rto_b, rto_a, 0.05 * rto_a);
    // Converged RTO stays a sane multiple of the true RTT.
    EXPECT_GE(rto_b, true_rtt);
    EXPECT_LE(rto_b, std::max(4.0 * true_rtt, est.srtt_s() * 4.0));
  }
}

}  // namespace
}  // namespace sdr::reliability
