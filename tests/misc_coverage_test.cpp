// Final coverage batch: streaming sends with user immediates, multi-QP
// contexts, UD receive queues, model helpers and histogram weighting not
// exercised elsewhere.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "common/histogram.hpp"
#include "model/ec_model.hpp"
#include "model/link_params.hpp"
#include "sdr/sdr.hpp"
#include "sim/simulator.hpp"
#include "verbs/nic.hpp"

namespace sdr {
namespace {

std::vector<std::uint8_t> pattern(std::size_t n, std::uint8_t seed) {
  std::vector<std::uint8_t> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = static_cast<std::uint8_t>(seed + i * 131);
  }
  return v;
}

// ---------------------------------------------------------------------------
// SDR streaming + user immediate
// ---------------------------------------------------------------------------

class StreamImmFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    sim::Channel::Config cfg;
    cfg.bandwidth_bps = 100e9;
    cfg.distance_km = 10.0;
    cfg.seed = 3;
    pair_ = verbs::make_connected_pair(sim_, cfg, 0.0, 0.0);
    ctx_a_ = std::make_unique<core::Context>(*pair_.a, core::DevAttr{});
    ctx_b_ = std::make_unique<core::Context>(*pair_.b, core::DevAttr{});
    core::QpAttr attr;
    attr.mtu = 1024;
    attr.chunk_size = 1024;
    attr.max_msg_size = 32 * 1024;
    attr.max_inflight = 8;
    qp_a_ = ctx_a_->create_qp(attr);
    qp_b_ = ctx_b_->create_qp(attr);
    qp_a_->connect(qp_b_->info());
    qp_b_->connect(qp_a_->info());
  }

  void TearDown() override {
    ctx_a_.reset();
    ctx_b_.reset();
  }

  sim::Simulator sim_;
  verbs::NicPair pair_;
  std::unique_ptr<core::Context> ctx_a_, ctx_b_;
  core::Qp* qp_a_{nullptr};
  core::Qp* qp_b_{nullptr};
};

TEST_F(StreamImmFixture, StreamingSendCarriesUserImmediate) {
  // The user immediate is sampled across STREAMED chunks, including
  // out-of-order offsets, and reassembles once >= 8 packets arrived.
  const std::size_t len = 16 * 1024;  // 16 packets
  const auto src = pattern(len, 1);
  std::vector<std::uint8_t> dst(len, 0);
  const auto* mr = ctx_b_->mr_reg(dst.data(), dst.size());
  core::RecvHandle* rh = nullptr;
  ASSERT_TRUE(qp_b_->recv_post(dst.data(), len, mr, &rh).is_ok());

  core::SendHandle* sh = nullptr;
  ASSERT_TRUE(qp_a_->send_stream_start(0x1234ABCD, true, &sh).is_ok());
  // Second half first, then the first half.
  ASSERT_TRUE(
      qp_a_->send_stream_continue(sh, src.data() + len / 2, len / 2, len / 2)
          .is_ok());
  ASSERT_TRUE(qp_a_->send_stream_continue(sh, src.data(), 0, len / 2).is_ok());
  ASSERT_TRUE(qp_a_->send_stream_end(sh).is_ok());
  sim_.run();

  EXPECT_TRUE(qp_b_->recv_done(rh));
  EXPECT_EQ(std::memcmp(dst.data(), src.data(), len), 0);
  std::uint32_t imm = 0;
  ASSERT_TRUE(qp_b_->recv_imm_get(rh, &imm).is_ok());
  EXPECT_EQ(imm, 0x1234ABCDu);
  EXPECT_TRUE(qp_a_->send_poll(sh).is_ok());
}

TEST_F(StreamImmFixture, MultipleQpsPerContextAreIndependent) {
  core::QpAttr attr;
  attr.mtu = 1024;
  attr.chunk_size = 1024;
  attr.max_msg_size = 8 * 1024;
  attr.max_inflight = 4;
  core::Qp* qa2 = ctx_a_->create_qp(attr);
  core::Qp* qb2 = ctx_b_->create_qp(attr);
  ASSERT_NE(qa2, nullptr);
  qa2->connect(qb2->info());
  qb2->connect(qa2->info());

  const auto src1 = pattern(4096, 5);
  const auto src2 = pattern(4096, 6);
  std::vector<std::uint8_t> dst1(4096, 0), dst2(4096, 0);
  const auto* mr1 = ctx_b_->mr_reg(dst1.data(), dst1.size());
  const auto* mr2 = ctx_b_->mr_reg(dst2.data(), dst2.size());
  core::RecvHandle *rh1 = nullptr, *rh2 = nullptr;
  ASSERT_TRUE(qp_b_->recv_post(dst1.data(), 4096, mr1, &rh1).is_ok());
  ASSERT_TRUE(qb2->recv_post(dst2.data(), 4096, mr2, &rh2).is_ok());
  core::SendHandle *sh1 = nullptr, *sh2 = nullptr;
  ASSERT_TRUE(qp_a_->send_post(src1.data(), 4096, 0, false, &sh1).is_ok());
  ASSERT_TRUE(qa2->send_post(src2.data(), 4096, 0, false, &sh2).is_ok());
  sim_.run();
  EXPECT_EQ(std::memcmp(dst1.data(), src1.data(), 4096), 0);
  EXPECT_EQ(std::memcmp(dst2.data(), src2.data(), 4096), 0);
}

// ---------------------------------------------------------------------------
// Verbs odds and ends
// ---------------------------------------------------------------------------

TEST(VerbsCoverageTest, UdReceiveQueueConsumedInOrder) {
  sim::Simulator sim;
  sim::Channel::Config cfg;
  cfg.bandwidth_bps = 100e9;
  cfg.distance_km = 10.0;
  cfg.seed = 11;
  verbs::NicPair pair = verbs::make_connected_pair(sim, cfg, 0.0, 0.0);
  verbs::CompletionQueue rx_cq;
  verbs::QpConfig qcfg;
  qcfg.type = verbs::QpType::kUD;
  qcfg.mtu = 1024;
  qcfg.recv_cq = &rx_cq;
  verbs::Qp* tx = pair.a->create_qp(qcfg);
  verbs::Qp* rx = pair.b->create_qp(qcfg);

  std::vector<std::vector<std::uint8_t>> bufs(3,
                                              std::vector<std::uint8_t>(64));
  for (std::size_t i = 0; i < 3; ++i) {
    verbs::RecvWr rwr;
    rwr.wr_id = 100 + i;
    rwr.addr = bufs[i].data();
    rwr.length = bufs[i].size();
    rx->post_recv(rwr);
  }
  for (std::uint32_t i = 0; i < 3; ++i) {
    const auto msg = pattern(32, static_cast<std::uint8_t>(i));
    verbs::SendWr swr;
    swr.local_addr = msg.data();
    swr.length = msg.size();
    swr.with_imm = true;
    swr.imm = i;
    swr.dst_nic = pair.b->id();
    swr.dst_qp = rx->num();
    tx->post_send(swr);
  }
  sim.run();
  ASSERT_EQ(rx_cq.size(), 3u);
  for (std::uint64_t i = 0; i < 3; ++i) {
    const auto cqe = rx_cq.poll_one();
    EXPECT_EQ(cqe->wr_id, 100 + i) << "receives consumed in posting order";
    EXPECT_EQ(cqe->imm, i);
  }
}

// ---------------------------------------------------------------------------
// Model / histogram helpers
// ---------------------------------------------------------------------------

TEST(ModelCoverageTest, LinkParamsFromDistance) {
  const auto link = model::LinkParams::from_distance(400e9, 3750.0, 1e-5,
                                                     64 * 1024);
  EXPECT_NEAR(link.rtt_s, 0.0375, 1e-9);
  EXPECT_DOUBLE_EQ(link.bandwidth_bps, 400e9);
  EXPECT_DOUBLE_EQ(link.p_drop, 1e-5);
}

TEST(ModelCoverageTest, EcFallbackProbabilityGrowsWithSubmessages) {
  model::EcConfig config;
  const double p = 2e-2;
  double prev = 0.0;
  for (std::uint64_t L : {1ull, 4ull, 16ull, 64ull, 256ull}) {
    const double pf = model::ec_fallback_probability(config, p, L);
    EXPECT_GE(pf, prev - 1e-15);
    EXPECT_LE(pf, 1.0);
    prev = pf;
  }
}

TEST(HistogramCoverageTest, WeightedRecordingMatchesRepeated) {
  Histogram a(1e-6, 1e3), b(1e-6, 1e3);
  a.record_n(0.5, 100);
  a.record_n(2.0, 50);
  for (int i = 0; i < 100; ++i) b.record(0.5);
  for (int i = 0; i < 50; ++i) b.record(2.0);
  EXPECT_EQ(a.count(), b.count());
  EXPECT_DOUBLE_EQ(a.mean(), b.mean());
  EXPECT_DOUBLE_EQ(a.percentile(90), b.percentile(90));
  EXPECT_DOUBLE_EQ(a.stddev(), b.stddev());
}

}  // namespace
}  // namespace sdr
