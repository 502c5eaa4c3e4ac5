// End-to-end tests of the executable EC reliability protocol: in-place
// recovery from drops via parity, clean path without fallback, FTO-driven
// SR fallback when losses exceed the code's tolerance, XOR vs MDS behavior,
// poll-free waiting for the CTS and back-to-back slot reuse.
#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <vector>

#include "ec/reed_solomon.hpp"
#include "ec/xor_code.hpp"
#include "reliability/ec_protocol.hpp"
#include "sdr/sdr.hpp"
#include "sim/simulator.hpp"
#include "verbs/nic.hpp"

namespace sdr::reliability {
namespace {

core::QpAttr proto_attr() {
  core::QpAttr attr;
  attr.mtu = 1024;
  attr.chunk_size = 1024;          // 1 packet per chunk: fine-grained EC
  attr.max_msg_size = 64 * 1024;   // submessages: k chunks each
  attr.max_inflight = 64;          // data + parity submessages in flight
  attr.generations = 2;
  return attr;
}

std::vector<std::uint8_t> pattern(std::size_t n, std::uint8_t seed = 1) {
  std::vector<std::uint8_t> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = static_cast<std::uint8_t>(seed * 3 + i * 197 + (i >> 10));
  }
  return v;
}

class EcProtoFixture : public ::testing::Test {
 protected:
  void wire(double p_drop_fwd, double p_drop_bwd, bool use_xor = false,
            std::size_t k = 8, std::size_t m = 4) {
    // Tear down in strict reverse dependency order before replacing the
    // NIC pair: protocols reference QPs/controls, controls and contexts
    // reference the NICs.
    sender_.reset();
    receiver_.reset();
    ctrl_a_.reset();
    ctrl_b_.reset();
    ctx_a_.reset();
    ctx_b_.reset();
    sim::Channel::Config cfg;
    cfg.bandwidth_bps = 100e9;
    cfg.distance_km = distance_km_;
    cfg.seed = 23;
    pair_ = verbs::make_connected_pair(sim_, cfg, p_drop_fwd, p_drop_bwd);
    ctx_a_ = std::make_unique<core::Context>(*pair_.a, core::DevAttr{});
    ctx_b_ = std::make_unique<core::Context>(*pair_.b, core::DevAttr{});
    qp_a_ = ctx_a_->create_qp(attr_);
    qp_b_ = ctx_b_->create_qp(attr_);
    qp_a_->connect(qp_b_->info());
    qp_b_->connect(qp_a_->info());

    ctrl_a_ = std::make_unique<verbs::ControlLink>(*pair_.a);
    ctrl_b_ = std::make_unique<verbs::ControlLink>(*pair_.b);
    ctrl_a_->connect(pair_.b->id(), ctrl_b_->qp_number());
    ctrl_b_->connect(pair_.a->id(), ctrl_a_->qp_number());

    profile_.bandwidth_bps = cfg.bandwidth_bps;
    profile_.rtt_s = 2.0 * propagation_delay_s(cfg.distance_km);
    profile_.p_drop_packet = p_drop_fwd;
    profile_.mtu = attr_.mtu;
    profile_.chunk_bytes = attr_.chunk_size;

    if (use_xor) {
      codec_ = std::make_unique<ec::XorCode>(k, m);
    } else {
      codec_ = std::make_unique<ec::ReedSolomon>(k, m);
    }
    EcProtoConfig config;
    config.k = k;
    config.m = m;
    SrProtoConfig sr;
    sr.rto_s = 3.0 * profile_.rtt_s;
    sr.ack_interval_s = profile_.rtt_s / 4.0;
    sender_ = std::make_unique<EcSender>(sim_, *qp_a_, *ctrl_a_, profile_,
                                         *codec_, config, sr);
    receiver_ = std::make_unique<EcReceiver>(sim_, *qp_b_, *ctrl_b_,
                                             profile_, *codec_, config);
  }

  void transfer(std::size_t bytes, std::uint8_t seed,
                bool expect_ok = true) {
    const auto src = pattern(bytes, seed);
    std::vector<std::uint8_t> dst(bytes, 0);
    const auto* mr = ctx_b_->mr_reg(dst.data(), dst.size());
    bool send_done = false, recv_done = false;
    ASSERT_TRUE(receiver_
                    ->expect(dst.data(), bytes, mr,
                             [&](const Status& s) {
                               EXPECT_EQ(s.is_ok(), expect_ok);
                               recv_done = true;
                             })
                    .is_ok());
    ASSERT_TRUE(sender_
                    ->write(src.data(), bytes,
                            [&](const Status& s) {
                              EXPECT_TRUE(s.is_ok());
                              send_done = true;
                            })
                    .is_ok());
    events_ = sim_.run();
    EXPECT_TRUE(recv_done);
    if (expect_ok) {
      EXPECT_TRUE(send_done);
      EXPECT_EQ(std::memcmp(dst.data(), src.data(), bytes), 0);
    }
  }

  // Set before wire() to change the link length or the core's table.
  double distance_km_ = 100.0;
  core::QpAttr attr_ = proto_attr();
  std::uint64_t events_{0};  // events the last transfer() ran

  sim::Simulator sim_;
  verbs::NicPair pair_;
  std::unique_ptr<core::Context> ctx_a_, ctx_b_;
  core::Qp* qp_a_{nullptr};
  core::Qp* qp_b_{nullptr};
  std::unique_ptr<verbs::ControlLink> ctrl_a_, ctrl_b_;
  LinkProfile profile_;
  std::unique_ptr<ec::ErasureCodec> codec_;
  std::unique_ptr<EcSender> sender_;
  std::unique_ptr<EcReceiver> receiver_;
};

TEST_F(EcProtoFixture, LosslessCleanPath) {
  wire(0.0, 0.0);
  transfer(32 * 1024, 1);  // 4 submessages of 8 KiB
  EXPECT_EQ(receiver_->stats().decoded_submessages, 0u);
  EXPECT_EQ(receiver_->stats().clean_submessages, 4u);
  EXPECT_EQ(receiver_->stats().ftos_fired, 0u);
  EXPECT_EQ(sender_->stats().ec_nacks, 0u);
}

TEST_F(EcProtoFixture, RecoversDropsInPlaceWithoutRetransmission) {
  // With k=8, m=4 (tolerates 4 losses per submessage) and 3% loss, parity
  // almost always recovers: no FTO, no retransmission (Fig 8 right).
  wire(0.03, 0.0);
  transfer(64 * 1024, 2);  // 8 submessages
  EXPECT_GT(receiver_->stats().decoded_submessages +
                receiver_->stats().clean_submessages,
            7u);
  EXPECT_EQ(sender_->stats().fallback_retransmissions, 0u);
  EXPECT_GT(receiver_->stats().decoded_submessages, 0u)
      << "3% loss over 512 packets should require at least one decode";
}

TEST_F(EcProtoFixture, FallsBackToSrUnderExcessiveLoss) {
  // 30% loss overwhelms RS(8,4) regularly: the FTO fires, failed
  // submessages are selectively repeated, and delivery still completes.
  wire(0.30, 0.0);
  transfer(32 * 1024, 3);
  EXPECT_GT(receiver_->stats().ftos_fired, 0u);
  EXPECT_GT(receiver_->stats().fallback_submessages, 0u);
  EXPECT_GT(sender_->stats().fallback_retransmissions, 0u);
}

TEST_F(EcProtoFixture, XorRecoversLightLoss) {
  wire(0.01, 0.0, /*use_xor=*/true);
  transfer(32 * 1024, 4);
}

TEST_F(EcProtoFixture, XorFallsBackEarlierThanMds) {
  // Fig 11 narrative: XOR trades CPU efficiency for resilience. At the
  // same loss rate XOR should need fallback (strictly weaker tolerance)
  // while MDS recovers in place. Compare fallback counts statistically.
  wire(0.08, 0.0, /*use_xor=*/true);
  for (int i = 0; i < 6; ++i) transfer(32 * 1024, static_cast<std::uint8_t>(i));
  const auto xor_ftos = receiver_->stats().ftos_fired;

  wire(0.08, 0.0, /*use_xor=*/false);
  for (int i = 0; i < 6; ++i) transfer(32 * 1024, static_cast<std::uint8_t>(i));
  const auto mds_ftos = receiver_->stats().ftos_fired;
  EXPECT_GT(xor_ftos, mds_ftos);
}

TEST_F(EcProtoFixture, SequentialMessages) {
  wire(0.05, 0.0);
  for (int i = 0; i < 8; ++i) {
    transfer(16 * 1024, static_cast<std::uint8_t>(10 + i));
  }
  EXPECT_EQ(sender_->stats().messages, 8u);
}

TEST_F(EcProtoFixture, SurvivesControlLoss) {
  wire(0.10, 0.05);
  transfer(32 * 1024, 5);
}

TEST_F(EcProtoFixture, MisalignedLengthRejected) {
  wire(0.0, 0.0);
  std::vector<std::uint8_t> buf(10 * 1024);
  const auto* mr = ctx_b_->mr_reg(buf.data(), buf.size());
  EXPECT_EQ(receiver_->expect(buf.data(), 10 * 1024 + 1, mr, nullptr).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(sender_->write(buf.data(), 1000, nullptr).code(),
            StatusCode::kInvalidArgument);
}

TEST_F(EcProtoFixture, ParityBandwidthAccounting) {
  wire(0.0, 0.0);
  transfer(32 * 1024, 6);  // 4 submessages x (8 data + 4 parity) chunks
  EXPECT_EQ(sender_->stats().data_chunks_sent, 32u);
  EXPECT_EQ(sender_->stats().parity_chunks_sent, 16u);
}

TEST_F(EcProtoFixture, WaitingForTheCtsCostsNoEvents) {
  // Parity sends cannot leave before the receiver's CTS, one one-way delay
  // after posting. They are released when the message finishes instead of
  // being polled meanwhile, so a 50x longer link costs (almost) no extra
  // events: the same packets, CTSes, ACKs and timers fire either way.
  distance_km_ = 100.0;
  wire(0.0, 0.0);
  transfer(32 * 1024, 7);
  const std::uint64_t near = events_;
  distance_km_ = 5000.0;
  wire(0.0, 0.0);
  transfer(32 * 1024, 7);
  const std::uint64_t far = events_;
  EXPECT_GT(near, 0u);
  EXPECT_LE(far, near + near / 20) << "100 km: " << near << " events, "
                                   << "5000 km: " << far << " events";
}

TEST_F(EcProtoFixture, BackToBackMessagesFitTheSmallestTable) {
  // A window of kWindow messages of kSubs submessages holds 2 * kSubs
  // core messages each (data + parity). With exactly that many table slots,
  // each message's successor in the window wraps onto its slots, and every
  // slot must already be free again when the done callback posts it.
  constexpr std::size_t kWindow = 4;
  constexpr std::size_t kSubs = 2;
  constexpr int kMessages = 40;
  constexpr std::size_t kBytes = kSubs * 8 * 1024;  // k = 8 chunks of 1 KiB
  attr_.max_inflight = 2 * kSubs * kWindow;
  wire(0.0, 0.0);

  const auto src = pattern(kBytes, 9);
  std::vector<std::uint8_t> dst(kWindow * kBytes, 0);
  const auto* mr = ctx_b_->mr_reg(dst.data(), dst.size());
  int expected = 0, written = 0, received = 0, sent = 0;
  std::vector<Status> failures;
  std::function<void()> post_recv, post_send;
  post_recv = [&] {
    if (expected == kMessages) return;
    std::uint8_t* buf = dst.data() + (expected++ % kWindow) * kBytes;
    const Status st = receiver_->expect(buf, kBytes, mr, [&](const Status& s) {
      if (!s) failures.push_back(s);
      ++received;
      post_recv();
    });
    if (!st) failures.push_back(st);
  };
  post_send = [&] {
    if (written == kMessages) return;
    ++written;
    const Status st = sender_->write(src.data(), kBytes, [&](const Status& s) {
      if (!s) failures.push_back(s);
      ++sent;
      post_send();
    });
    if (!st) failures.push_back(st);
  };
  for (std::size_t w = 0; w < kWindow; ++w) {
    post_recv();
    post_send();
  }
  sim_.run();

  for (const Status& st : failures) ADD_FAILURE() << st;
  EXPECT_EQ(received, kMessages);
  EXPECT_EQ(sent, kMessages);
  for (std::size_t w = 0; w < kWindow; ++w) {
    EXPECT_EQ(std::memcmp(dst.data() + w * kBytes, src.data(), kBytes), 0);
  }
}

}  // namespace
}  // namespace sdr::reliability
