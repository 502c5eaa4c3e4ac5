// End-to-end tests of the executable Selective Repeat protocol over the SDR
// stack: delivery under loss (data and control directions), NACK mode, ACK
// wire codec, multiple sequential messages.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "reliability/ack_codec.hpp"
#include "reliability/sr_protocol.hpp"
#include "sdr/sdr.hpp"
#include "sim/simulator.hpp"
#include "verbs/nic.hpp"

namespace sdr::reliability {
namespace {

core::QpAttr proto_attr() {
  core::QpAttr attr;
  attr.mtu = 1024;
  attr.chunk_size = 4096;
  attr.max_msg_size = 256 * 1024;
  attr.max_inflight = 8;
  attr.generations = 2;
  return attr;
}

std::vector<std::uint8_t> pattern(std::size_t n, std::uint8_t seed = 1) {
  std::vector<std::uint8_t> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = static_cast<std::uint8_t>(seed + i * 131 + (i >> 9));
  }
  return v;
}

class SrProtoFixture : public ::testing::Test {
 protected:
  void wire(double p_drop_fwd, double p_drop_bwd, bool nack = false) {
    // Strict reverse dependency order before replacing the NIC pair.
    sender_.reset();
    receiver_.reset();
    ctrl_a_.reset();
    ctrl_b_.reset();
    ctx_a_.reset();
    ctx_b_.reset();
    sim::Channel::Config cfg;
    cfg.bandwidth_bps = 100e9;
    cfg.distance_km = 100.0;  // 1 ms RTT
    cfg.seed = 5;
    pair_ = verbs::make_connected_pair(sim_, cfg, p_drop_fwd, p_drop_bwd);
    ctx_a_ = std::make_unique<core::Context>(*pair_.a, core::DevAttr{});
    ctx_b_ = std::make_unique<core::Context>(*pair_.b, core::DevAttr{});
    qp_a_ = ctx_a_->create_qp(proto_attr());
    qp_b_ = ctx_b_->create_qp(proto_attr());
    qp_a_->connect(qp_b_->info());
    qp_b_->connect(qp_a_->info());

    ctrl_a_ = std::make_unique<ControlLink>(*pair_.a);
    ctrl_b_ = std::make_unique<ControlLink>(*pair_.b);
    ctrl_a_->connect(pair_.b->id(), ctrl_b_->qp_number());
    ctrl_b_->connect(pair_.a->id(), ctrl_a_->qp_number());

    profile_.bandwidth_bps = cfg.bandwidth_bps;
    profile_.rtt_s = 2.0 * propagation_delay_s(cfg.distance_km);
    profile_.p_drop_packet = p_drop_fwd;
    profile_.mtu = proto_attr().mtu;
    profile_.chunk_bytes = proto_attr().chunk_size;

    SrProtoConfig config;
    config.rto_s = 3.0 * profile_.rtt_s;
    config.ack_interval_s = profile_.rtt_s / 4.0;
    config.nack_enabled = nack;
    config.nack_holdoff_s = profile_.rtt_s;
    sender_ = std::make_unique<SrSender>(sim_, *qp_a_, *ctrl_a_, profile_,
                                         config);
    receiver_ = std::make_unique<SrReceiver>(sim_, *qp_b_, *ctrl_b_, profile_,
                                             config);
  }

  void transfer(std::size_t bytes, std::uint8_t seed) {
    const auto src = pattern(bytes, seed);
    std::vector<std::uint8_t> dst(bytes, 0);
    const auto* mr = ctx_b_->mr_reg(dst.data(), dst.size());
    bool send_done = false, recv_done = false;
    ASSERT_TRUE(receiver_
                    ->expect(dst.data(), bytes, mr,
                             [&](const Status& s) {
                               EXPECT_TRUE(s.is_ok());
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
    sim_.run();
    EXPECT_TRUE(send_done) << "sender never saw the final ACK";
    EXPECT_TRUE(recv_done) << "receiver never completed";
    EXPECT_EQ(std::memcmp(dst.data(), src.data(), bytes), 0);
  }

  sim::Simulator sim_;
  verbs::NicPair pair_;
  std::unique_ptr<core::Context> ctx_a_, ctx_b_;
  core::Qp* qp_a_{nullptr};
  core::Qp* qp_b_{nullptr};
  std::unique_ptr<ControlLink> ctrl_a_, ctrl_b_;
  LinkProfile profile_;
  std::unique_ptr<SrSender> sender_;
  std::unique_ptr<SrReceiver> receiver_;
};

TEST_F(SrProtoFixture, LosslessDelivery) {
  wire(0.0, 0.0);
  transfer(64 * 1024, 1);
  EXPECT_EQ(sender_->stats().retransmissions, 0u);
}

TEST_F(SrProtoFixture, DeliveryUnderModerateLoss) {
  wire(0.02, 0.0);
  transfer(128 * 1024, 2);
  EXPECT_GT(sender_->stats().retransmissions, 0u);
}

TEST_F(SrProtoFixture, DeliveryUnderHeavyLoss) {
  wire(0.2, 0.0);
  transfer(64 * 1024, 3);
  EXPECT_GT(sender_->stats().retransmissions, 0u);
}

TEST_F(SrProtoFixture, SurvivesControlPathLoss) {
  // ACKs can be dropped too: RTO retransmissions and repeated final ACKs
  // must still converge.
  wire(0.05, 0.05);
  transfer(64 * 1024, 4);
}

TEST_F(SrProtoFixture, NackModeRecovers) {
  wire(0.05, 0.0, /*nack=*/true);
  transfer(128 * 1024, 5);
  EXPECT_GT(receiver_->stats().nacks_sent, 0u);
}

TEST_F(SrProtoFixture, SequentialMessagesReuseSlots) {
  wire(0.02, 0.0);
  for (int i = 0; i < 20; ++i) {
    transfer(16 * 1024, static_cast<std::uint8_t>(i + 1));
  }
  EXPECT_EQ(sender_->stats().messages, 20u);
  EXPECT_EQ(receiver_->stats().messages, 20u);
}

TEST_F(SrProtoFixture, NonChunkAlignedLength) {
  wire(0.01, 0.0);
  transfer(10 * 1024 + 512, 6);  // partial final chunk
}

TEST_F(SrProtoFixture, SingleChunkMessage) {
  wire(0.05, 0.0);
  transfer(4096, 7);
  transfer(1024, 8);  // sub-chunk message
}

TEST_F(SrProtoFixture, EmptyWriteRejected) {
  wire(0.0, 0.0);
  EXPECT_EQ(sender_->write(nullptr, 0, nullptr).code(),
            StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// ACK wire codec
// ---------------------------------------------------------------------------

TEST(AckCodecTest, RoundTripAck) {
  ControlMessage msg;
  msg.type = ControlType::kSrAck;
  msg.msg_number = 0x123456789ABCDEFull;
  msg.cumulative = 77;
  msg.selective_base = 64;
  msg.selective = {0xDEADBEEFCAFEF00Dull, 0x1ull};
  std::vector<std::uint8_t> wire;
  encode_control(msg, wire);
  ControlMessage decoded;
  ASSERT_TRUE(decode_control(wire.data(), wire.size(), decoded));
  EXPECT_EQ(decoded, msg);
}

TEST(AckCodecTest, RoundTripNackWithIndices) {
  ControlMessage msg;
  msg.type = ControlType::kEcNack;
  msg.msg_number = 42;
  msg.indices = {1, 5, 1000, 65535};
  std::vector<std::uint8_t> wire;
  encode_control(msg, wire);
  ControlMessage decoded;
  ASSERT_TRUE(decode_control(wire.data(), wire.size(), decoded));
  EXPECT_EQ(decoded, msg);
}

TEST(AckCodecTest, TruncatedInputRejected) {
  ControlMessage msg;
  msg.type = ControlType::kSrAck;
  msg.selective = {1, 2, 3};
  std::vector<std::uint8_t> wire;
  encode_control(msg, wire);
  ControlMessage decoded;
  for (std::size_t cut = 0; cut < wire.size(); ++cut) {
    EXPECT_FALSE(decode_control(wire.data(), cut, decoded)) << cut;
  }
}

TEST(AckCodecTest, GarbageTypeRejected) {
  ControlMessage msg;
  std::vector<std::uint8_t> wire;
  encode_control(msg, wire);
  wire[0] = 99;
  ControlMessage decoded;
  EXPECT_FALSE(decode_control(wire.data(), wire.size(), decoded));
}

TEST(AckCodecTest, EmptyPayloadsRoundTrip) {
  ControlMessage msg;
  msg.type = ControlType::kEcAck;
  msg.msg_number = 7;
  std::vector<std::uint8_t> wire;
  encode_control(msg, wire);
  ControlMessage decoded;
  ASSERT_TRUE(decode_control(wire.data(), wire.size(), decoded));
  EXPECT_EQ(decoded, msg);
}

}  // namespace
}  // namespace sdr::reliability
