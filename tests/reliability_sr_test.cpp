// End-to-end tests of the executable Selective Repeat protocol over the SDR
// stack: delivery under loss (data and control directions), NACK mode, ACK
// wire codec, multiple sequential messages; and unit tests of the
// retransmitter every retransmitting path shares.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "reliability/ack_codec.hpp"
#include "reliability/selective_repeat.hpp"
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

    ctrl_a_ = std::make_unique<verbs::ControlLink>(*pair_.a);
    ctrl_b_ = std::make_unique<verbs::ControlLink>(*pair_.b);
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
  std::unique_ptr<verbs::ControlLink> ctrl_a_, ctrl_b_;
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

TEST_F(SrProtoFixture, NoAckBeforeTheFirstChunk) {
  // A receive posted 3 RTT before its write has nothing to acknowledge:
  // until data lands the receiver's one timer is the CTS retry (due at
  // 4 RTT), so its control link stays silent.
  wire(0.0, 0.0);
  const std::size_t bytes = 64 * 1024;
  const auto src = pattern(bytes, 9);
  std::vector<std::uint8_t> dst(bytes, 0);
  const auto* mr = ctx_b_->mr_reg(dst.data(), dst.size());
  bool send_done = false, recv_done = false;
  ASSERT_TRUE(receiver_
                  ->expect(dst.data(), bytes, mr,
                           [&](const Status& s) { recv_done = s.is_ok(); })
                  .is_ok());
  sim_.run_until(sim_.now() + SimTime::from_seconds(3.0 * profile_.rtt_s));
  EXPECT_EQ(receiver_->stats().acks_sent, 0u);
  EXPECT_EQ(ctrl_b_->sent(), 0u);

  ASSERT_TRUE(sender_
                  ->write(src.data(), bytes,
                          [&](const Status& s) { send_done = s.is_ok(); })
                  .is_ok());
  sim_.run();
  EXPECT_TRUE(send_done);
  EXPECT_TRUE(recv_done);
  EXPECT_EQ(std::memcmp(dst.data(), src.data(), bytes), 0);
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

// ---------------------------------------------------------------------------
// Retransmitter
// ---------------------------------------------------------------------------

/// One Retransmitter whose streams are keyed by their index here; every
/// resend "injects" successfully and is logged with its time.
struct RetxHarness {
  struct Resend {
    double t_s;
    std::uint64_t key;
    std::size_t chunk;
    bool expired;
  };

  explicit RetxHarness(SrProtoConfig config)
      : streams(1),
        retx(sim, config, profile(), telemetry::ProfCategory::kSr,
             [this](std::uint64_t key, std::size_t chunk, bool expired) {
               resends.push_back({sim.now().seconds(), key, chunk, expired});
               return true;
             }) {}

  static LinkProfile profile() {
    LinkProfile p;
    p.rtt_s = 1e-4;
    return p;
  }

  /// Open stream `key` with `chunks` chunks, sent now, and start it.
  Retransmitter::Stream& open(std::uint64_t key, std::size_t chunks) {
    Retransmitter::Stream& s = streams[key];
    s.reset(chunks);
    retx.start(s, key);
    return s;
  }

  void run_for(double seconds) {
    sim.run_until(sim.now() + SimTime::from_seconds(seconds));
  }

  sim::Simulator sim;
  std::vector<Retransmitter::Stream> streams;
  std::vector<Resend> resends;
  Retransmitter retx;
};

SrProtoConfig static_rto(double rto_s) {
  SrProtoConfig config;
  config.rto_s = rto_s;
  config.ack_interval_s = 1e-5;
  return config;
}

TEST(RetransmitterTest, BackoffDoublesUpTo16xWithJitterBelowAQuarter) {
  constexpr double kRto = 1e-3;
  constexpr std::size_t kChunks = 8;
  RetxHarness h(static_rto(kRto));
  h.open(0, kChunks);
  h.run_for(3.0);

  // The n-th timeout of a chunk waits RTO * 2^min(n, 4) * jitter, with
  // jitter in [1, 1.25). Timestamps are whole nanoseconds.
  std::vector<double> last(kChunks, 0.0);
  std::vector<int> fired(kChunks, 0);
  double min_jitter = 2.0, max_jitter = 0.0;
  for (const auto& r : h.resends) {
    ASSERT_TRUE(r.expired);
    const double backoff =
        static_cast<double>(1 << std::min(fired[r.chunk], 4));
    const double jitter = (r.t_s - last[r.chunk]) / (kRto * backoff);
    EXPECT_GE(jitter, 1.0 - 1e-6) << "chunk " << r.chunk;
    EXPECT_LT(jitter, 1.25 + 1e-6) << "chunk " << r.chunk;
    min_jitter = std::min(min_jitter, jitter);
    max_jitter = std::max(max_jitter, jitter);
    last[r.chunk] = r.t_s;
    ++fired[r.chunk];
  }
  for (std::size_t c = 0; c < kChunks; ++c) {
    // 3 s covers the 2+4+8 RTO ramp and then > 100 capped timeouts.
    EXPECT_GT(fired[c], 100) << "chunk " << c;
    EXPECT_EQ(h.streams[0].chunks[c].retries, 8u) << "retries saturate";
  }
  EXPECT_GT(max_jitter - min_jitter, 0.2) << "jitter must spread the timers";
}

TEST(RetransmitterTest, KarnSamplesOnlyFirstTransmissions) {
  SrProtoConfig config = static_rto(0.01);
  config.adaptive_rto = true;
  RetxHarness h(config);
  Retransmitter::Stream& s = h.open(0, 2);
  h.run_for(1e-3);
  h.retx.retransmit(s, 0, 1);  // a NACK resends chunk 1
  h.run_for(1e-3);

  ControlMessage ack;
  reset_control(ack, ControlType::kSrAck, 0);
  ack.cumulative = 2;
  std::vector<double> samples(2, 0.0);
  h.retx.apply_ack(s, ack, [&](std::size_t c, double sample_s) {
    samples[c] = sample_s;
  });
  EXPECT_NEAR(samples[0], 2e-3, 1e-9);
  EXPECT_LT(samples[1], 0.0) << "a retransmitted chunk yields no sample";
  EXPECT_EQ(h.retx.estimator().samples(), 1u);
  EXPECT_NEAR(h.retx.estimator().srtt_s(), 2e-3, 1e-9);
}

TEST(RetransmitterTest, ChunkQueuedBeforeTheCtsIsMeasuredFromIt) {
  RetxHarness h(static_rto(0.1));
  Retransmitter::Stream& s = h.streams[0];
  s.reset(1);  // sent now, queued behind the CTS
  h.run_for(5e-3);
  h.retx.start(s, 0);  // the CTS arrives
  h.run_for(1e-3);
  double sample_s = 0.0;
  ASSERT_TRUE(h.retx.ack_chunk(s, 0, sample_s));
  EXPECT_NEAR(sample_s, 1e-3, 1e-9);
}

TEST(RetransmitterTest, EachChunkIsAckedOnce) {
  RetxHarness h(static_rto(1e-3));
  Retransmitter::Stream& s = h.open(0, 130);
  std::vector<int> acked(130, 0);
  const auto count = [&](std::size_t c, double) { ++acked[c]; };

  ControlMessage ack;
  reset_control(ack, ControlType::kSrAck, 0);
  ack.cumulative = 3;
  ack.selective = {(1ULL << 2) | (1ULL << 5), 1ULL << 1};
  h.retx.apply_ack(s, ack, count);
  // Overlapping ACK: a later cumulative point and a window past the end.
  reset_control(ack, ControlType::kSrAck, 0);
  ack.cumulative = 7;
  ack.selective_base = 64;
  ack.selective = {(1ULL << 1) | (1ULL << 2), ~0ULL, ~0ULL};
  h.retx.apply_ack(s, ack, count);

  std::size_t distinct = 0;
  for (std::size_t c = 0; c < acked.size(); ++c) {
    EXPECT_LE(acked[c], 1) << "chunk " << c;
    distinct += static_cast<std::size_t>(acked[c]);
  }
  // [0, 7), 65, 66 and 128..129 from the third window word.
  EXPECT_EQ(distinct, 7u + 2u + 2u);
  EXPECT_EQ(s.acked_count, distinct);
  double sample_s = 0.0;
  EXPECT_FALSE(h.retx.ack_chunk(s, 0, sample_s));

  // Acked chunks lost their timers; only the others expire, once each by
  // 1.25 RTO.
  h.run_for(1.3e-3);
  for (const auto& r : h.resends) EXPECT_EQ(acked[r.chunk], 0) << r.chunk;
  EXPECT_EQ(h.resends.size(), 130u - distinct);
}

TEST(RetransmitterTest, SetStaticRtoLeavesArmedTimersAlone) {
  RetxHarness h(static_rto(10e-3));
  h.open(0, 1);
  h.retx.set_static_rto(1e-3);
  h.run_for(9.9e-3);
  EXPECT_TRUE(h.resends.empty()) << "the armed timer kept its 10 ms RTO";
  h.run_for(15e-3);
  ASSERT_GE(h.resends.size(), 2u);
  EXPECT_GE(h.resends[0].t_s, 10e-3 - 1e-9);
  EXPECT_LT(h.resends[0].t_s, 12.5e-3);
  // Re-armed after the retransmission: the new RTO, backed off once.
  const double next = h.resends[1].t_s - h.resends[0].t_s;
  EXPECT_GE(next, 2e-3 - 1e-9);
  EXPECT_LT(next, 2.5e-3);
}

}  // namespace
}  // namespace sdr::reliability
