// Tests for the eager small-message path of ReliableChannel: latency
// advantage over the rendezvous (CTS-gated) path, correctness under control
// loss, mixing eager and rendezvous messages, and early-data stashing.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <vector>

#include "reliability/reliable_channel.hpp"
#include "sim/simulator.hpp"
#include "verbs/nic.hpp"

namespace sdr::reliability {
namespace {

struct EagerHarness {
  sim::Simulator sim;
  verbs::NicPair pair;
  std::unique_ptr<ReliableChannel> channel;

  EagerHarness(std::size_t eager_threshold, double p_drop_fwd,
               double p_drop_bwd) {
    sim::Channel::Config cfg;
    cfg.bandwidth_bps = 100e9;
    cfg.distance_km = 1000.0;  // 10 ms RTT: CTS cost is clearly visible
    cfg.seed = 77;
    pair = verbs::make_connected_pair(sim, cfg, p_drop_fwd, p_drop_bwd);

    ReliableChannel::Options options;
    options.kind = ReliableChannel::Kind::kSrRto;
    options.profile.bandwidth_bps = cfg.bandwidth_bps;
    options.profile.rtt_s = rtt_s(cfg.distance_km);
    options.profile.mtu = 1024;
    options.profile.chunk_bytes = 4096;
    options.attr.mtu = 1024;
    options.attr.chunk_size = 4096;
    options.attr.max_msg_size = 64 * 1024;
    options.attr.max_inflight = 8;
    options.eager_threshold_bytes = eager_threshold;
    options.derive_timeouts();
    channel = std::make_unique<ReliableChannel>(sim, *pair.a, *pair.b,
                                                options);
  }

  /// Round-trips one message and returns its virtual completion time.
  double transfer(std::size_t bytes, std::uint8_t seed) {
    std::vector<std::uint8_t> src(bytes), dst(bytes, 0);
    for (std::size_t i = 0; i < bytes; ++i) {
      src[i] = static_cast<std::uint8_t>(seed + i * 131);
    }
    const double start = sim.now().seconds();
    bool ok = false;
    channel->recv(dst.data(), bytes, [&](const Status& s) {
      ok = s.is_ok();
    });
    channel->send(src.data(), bytes, [](const Status&) {});
    sim.run();
    EXPECT_TRUE(ok);
    EXPECT_EQ(std::memcmp(dst.data(), src.data(), bytes), 0);
    return sim.now().seconds() - start;
  }
};

TEST(EagerPathTest, SkipsTheCtsRoundTrip) {
  // Rendezvous small message: CTS (rtt/2) + data (rtt/2) + ack ~ 1.5 rtt.
  // Eager: data (rtt/2) + sender-side ack wait... the RECEIVER completes
  // at rtt/2 — measure receiver completion, which is what collective
  // latency chains on.
  EagerHarness rendezvous(0, 0.0, 0.0);
  const double t_rendezvous = rendezvous.transfer(1024, 1);
  EagerHarness eager(2048, 0.0, 0.0);
  const double t_eager = eager.transfer(1024, 1);
  EXPECT_LT(t_eager, t_rendezvous * 0.8)
      << "eager must save the CTS round trip: eager=" << t_eager
      << "s rendezvous=" << t_rendezvous << "s";
  EXPECT_EQ(eager.channel->eager_messages(), 1u);
  EXPECT_EQ(rendezvous.channel->eager_messages(), 0u);
}

TEST(EagerPathTest, LargeMessagesStillUseRendezvous) {
  EagerHarness h(2048, 0.0, 0.0);
  h.transfer(32 * 1024, 2);
  EXPECT_EQ(h.channel->eager_messages(), 0u);
  h.transfer(1024, 3);
  EXPECT_EQ(h.channel->eager_messages(), 1u);
}

TEST(EagerPathTest, SurvivesControlPathLoss) {
  // 20% loss on the data/control direction: eager data or its ack may
  // vanish; the retransmission must converge.
  EagerHarness h(2048, 0.2, 0.0);
  for (int i = 0; i < 10; ++i) {
    h.transfer(512, static_cast<std::uint8_t>(i));
  }
  EXPECT_EQ(h.channel->eager_messages(), 10u);
}

TEST(EagerPathTest, SurvivesAckLoss) {
  EagerHarness h(2048, 0.0, 0.2);
  for (int i = 0; i < 10; ++i) {
    h.transfer(512, static_cast<std::uint8_t>(i));
  }
  EXPECT_EQ(h.channel->eager_messages(), 10u);
}

TEST(EagerPathTest, EarlyDataIsStashedUntilRecvPosted) {
  EagerHarness h(2048, 0.0, 0.0);
  std::vector<std::uint8_t> src(256, 0x7E), dst(256, 0);
  // Send BEFORE the receive is posted.
  h.channel->send(src.data(), src.size(), [](const Status&) {});
  h.sim.run();
  bool ok = false;
  h.channel->recv(dst.data(), dst.size(), [&](const Status& s) {
    ok = s.is_ok();
  });
  h.sim.run();
  EXPECT_TRUE(ok);
  EXPECT_EQ(std::memcmp(dst.data(), src.data(), src.size()), 0);
}

TEST(EagerPathTest, MixedSizesKeepOrderBasedMatchingConsistent) {
  // Alternate eager and rendezvous messages; both sides classify by length
  // so the SDR message numbering never skews.
  EagerHarness h(2048, 0.01, 0.0);
  const std::size_t sizes[] = {512, 16 * 1024, 1024, 32 * 1024, 2048, 8192};
  for (std::size_t i = 0; i < std::size(sizes); ++i) {
    h.transfer(sizes[i], static_cast<std::uint8_t>(40 + i));
  }
  EXPECT_EQ(h.channel->eager_messages(), 3u);
}

TEST(EagerPathTest, OversizedEagerRejected) {
  EagerHarness h(8192, 0.0, 0.0);  // threshold above the datagram limit
  std::vector<std::uint8_t> big(6000, 1);
  EXPECT_EQ(h.channel->send(big.data(), big.size(), nullptr).code(),
            StatusCode::kInvalidArgument);
}

TEST(AckCodecPayloadTest, EagerDataRoundTrip) {
  ControlMessage msg;
  msg.type = ControlType::kEagerData;
  msg.msg_number = 99;
  msg.payload.resize(777);
  for (std::size_t i = 0; i < msg.payload.size(); ++i) {
    msg.payload[i] = static_cast<std::uint8_t>(i * 31);
  }
  std::vector<std::uint8_t> wire;
  encode_control(msg, wire);
  ControlMessage decoded;
  ASSERT_TRUE(decode_control(wire.data(), wire.size(), decoded));
  EXPECT_EQ(decoded, msg);
  // Truncation anywhere must be rejected.
  for (std::size_t cut : {0u, 10u, 30u, 100u}) {
    EXPECT_FALSE(decode_control(wire.data(), cut, decoded));
  }
}

}  // namespace
}  // namespace sdr::reliability
