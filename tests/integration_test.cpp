// Cross-cutting integration tests: bidirectional SDR traffic, interleaved
// reliable transfers, failure-path behaviour (black-hole links, aborts),
// stats accounting, and small utilities (logging, status) not covered by
// the per-module suites.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "common/logging.hpp"
#include "common/status.hpp"
#include "ec/reed_solomon.hpp"
#include "reliability/ec_protocol.hpp"
#include "reliability/reliable_channel.hpp"
#include "reliability/sr_protocol.hpp"
#include "sdr/sdr.hpp"
#include "sim/simulator.hpp"
#include "verbs/control_link.hpp"
#include "verbs/fabric.hpp"
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

core::QpAttr small_attr() {
  core::QpAttr attr;
  attr.mtu = 1024;
  attr.chunk_size = 4096;
  attr.max_msg_size = 64 * 1024;
  attr.max_inflight = 8;
  return attr;
}

// ---------------------------------------------------------------------------
// Bidirectional SDR traffic on one QP pair
// ---------------------------------------------------------------------------

TEST(SdrIntegrationTest, BidirectionalTrafficOnOneQpPair) {
  sim::Simulator sim;
  sim::Channel::Config cfg;
  cfg.bandwidth_bps = 100e9;
  cfg.distance_km = 50.0;
  cfg.seed = 3;
  verbs::NicPair pair = verbs::make_connected_pair(sim, cfg, 0.01, 0.01);
  core::Context ctx_a(*pair.a, core::DevAttr{});
  core::Context ctx_b(*pair.b, core::DevAttr{});
  core::Qp* qa = ctx_a.create_qp(small_attr());
  core::Qp* qb = ctx_b.create_qp(small_attr());
  qa->connect(qb->info());
  qb->connect(qa->info());

  const std::size_t len = 32 * 1024;
  const auto src_ab = pattern(len, 1);
  const auto src_ba = pattern(len, 2);
  std::vector<std::uint8_t> dst_b(len, 0), dst_a(len, 0);
  const auto* mr_b = ctx_b.mr_reg(dst_b.data(), dst_b.size());
  const auto* mr_a = ctx_a.mr_reg(dst_a.data(), dst_a.size());

  core::RecvHandle *rh_b = nullptr, *rh_a = nullptr;
  ASSERT_TRUE(qb->recv_post(dst_b.data(), len, mr_b, &rh_b).is_ok());
  ASSERT_TRUE(qa->recv_post(dst_a.data(), len, mr_a, &rh_a).is_ok());
  core::SendHandle *sh_a = nullptr, *sh_b = nullptr;
  ASSERT_TRUE(qa->send_post(src_ab.data(), len, 0, false, &sh_a).is_ok());
  ASSERT_TRUE(qb->send_post(src_ba.data(), len, 0, false, &sh_b).is_ok());
  sim.run();

  // 1% loss: most chunks present in each direction; whatever completed is
  // byte-exact and the two directions never interfere.
  const core::MessageTable& tb = qb->message_table();
  const core::MessageTable& ta = qa->message_table();
  EXPECT_GT(tb.packets_received(rh_b->slot()), 0u);
  EXPECT_GT(ta.packets_received(rh_a->slot()), 0u);
  for (std::size_t c = 0; c < rh_b->chunk_count(); ++c) {
    if (tb.chunk_bitmap(rh_b->slot()).test(c)) {
      EXPECT_EQ(std::memcmp(dst_b.data() + c * 4096,
                            src_ab.data() + c * 4096, 4096),
                0);
    }
  }
  for (std::size_t c = 0; c < rh_a->chunk_count(); ++c) {
    if (ta.chunk_bitmap(rh_a->slot()).test(c)) {
      EXPECT_EQ(std::memcmp(dst_a.data() + c * 4096,
                            src_ba.data() + c * 4096, 4096),
                0);
    }
  }
}

TEST(SdrIntegrationTest, StatsCountersAreConsistent) {
  sim::Simulator sim;
  sim::Channel::Config cfg;
  cfg.bandwidth_bps = 100e9;
  cfg.distance_km = 10.0;
  cfg.seed = 5;
  verbs::NicPair pair = verbs::make_connected_pair(sim, cfg, 0.0, 0.0);
  core::Context ctx_a(*pair.a, core::DevAttr{});
  core::Context ctx_b(*pair.b, core::DevAttr{});
  core::Qp* qa = ctx_a.create_qp(small_attr());
  core::Qp* qb = ctx_b.create_qp(small_attr());
  qa->connect(qb->info());
  qb->connect(qa->info());

  const std::size_t len = 16 * 1024;  // 16 packets
  const auto src = pattern(len, 9);
  std::vector<std::uint8_t> dst(len, 0);
  const auto* mr = ctx_b.mr_reg(dst.data(), dst.size());
  for (int i = 0; i < 3; ++i) {
    core::RecvHandle* rh = nullptr;
    ASSERT_TRUE(qb->recv_post(dst.data(), len, mr, &rh).is_ok());
    core::SendHandle* sh = nullptr;
    ASSERT_TRUE(qa->send_post(src.data(), len, 0, false, &sh).is_ok());
    sim.run();
    ASSERT_TRUE(qb->recv_complete(rh).is_ok());
    ASSERT_TRUE(qa->send_poll(sh).is_ok());
  }
  EXPECT_EQ(qb->stats().cts_sent, 3u);
  EXPECT_EQ(qa->stats().cts_received, 3u);
  EXPECT_EQ(qa->stats().data_packets_sent, 3u * 16u);
  EXPECT_EQ(qb->stats().completions_processed, 3u * 16u);
  EXPECT_EQ(qb->stats().completions_discarded, 0u);
  EXPECT_EQ(qa->stats().staged_packets, 0u);  // UC: zero-copy, no staging
}

// ---------------------------------------------------------------------------
// Reliability failure paths
// ---------------------------------------------------------------------------

TEST(ReliabilityIntegrationTest, EcGlobalTimeoutAbortsOnBlackHole) {
  sim::Simulator sim;
  sim::Channel::Config cfg;
  cfg.bandwidth_bps = 100e9;
  cfg.distance_km = 100.0;
  cfg.seed = 7;
  // Forward direction drops everything: nothing ever arrives.
  verbs::NicPair pair = verbs::make_connected_pair(sim, cfg, 1.0, 0.0);
  core::Context ctx_a(*pair.a, core::DevAttr{});
  core::Context ctx_b(*pair.b, core::DevAttr{});
  core::QpAttr attr;
  attr.mtu = 1024;
  attr.chunk_size = 1024;
  attr.max_msg_size = 64 * 1024;
  attr.max_inflight = 16;
  core::Qp* qa = ctx_a.create_qp(attr);
  core::Qp* qb = ctx_b.create_qp(attr);
  qa->connect(qb->info());
  qb->connect(qa->info());
  verbs::ControlLink ca(*pair.a), cb(*pair.b);
  ca.connect(pair.b->id(), cb.qp_number());
  cb.connect(pair.a->id(), ca.qp_number());

  reliability::LinkProfile profile;
  profile.bandwidth_bps = cfg.bandwidth_bps;
  profile.rtt_s = rtt_s(cfg.distance_km);
  profile.mtu = attr.mtu;
  profile.chunk_bytes = attr.chunk_size;
  ec::ReedSolomon codec(8, 4);
  reliability::EcProtoConfig config;
  config.k = 8;
  config.m = 4;
  const reliability::SrProtoConfig sr;
  reliability::EcSender sender(sim, *qa, ca, profile, codec, config, sr);
  reliability::EcReceiver receiver(sim, *qb, cb, profile, codec, config);

  const std::size_t len = 16 * 1024;  // 2 submessages
  const auto src = pattern(len, 4);
  std::vector<std::uint8_t> dst(len, 0);
  const auto* mr = ctx_b.mr_reg(dst.data(), dst.size());
  Status final_status = Status::ok();
  bool called = false;
  ASSERT_TRUE(receiver
                  .expect(dst.data(), len, mr,
                          [&](const Status& s) {
                            final_status = s;
                            called = true;
                          })
                  .is_ok());
  ASSERT_TRUE(sender.write(src.data(), len, [](const Status&) {}).is_ok());
  sim.run_until(SimTime::from_seconds(60.0));

  ASSERT_TRUE(called) << "the silent-FTO abort must fire on a black-hole link";
  EXPECT_EQ(final_status.code(), StatusCode::kAborted);
}

TEST(ReliabilityIntegrationTest, InterleavedSrMessagesComplete) {
  sim::Simulator sim;
  sim::Channel::Config cfg;
  cfg.bandwidth_bps = 100e9;
  cfg.distance_km = 100.0;
  cfg.seed = 13;
  verbs::NicPair pair = verbs::make_connected_pair(sim, cfg, 0.03, 0.0);
  core::Context ctx_a(*pair.a, core::DevAttr{});
  core::Context ctx_b(*pair.b, core::DevAttr{});
  core::QpAttr attr = small_attr();
  attr.max_inflight = 8;
  core::Qp* qa = ctx_a.create_qp(attr);
  core::Qp* qb = ctx_b.create_qp(attr);
  qa->connect(qb->info());
  qb->connect(qa->info());
  verbs::ControlLink ca(*pair.a), cb(*pair.b);
  ca.connect(pair.b->id(), cb.qp_number());
  cb.connect(pair.a->id(), ca.qp_number());
  reliability::LinkProfile profile;
  profile.bandwidth_bps = cfg.bandwidth_bps;
  profile.rtt_s = rtt_s(cfg.distance_km);
  profile.mtu = attr.mtu;
  profile.chunk_bytes = attr.chunk_size;
  reliability::SrProtoConfig config;
  config.rto_s = 3.0 * profile.rtt_s;
  config.ack_interval_s = profile.rtt_s / 4.0;
  reliability::SrSender sender(sim, *qa, ca, profile, config);
  reliability::SrReceiver receiver(sim, *qb, cb, profile, config);

  // Four messages in flight simultaneously on one sender/receiver pair.
  const std::size_t len = 32 * 1024;
  std::vector<std::vector<std::uint8_t>> srcs, dsts;
  for (int i = 0; i < 4; ++i) {
    srcs.push_back(pattern(len, static_cast<std::uint8_t>(10 + i)));
    dsts.emplace_back(len, 0);
  }
  int recv_done = 0, send_done = 0;
  for (int i = 0; i < 4; ++i) {
    const auto* mr = ctx_b.mr_reg(dsts[i].data(), dsts[i].size());
    ASSERT_TRUE(receiver
                    .expect(dsts[i].data(), len, mr,
                            [&](const Status& s) {
                              EXPECT_TRUE(s.is_ok());
                              ++recv_done;
                            })
                    .is_ok());
  }
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(sender
                    .write(srcs[i].data(), len,
                           [&](const Status& s) {
                             EXPECT_TRUE(s.is_ok());
                             ++send_done;
                           })
                    .is_ok());
  }
  sim.run();
  EXPECT_EQ(recv_done, 4);
  EXPECT_EQ(send_done, 4);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(std::memcmp(dsts[i].data(), srcs[i].data(), len), 0) << i;
  }
}

// Every receive inside a region the channel registered for an earlier one
// reuses that registration: receives of several lengths into one buffer
// (the fleet's one sink) register it once.
TEST(ReliabilityIntegrationTest, ChannelReceivesIntoOneBufferShareAnMr) {
  sim::Simulator sim;
  sim::Channel::Config cfg;
  cfg.bandwidth_bps = 100e9;
  cfg.distance_km = 100.0;
  cfg.seed = 17;
  verbs::NicPair pair = verbs::make_connected_pair(sim, cfg, 0.0, 0.0);
  reliability::ReliableChannel::Options options;
  options.kind = reliability::ReliableChannel::Kind::kSrRto;
  options.attr = small_attr();
  options.profile.bandwidth_bps = cfg.bandwidth_bps;
  options.profile.rtt_s = rtt_s(cfg.distance_km);
  options.profile.mtu = options.attr.mtu;
  options.profile.chunk_bytes = options.attr.chunk_size;
  options.derive_timeouts();
  reliability::ReliableChannel channel(sim, *pair.a, *pair.b, options);

  // A protection domain draws every key from one counter, so two probe
  // registrations on the receiving NIC count the channel's in between.
  std::uint8_t probe = 0;
  verbs::ProtectionDomain& pd = pair.b->pd();
  const verbs::MemoryKey before = pd.register_mr(&probe, 1)->rkey();
  const std::size_t lengths[] = {16 * 1024, 4 * 1024, 8 * 1024, 12 * 1024};
  const auto src = pattern(lengths[0], 21);
  std::vector<std::uint8_t> sink(lengths[0], 0);
  int done = 0;
  for (const std::size_t len : lengths) {
    ASSERT_TRUE(channel
                    .recv(sink.data(), len,
                          [&](const Status& s) {
                            EXPECT_TRUE(s.is_ok());
                            ++done;
                          })
                    .is_ok());
  }
  for (const std::size_t len : lengths) {
    ASSERT_TRUE(channel
                    .send(src.data(), len,
                          [&](const Status& s) {
                            EXPECT_TRUE(s.is_ok());
                            ++done;
                          })
                    .is_ok());
  }
  sim.run();
  EXPECT_EQ(done, 8);
  EXPECT_EQ(std::memcmp(sink.data(), src.data(), sink.size()), 0);
  EXPECT_EQ(pd.register_mr(&probe, 1)->rkey() - before, 2u)
      << "the four receives should share one registration";
}

// ---------------------------------------------------------------------------
// Control link
// ---------------------------------------------------------------------------

// A control link posts one receive buffer, not one per datagram in
// flight: each arrival is drained and the buffer re-posted inside the
// delivery. A back-to-back burst of many datagrams must arrive whole.
TEST(ControlLinkTest, BurstDeeperThanThePostedBuffersArrivesIntact) {
  sim::Simulator sim;
  sim::Channel::Config cfg;
  cfg.bandwidth_bps = 400e9;
  cfg.distance_km = 10.0;
  cfg.seed = 7;
  verbs::NicPair pair = verbs::make_connected_pair(sim, cfg, 0.0, 0.0);
  verbs::ControlLink ca(*pair.a), cb(*pair.b);
  ca.connect(pair.b->id(), cb.qp_number());
  cb.connect(pair.a->id(), ca.qp_number());
  std::vector<std::vector<std::uint8_t>> received;
  cb.set_receiver([&](const std::uint8_t* data, std::size_t length) {
    received.emplace_back(data, data + length);
  });

  // The first datagram is the largest the stack sends: an eager one, 4000 B
  // of payload plus its 23 B header.
  constexpr std::size_t kBurst = 64;
  std::vector<std::vector<std::uint8_t>> sent;
  for (std::size_t i = 0; i < kBurst; ++i) {
    sent.push_back(pattern(4023 - 60 * i, static_cast<std::uint8_t>(i)));
    ca.send(sent.back().data(), sent.back().size());
  }
  sim.run();

  EXPECT_EQ(pair.b->find_qp(cb.qp_number())->stats().packets_discarded, 0u);
  EXPECT_EQ(cb.received(), kBurst);
  ASSERT_EQ(received.size(), kBurst);
  for (std::size_t i = 0; i < kBurst; ++i) {
    EXPECT_TRUE(received[i] == sent[i]) << "datagram " << i;
  }
}

// ---------------------------------------------------------------------------
// Channel bookkeeping
// ---------------------------------------------------------------------------

TEST(ChannelIntegrationTest, StatsResetAndTrialRedraw) {
  sim::Simulator sim;
  sim::Channel::Config cfg;
  cfg.bandwidth_bps = 100e9;
  cfg.distance_km = 10.0;
  cfg.seed = 21;
  sim::Channel ch(sim, cfg, std::make_unique<sim::IidDrop>(0.5));
  ch.set_receiver([](sim::Packet&&) {});
  for (int i = 0; i < 1000; ++i) {
    sim::Packet p;
    p.bytes = 100;
    ch.send(std::move(p));
  }
  sim.run();
  EXPECT_EQ(ch.stats().sent_packets, 1000u);
  EXPECT_GT(ch.stats().dropped_packets, 300u);
  ch.reset_stats();
  EXPECT_EQ(ch.stats().sent_packets, 0u);
  EXPECT_EQ(ch.stats().dropped_packets, 0u);
  ch.new_trial();  // must not crash / affect a stateless model
}

// ---------------------------------------------------------------------------
// Utilities
// ---------------------------------------------------------------------------

TEST(StatusTest, CodesAndMessages) {
  const Status ok = Status::ok();
  EXPECT_TRUE(ok.is_ok());
  const Status bad(StatusCode::kOutOfRange, "boom");
  EXPECT_FALSE(bad.is_ok());
  EXPECT_EQ(to_string(bad.code()), "OUT_OF_RANGE");
  EXPECT_EQ(bad.message(), "boom");
}

TEST(LoggingTest, LevelGate) {
  const LogLevel before = log_level();
  set_log_level(LogLevel::kError);
  EXPECT_EQ(log_level(), LogLevel::kError);
  // These must be no-ops (no crash, nothing asserted beyond the gate).
  SDR_DEBUG("dropped %d", 1);
  SDR_INFO("dropped %s", "too");
  set_log_level(before);
}

}  // namespace
}  // namespace sdr
