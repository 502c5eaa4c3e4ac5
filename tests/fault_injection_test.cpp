// Deterministic fault-injection tests: with ScriptedDrop the exact loss
// pattern is chosen, so the protocols' responses can be asserted precisely —
// SR retransmits exactly the dropped chunks; EC recovers exactly up to its
// code tolerance and falls back one drop beyond it, and its fallback backs
// off into a black hole until the sender gives up; both deliver a message
// whose CTS was lost, and both finish a message whose final ACK was lost.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <vector>

#include "ec/reed_solomon.hpp"
#include "reliability/ec_protocol.hpp"
#include "reliability/sr_protocol.hpp"
#include "sdr/sdr.hpp"
#include "sim/drop_model.hpp"
#include "sim/simulator.hpp"
#include "verbs/nic.hpp"

namespace sdr::reliability {
namespace {

std::vector<std::uint8_t> pattern(std::size_t n, std::uint8_t seed) {
  std::vector<std::uint8_t> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = static_cast<std::uint8_t>(seed + i * 131);
  }
  return v;
}

/// Two NICs connected by a duplex link whose drops are scripted by SEND
/// INDEX in each direction. Only data packets travel forward, so a forward
/// index is a data-packet index. The backward channel carries the CTS
/// datagrams and the control path; its packet 0 is always the first posted
/// receive's CTS. DuplexLink gives both directions this one Config, so the
/// backward channel would reorder and duplicate too if it asked for that.
struct ScriptedPair {
  sim::Simulator sim;
  verbs::NicPair nics;
  verbs::Nic* a;
  verbs::Nic* b;

  explicit ScriptedPair(std::vector<std::uint64_t> drops,
                        std::vector<std::uint64_t> backward_drops = {})
      : nics(wire(sim, std::make_unique<sim::ScriptedDrop>(std::move(drops)),
                  std::move(backward_drops))),
        a(nics.a.get()),
        b(nics.b.get()) {}
  explicit ScriptedPair(std::unique_ptr<sim::DropModel> forward)
      : nics(wire(sim, std::move(forward), {})),
        a(nics.a.get()),
        b(nics.b.get()) {}

 private:
  static verbs::NicPair wire(sim::Simulator& simulator,
                             std::unique_ptr<sim::DropModel> forward,
                             std::vector<std::uint64_t> backward_drops) {
    sim::Channel::Config cfg;
    cfg.bandwidth_bps = 100e9;
    cfg.distance_km = 100.0;
    cfg.seed = 1;
    return verbs::make_connected_pair(
        simulator, cfg, std::move(forward),
        std::make_unique<sim::ScriptedDrop>(std::move(backward_drops)));
  }
};

core::QpAttr one_packet_chunks() {
  core::QpAttr attr;
  attr.mtu = 1024;
  attr.chunk_size = 1024;
  attr.max_msg_size = 64 * 1024;
  attr.max_inflight = 64;
  return attr;
}

TEST(FaultInjectionTest, ScriptedDropHitsExactIndices) {
  sim::Simulator sim;
  sim::Channel::Config cfg;
  cfg.bandwidth_bps = 100e9;
  cfg.distance_km = 10.0;
  sim::Channel ch(sim, cfg,
                  std::make_unique<sim::ScriptedDrop>(
                      std::vector<std::uint64_t>{0, 3, 7}));
  std::vector<int> arrived;
  int idx = 0;
  ch.set_receiver([&](sim::Packet&&) { arrived.push_back(idx); });
  for (idx = 0; idx < 10; ++idx) {
    sim::Packet p;
    p.bytes = 100;
    ch.send(std::move(p));
    sim.run();  // deliver one at a time so idx capture is exact
  }
  EXPECT_EQ(arrived, (std::vector<int>{1, 2, 4, 5, 6, 8, 9}));
}

TEST(FaultInjectionTest, SrRetransmitsExactlyTheDroppedChunks) {
  // 16 one-packet chunks; drop chunks 2 and 9 on first transmission.
  ScriptedPair pair({2, 9});
  core::Context ctx_a(*pair.a, core::DevAttr{});
  core::Context ctx_b(*pair.b, core::DevAttr{});
  core::Qp* qa = ctx_a.create_qp(one_packet_chunks());
  core::Qp* qb = ctx_b.create_qp(one_packet_chunks());
  qa->connect(qb->info());
  qb->connect(qa->info());
  verbs::ControlLink ca(*pair.a), cb(*pair.b);
  ca.connect(2, cb.qp_number());
  cb.connect(1, ca.qp_number());

  LinkProfile profile;
  profile.bandwidth_bps = 100e9;
  profile.rtt_s = rtt_s(100.0);
  profile.mtu = 1024;
  profile.chunk_bytes = 1024;
  SrProtoConfig config;
  config.rto_s = 3.0 * profile.rtt_s;
  config.ack_interval_s = profile.rtt_s / 4.0;
  SrSender sender(pair.sim, *qa, ca, profile, config);
  SrReceiver receiver(pair.sim, *qb, cb, profile, config);

  const std::size_t len = 16 * 1024;
  const auto src = pattern(len, 1);
  std::vector<std::uint8_t> dst(len, 0);
  const auto* mr = ctx_b.mr_reg(dst.data(), dst.size());
  bool ok = false;
  receiver.expect(dst.data(), len, mr, [&](const Status& s) {
    ok = s.is_ok();
  });
  sender.write(src.data(), len, [](const Status&) {});
  pair.sim.run();

  EXPECT_TRUE(ok);
  EXPECT_EQ(std::memcmp(dst.data(), src.data(), len), 0);
  EXPECT_EQ(sender.stats().retransmissions, 2u)
      << "exactly the two scripted drops must be retransmitted";
}

TEST(FaultInjectionTest, EcRecoversExactlyMDropsInPlace) {
  // One submessage RS(8,4): drop exactly 4 data chunks (= m). The receiver
  // must decode in place — zero retransmissions, no FTO.
  ScriptedPair pair({0, 2, 4, 6});  // 4 of the 8 data packets
  core::Context ctx_a(*pair.a, core::DevAttr{});
  core::Context ctx_b(*pair.b, core::DevAttr{});
  core::Qp* qa = ctx_a.create_qp(one_packet_chunks());
  core::Qp* qb = ctx_b.create_qp(one_packet_chunks());
  qa->connect(qb->info());
  qb->connect(qa->info());
  verbs::ControlLink ca(*pair.a), cb(*pair.b);
  ca.connect(2, cb.qp_number());
  cb.connect(1, ca.qp_number());

  LinkProfile profile;
  profile.bandwidth_bps = 100e9;
  profile.rtt_s = rtt_s(100.0);
  profile.mtu = 1024;
  profile.chunk_bytes = 1024;
  ec::ReedSolomon codec(8, 4);
  EcProtoConfig config;
  config.k = 8;
  config.m = 4;
  SrProtoConfig sr;
  sr.rto_s = 3.0 * profile.rtt_s;
  sr.ack_interval_s = profile.rtt_s / 4.0;
  EcSender sender(pair.sim, *qa, ca, profile, codec, config, sr);
  EcReceiver receiver(pair.sim, *qb, cb, profile, codec, config);

  const std::size_t len = 8 * 1024;  // exactly one submessage
  const auto src = pattern(len, 2);
  std::vector<std::uint8_t> dst(len, 0);
  const auto* mr = ctx_b.mr_reg(dst.data(), dst.size());
  bool ok = false;
  receiver.expect(dst.data(), len, mr, [&](const Status& s) {
    ok = s.is_ok();
  });
  sender.write(src.data(), len, [](const Status&) {});
  pair.sim.run();

  EXPECT_TRUE(ok);
  EXPECT_EQ(std::memcmp(dst.data(), src.data(), len), 0);
  EXPECT_EQ(receiver.stats().decoded_submessages, 1u);
  EXPECT_EQ(receiver.stats().ftos_fired, 0u);
  EXPECT_EQ(sender.stats().fallback_retransmissions, 0u);
}

TEST(FaultInjectionTest, EcFallsBackExactlyBeyondTolerance) {
  // Drop m+1 = 5 chunks of the single submessage: decode is impossible,
  // the FTO must fire, and the SR fallback must deliver.
  ScriptedPair pair({0, 1, 2, 3, 4});
  core::Context ctx_a(*pair.a, core::DevAttr{});
  core::Context ctx_b(*pair.b, core::DevAttr{});
  core::Qp* qa = ctx_a.create_qp(one_packet_chunks());
  core::Qp* qb = ctx_b.create_qp(one_packet_chunks());
  qa->connect(qb->info());
  qb->connect(qa->info());
  verbs::ControlLink ca(*pair.a), cb(*pair.b);
  ca.connect(2, cb.qp_number());
  cb.connect(1, ca.qp_number());

  LinkProfile profile;
  profile.bandwidth_bps = 100e9;
  profile.rtt_s = rtt_s(100.0);
  profile.mtu = 1024;
  profile.chunk_bytes = 1024;
  ec::ReedSolomon codec(8, 4);
  EcProtoConfig config;
  config.k = 8;
  config.m = 4;
  SrProtoConfig sr;
  sr.rto_s = 3.0 * profile.rtt_s;
  sr.ack_interval_s = profile.rtt_s / 4.0;
  EcSender sender(pair.sim, *qa, ca, profile, codec, config, sr);
  EcReceiver receiver(pair.sim, *qb, cb, profile, codec, config);

  const std::size_t len = 8 * 1024;
  const auto src = pattern(len, 3);
  std::vector<std::uint8_t> dst(len, 0);
  const auto* mr = ctx_b.mr_reg(dst.data(), dst.size());
  bool ok = false;
  receiver.expect(dst.data(), len, mr, [&](const Status& s) {
    ok = s.is_ok();
  });
  sender.write(src.data(), len, [](const Status&) {});
  pair.sim.run();

  EXPECT_TRUE(ok);
  EXPECT_EQ(std::memcmp(dst.data(), src.data(), len), 0);
  EXPECT_EQ(receiver.stats().ftos_fired, 1u);
  EXPECT_EQ(receiver.stats().fallback_submessages, 1u);
  EXPECT_GT(sender.stats().fallback_retransmissions, 0u);
}

/// Drops forward packets [0, lost) and every one from `black_hole` on.
class BlackHoleAfter final : public sim::DropModel {
 public:
  BlackHoleAfter(std::uint64_t lost, std::uint64_t black_hole)
      : lost_(lost), black_hole_(black_hole) {}
  bool should_drop(Rng& /*rng*/, std::size_t /*bytes*/) override {
    const std::uint64_t i = counter_++;
    return i < lost_ || i >= black_hole_;
  }

 private:
  std::uint64_t lost_;
  std::uint64_t black_hole_;
  std::uint64_t counter_{0};
};

TEST(FaultInjectionTest, EcFallbackBacksOffIntoABlackHole) {
  // The first transmission loses m+1 = 5 of its 12 chunks, so the FTO NACKs
  // the submessage; from then on the forward path drops everything. The
  // fallback must back off like SR: after the NACK resends all k chunks,
  // a chunk's n-th timeout waits at least RTO * 2^min(n, 4), so over the
  // horizon H each chunk fires at most 3 + H / (16 RTO) times. A fixed
  // RTO would fire H / RTO times.
  ScriptedPair pair(std::make_unique<BlackHoleAfter>(5, 12));
  core::Context ctx_a(*pair.a, core::DevAttr{});
  core::Context ctx_b(*pair.b, core::DevAttr{});
  core::Qp* qa = ctx_a.create_qp(one_packet_chunks());
  core::Qp* qb = ctx_b.create_qp(one_packet_chunks());
  qa->connect(qb->info());
  qb->connect(qa->info());
  verbs::ControlLink ca(*pair.a), cb(*pair.b);
  ca.connect(2, cb.qp_number());
  cb.connect(1, ca.qp_number());

  LinkProfile profile;
  profile.bandwidth_bps = 100e9;
  profile.rtt_s = rtt_s(100.0);
  profile.mtu = 1024;
  profile.chunk_bytes = 1024;
  ec::ReedSolomon codec(8, 4);
  EcProtoConfig config;
  config.k = 8;
  config.m = 4;
  SrProtoConfig sr;
  sr.rto_s = 3.0 * profile.rtt_s;
  sr.ack_interval_s = profile.rtt_s / 4.0;
  EcSender sender(pair.sim, *qa, ca, profile, codec, config, sr);
  EcReceiver receiver(pair.sim, *qb, cb, profile, codec, config);

  const std::size_t len = 8 * 1024;  // exactly one submessage
  const auto src = pattern(len, 7);
  std::vector<std::uint8_t> dst(len, 0);
  const auto* mr = ctx_b.mr_reg(dst.data(), dst.size());
  receiver.expect(dst.data(), len, mr, [](const Status&) {});
  Status sent;
  sender.write(src.data(), len, [&](const Status& s) { sent = s; });
  constexpr double kHorizonS = 2.0;
  pair.sim.run_until(SimTime::from_seconds(kHorizonS));

  EXPECT_EQ(receiver.stats().fallback_submessages, 1u);
  const double per_chunk = 1.0 + 3.0 + kHorizonS / (16.0 * sr.rto_s);
  const auto bound = static_cast<std::uint64_t>(config.k * per_chunk);
  EXPECT_GT(sender.stats().fallback_retransmissions, 4 * config.k)
      << "the timers must keep firing into the black hole";
  EXPECT_LE(sender.stats().fallback_retransmissions, bound);
  // Fallback ACKs answer data, and none lands: the receiver's only
  // datagrams are its FTO rounds' NACKs.
  EXPECT_EQ(cb.sent(), receiver.stats().ec_nacks_sent);
  // Once the receiver gave up, the sender hears nothing for 16 rounds and
  // gives up too, leaving no timer behind.
  EXPECT_EQ(sent.code(), StatusCode::kAborted);
  EXPECT_EQ(pair.sim.pending(), 0u);
}

TEST(FaultInjectionTest, SrRecoversALostCts) {
  // Drop the receive's CTS. The sender queues every chunk and arms no
  // timer until a CTS arrives, so only the receiver's CTS retry can save
  // the message. run_until, not run: a wedged receiver's CTS retry never
  // lets the event queue drain.
  ScriptedPair pair({}, {0});
  core::Context ctx_a(*pair.a, core::DevAttr{});
  core::Context ctx_b(*pair.b, core::DevAttr{});
  core::Qp* qa = ctx_a.create_qp(one_packet_chunks());
  core::Qp* qb = ctx_b.create_qp(one_packet_chunks());
  qa->connect(qb->info());
  qb->connect(qa->info());
  verbs::ControlLink ca(*pair.a), cb(*pair.b);
  ca.connect(2, cb.qp_number());
  cb.connect(1, ca.qp_number());

  LinkProfile profile;
  profile.bandwidth_bps = 100e9;
  profile.rtt_s = rtt_s(100.0);
  profile.mtu = 1024;
  profile.chunk_bytes = 1024;
  SrProtoConfig config;
  config.rto_s = 3.0 * profile.rtt_s;
  config.ack_interval_s = profile.rtt_s / 4.0;
  SrSender sender(pair.sim, *qa, ca, profile, config);
  SrReceiver receiver(pair.sim, *qb, cb, profile, config);

  const std::size_t len = 16 * 1024;
  const auto src = pattern(len, 5);
  std::vector<std::uint8_t> dst(len, 0);
  const auto* mr = ctx_b.mr_reg(dst.data(), dst.size());
  bool received = false;
  bool sent = false;
  receiver.expect(dst.data(), len, mr, [&](const Status& s) {
    received = s.is_ok();
  });
  sender.write(src.data(), len, [&](const Status& s) { sent = s.is_ok(); });
  pair.sim.run_until(SimTime::from_seconds(1.0));

  EXPECT_TRUE(received);
  EXPECT_TRUE(sent);
  EXPECT_EQ(std::memcmp(dst.data(), src.data(), len), 0);
  EXPECT_EQ(qb->stats().cts_sent, 2u) << "one lost CTS, one retry";
  EXPECT_EQ(sender.stats().retransmissions, 0u);
}

TEST(FaultInjectionTest, EcRecoversALostCts) {
  // Drop the CTS of the data submessage. Its parity stream alone (m = 4 of
  // the k = 8 needed blocks) cannot decode it, and the fallback's
  // retransmissions queue behind the same missing CTS, so without the
  // receiver's CTS retry the message ends at the global-timeout abort.
  ScriptedPair pair({}, {0});
  core::Context ctx_a(*pair.a, core::DevAttr{});
  core::Context ctx_b(*pair.b, core::DevAttr{});
  core::Qp* qa = ctx_a.create_qp(one_packet_chunks());
  core::Qp* qb = ctx_b.create_qp(one_packet_chunks());
  qa->connect(qb->info());
  qb->connect(qa->info());
  verbs::ControlLink ca(*pair.a), cb(*pair.b);
  ca.connect(2, cb.qp_number());
  cb.connect(1, ca.qp_number());

  LinkProfile profile;
  profile.bandwidth_bps = 100e9;
  profile.rtt_s = rtt_s(100.0);
  profile.mtu = 1024;
  profile.chunk_bytes = 1024;
  ec::ReedSolomon codec(8, 4);
  EcProtoConfig config;
  config.k = 8;
  config.m = 4;
  SrProtoConfig sr;
  sr.rto_s = 3.0 * profile.rtt_s;
  sr.ack_interval_s = profile.rtt_s / 4.0;
  EcSender sender(pair.sim, *qa, ca, profile, codec, config, sr);
  EcReceiver receiver(pair.sim, *qb, cb, profile, codec, config);

  const std::size_t len = 8 * 1024;  // exactly one submessage
  const auto src = pattern(len, 6);
  std::vector<std::uint8_t> dst(len, 0);
  const auto* mr = ctx_b.mr_reg(dst.data(), dst.size());
  bool received = false;
  bool sent = false;
  receiver.expect(dst.data(), len, mr, [&](const Status& s) {
    received = s.is_ok();
  });
  sender.write(src.data(), len, [&](const Status& s) { sent = s.is_ok(); });
  pair.sim.run_until(SimTime::from_seconds(1.0));

  EXPECT_TRUE(received);
  EXPECT_TRUE(sent);
  EXPECT_EQ(std::memcmp(dst.data(), src.data(), len), 0);
}

TEST(FaultInjectionTest, SrFinishesAfterItsFinalAckIsLost) {
  // Backward packet 1 is the final ACK (the one chunk burst lands before
  // the first ACK tick); drop it and the next two backward datagrams. The
  // sender's RTOs re-send the chunks, and the receiver answers those late
  // copies with the final ACK until one gets through.
  ScriptedPair pair({}, {1, 2, 3});
  core::Context ctx_a(*pair.a, core::DevAttr{});
  core::Context ctx_b(*pair.b, core::DevAttr{});
  core::Qp* qa = ctx_a.create_qp(one_packet_chunks());
  core::Qp* qb = ctx_b.create_qp(one_packet_chunks());
  qa->connect(qb->info());
  qb->connect(qa->info());
  verbs::ControlLink ca(*pair.a), cb(*pair.b);
  ca.connect(2, cb.qp_number());
  cb.connect(1, ca.qp_number());

  LinkProfile profile;
  profile.bandwidth_bps = 100e9;
  profile.rtt_s = rtt_s(100.0);
  profile.mtu = 1024;
  profile.chunk_bytes = 1024;
  SrProtoConfig config;
  config.rto_s = 3.0 * profile.rtt_s;
  config.ack_interval_s = profile.rtt_s / 4.0;
  SrSender sender(pair.sim, *qa, ca, profile, config);
  SrReceiver receiver(pair.sim, *qb, cb, profile, config);

  const std::size_t len = 16 * 1024;
  const auto src = pattern(len, 8);
  std::vector<std::uint8_t> dst(len, 0);
  const auto* mr = ctx_b.mr_reg(dst.data(), dst.size());
  Status received(StatusCode::kNotReady, "");
  Status sent(StatusCode::kNotReady, "");
  receiver.expect(dst.data(), len, mr, [&](const Status& s) { received = s; });
  sender.write(src.data(), len, [&](const Status& s) { sent = s; });
  pair.sim.run_until(SimTime::from_seconds(1.0));

  EXPECT_TRUE(received.is_ok());
  EXPECT_TRUE(sent.is_ok()) << "the sender must hear a final ACK";
  EXPECT_EQ(pair.sim.pending(), 0u);
  EXPECT_EQ(std::memcmp(dst.data(), src.data(), len), 0);
}

TEST(FaultInjectionTest, EcFinishesAfterItsAckIsLost) {
  // Backward packets 0 and 1 are the CTSes of the data and parity streams,
  // 2 the EC ACK; drop it and the next two. The message never enters
  // fallback, so only the sender's silence clock can probe: each silent
  // round re-sends one data chunk, which the finished receiver answers.
  ScriptedPair pair({}, {2, 3, 4});
  core::Context ctx_a(*pair.a, core::DevAttr{});
  core::Context ctx_b(*pair.b, core::DevAttr{});
  core::Qp* qa = ctx_a.create_qp(one_packet_chunks());
  core::Qp* qb = ctx_b.create_qp(one_packet_chunks());
  qa->connect(qb->info());
  qb->connect(qa->info());
  verbs::ControlLink ca(*pair.a), cb(*pair.b);
  ca.connect(2, cb.qp_number());
  cb.connect(1, ca.qp_number());

  LinkProfile profile;
  profile.bandwidth_bps = 100e9;
  profile.rtt_s = rtt_s(100.0);
  profile.mtu = 1024;
  profile.chunk_bytes = 1024;
  ec::ReedSolomon codec(8, 4);
  EcProtoConfig config;
  config.k = 8;
  config.m = 4;
  SrProtoConfig sr;
  sr.rto_s = 3.0 * profile.rtt_s;
  EcSender sender(pair.sim, *qa, ca, profile, codec, config, sr);
  EcReceiver receiver(pair.sim, *qb, cb, profile, codec, config);

  const std::size_t len = 8 * 1024;  // exactly one submessage
  const auto src = pattern(len, 9);
  std::vector<std::uint8_t> dst(len, 0);
  const auto* mr = ctx_b.mr_reg(dst.data(), dst.size());
  Status received(StatusCode::kNotReady, "");
  Status sent(StatusCode::kNotReady, "");
  receiver.expect(dst.data(), len, mr, [&](const Status& s) { received = s; });
  sender.write(src.data(), len, [&](const Status& s) { sent = s; });
  pair.sim.run_until(SimTime::from_seconds(1.0));

  EXPECT_TRUE(received.is_ok());
  EXPECT_TRUE(sent.is_ok()) << "the sender must hear an EC ACK";
  EXPECT_EQ(pair.sim.pending(), 0u);
  EXPECT_EQ(receiver.stats().ftos_fired, 0u);
  EXPECT_EQ(sender.stats().fallback_retransmissions, 3u)
      << "one probe per silent round: two answers lost, the third heard";
  EXPECT_EQ(std::memcmp(dst.data(), src.data(), len), 0);
}

TEST(FaultInjectionTest, BurstInsideOneChunkIsOneChunkDrop) {
  // Paper §3.1.1: "with a chunk size of 16 packets, dropping 7 packets
  // inside a chunk would appear to the upper layer as a single chunk
  // drop". Script a 7-packet burst inside chunk 1 of a 4-chunk message.
  ScriptedPair pair({16, 17, 18, 19, 20, 21, 22});  // inside packets 16..31
  core::Context ctx_a(*pair.a, core::DevAttr{});
  core::Context ctx_b(*pair.b, core::DevAttr{});
  core::QpAttr attr;
  attr.mtu = 1024;
  attr.chunk_size = 16 * 1024;  // 16 packets per chunk
  attr.max_msg_size = 64 * 1024;
  core::Qp* qa = ctx_a.create_qp(attr);
  core::Qp* qb = ctx_b.create_qp(attr);
  qa->connect(qb->info());
  qb->connect(qa->info());

  const std::size_t len = 64 * 1024;  // 4 chunks
  const auto src = pattern(len, 4);
  std::vector<std::uint8_t> dst(len, 0);
  const auto* mr = ctx_b.mr_reg(dst.data(), dst.size());
  core::RecvHandle* rh = nullptr;
  ASSERT_TRUE(qb->recv_post(dst.data(), len, mr, &rh).is_ok());
  core::SendHandle* sh = nullptr;
  ASSERT_TRUE(qa->send_post(src.data(), len, 0, false, &sh).is_ok());
  pair.sim.run();

  const AtomicBitmap* bitmap = nullptr;
  ASSERT_TRUE(qb->recv_bitmap_get(rh, &bitmap).is_ok());
  EXPECT_TRUE(bitmap->test(0));
  EXPECT_FALSE(bitmap->test(1)) << "the burst chunk is the only gap";
  EXPECT_TRUE(bitmap->test(2));
  EXPECT_TRUE(bitmap->test(3));
  EXPECT_EQ(bitmap->popcount(), 3u);
}

}  // namespace
}  // namespace sdr::reliability
