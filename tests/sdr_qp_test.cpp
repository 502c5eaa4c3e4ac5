// End-to-end tests of the SDR middleware over the software NIC + simulated
// long-haul link: order-based matching, CTS flow, partial-completion
// bitmaps under loss, streaming retransmission, one-shot sends, user
// immediates, late-packet protection (NULL key + generations), message-ID
// wraparound.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "sdr/sdr.hpp"
#include "sim/simulator.hpp"
#include "verbs/nic.hpp"

namespace sdr::core {
namespace {

QpAttr test_attr() {
  QpAttr attr;
  attr.mtu = 1024;
  attr.chunk_size = 4096;         // 4 packets per chunk
  attr.max_msg_size = 64 * 1024;  // 16 chunks per message slot
  attr.max_inflight = 8;
  attr.generations = 2;
  attr.channels = 1;
  return attr;
}

std::vector<std::uint8_t> pattern(std::size_t n, std::uint8_t seed = 1) {
  std::vector<std::uint8_t> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = static_cast<std::uint8_t>(seed + i * 131 + (i >> 8));
  }
  return v;
}

class SdrFixture : public ::testing::Test {
 protected:
  void wire(double p_drop_fwd, double p_drop_bwd = 0.0,
            QpAttr attr = test_attr()) {
    // Destruction order matters on re-wire: SDR QPs unregister from their
    // NIC, so contexts must go before the NIC pair.
    ctx_a_.reset();
    ctx_b_.reset();
    sim::Channel::Config cfg;
    cfg.bandwidth_bps = 100e9;
    cfg.distance_km = 10.0;
    cfg.seed = 11;
    pair_ = verbs::make_connected_pair(sim_, cfg, p_drop_fwd, p_drop_bwd);
    ctx_a_ = std::make_unique<Context>(*pair_.a, DevAttr{});
    ctx_b_ = std::make_unique<Context>(*pair_.b, DevAttr{});
    qp_a_ = ctx_a_->create_qp(attr);
    qp_b_ = ctx_b_->create_qp(attr);
    ASSERT_NE(qp_a_, nullptr);
    ASSERT_NE(qp_b_, nullptr);
    ASSERT_TRUE(qp_a_->connect(qp_b_->info()).is_ok());
    ASSERT_TRUE(qp_b_->connect(qp_a_->info()).is_ok());
  }

  sim::Simulator sim_;
  verbs::NicPair pair_;
  std::unique_ptr<Context> ctx_a_, ctx_b_;
  Qp* qp_a_{nullptr};
  Qp* qp_b_{nullptr};
};

TEST_F(SdrFixture, InvalidAttrRejected) {
  wire(0.0);
  QpAttr bad = test_attr();
  bad.chunk_size = 1000;
  EXPECT_EQ(ctx_a_->create_qp(bad), nullptr);
}

TEST_F(SdrFixture, AttrMismatchRejectedAtConnect) {
  wire(0.0);
  QpAttr other = test_attr();
  other.chunk_size = 8192;
  Qp* odd = ctx_a_->create_qp(other);
  ASSERT_NE(odd, nullptr);
  EXPECT_EQ(odd->connect(qp_b_->info()).code(), StatusCode::kInvalidArgument);
}

TEST_F(SdrFixture, OneShotSendLossless) {
  wire(0.0);
  const auto src = pattern(20000);
  std::vector<std::uint8_t> dst(64 * 1024, 0);
  const auto* mr = ctx_b_->mr_reg(dst.data(), dst.size());

  RecvHandle* rh = nullptr;
  ASSERT_TRUE(qp_b_->recv_post(dst.data(), src.size(), mr, &rh).is_ok());
  SendHandle* sh = nullptr;
  ASSERT_TRUE(qp_a_->send_post(src.data(), src.size(), 0, false, &sh).is_ok());
  sim_.run();

  EXPECT_TRUE(qp_b_->recv_done(rh));
  EXPECT_EQ(std::memcmp(dst.data(), src.data(), src.size()), 0);
  EXPECT_TRUE(qp_a_->send_poll(sh).is_ok());
  EXPECT_TRUE(qp_b_->recv_complete(rh).is_ok());
}

TEST_F(SdrFixture, BitmapShowsPartialCompletionUnderLoss) {
  // The core SDR service: a lossy transfer leaves exactly the dropped
  // chunks unset in the frontend bitmap.
  wire(0.05);
  const std::size_t len = 64 * 1024;  // 64 packets, 16 chunks
  const auto src = pattern(len);
  std::vector<std::uint8_t> dst(len, 0);
  const auto* mr = ctx_b_->mr_reg(dst.data(), dst.size());

  RecvHandle* rh = nullptr;
  ASSERT_TRUE(qp_b_->recv_post(dst.data(), len, mr, &rh).is_ok());
  SendHandle* sh = nullptr;
  ASSERT_TRUE(qp_a_->send_post(src.data(), len, 0, false, &sh).is_ok());
  sim_.run();

  const AtomicBitmap* bitmap = nullptr;
  ASSERT_TRUE(qp_b_->recv_bitmap_get(rh, &bitmap).is_ok());
  ASSERT_EQ(bitmap->size(), 16u);

  // Every set chunk bit corresponds to fully intact data.
  const MessageTable& table = qp_b_->message_table();
  std::size_t set_chunks = 0;
  for (std::size_t c = 0; c < 16; ++c) {
    if (!bitmap->test(c)) continue;
    ++set_chunks;
    EXPECT_EQ(std::memcmp(dst.data() + c * 4096, src.data() + c * 4096, 4096),
              0)
        << "chunk " << c << " signaled complete but data differs";
  }
  // With 5% packet loss over 64 packets, some chunks are typically missing
  // and the message is not complete; the per-packet bitmap matches counts.
  EXPECT_LT(set_chunks, 16u);
  EXPECT_GT(set_chunks, 0u);
  EXPECT_EQ(table.packets_received(rh->slot()),
            table.packet_bitmap(rh->slot()).popcount());
}

TEST_F(SdrFixture, StreamingRetransmissionFillsBitmap) {
  // The SR use case: poll the bitmap, re-send missing chunks through
  // send_stream_continue until the receive completes.
  wire(0.05);
  const std::size_t len = 64 * 1024;
  const auto src = pattern(len, 7);
  std::vector<std::uint8_t> dst(len, 0);
  const auto* mr = ctx_b_->mr_reg(dst.data(), dst.size());

  RecvHandle* rh = nullptr;
  ASSERT_TRUE(qp_b_->recv_post(dst.data(), len, mr, &rh).is_ok());
  SendHandle* sh = nullptr;
  ASSERT_TRUE(qp_a_->send_stream_start(0, false, &sh).is_ok());
  ASSERT_TRUE(qp_a_->send_stream_continue(sh, src.data(), 0, len).is_ok());
  sim_.run();

  const AtomicBitmap* bitmap = nullptr;
  ASSERT_TRUE(qp_b_->recv_bitmap_get(rh, &bitmap).is_ok());
  // Retransmit missing chunks until done (bounded rounds: loss is 5%).
  for (int round = 0; round < 50 && !qp_b_->recv_done(rh); ++round) {
    for (std::size_t c = 0; c < 16; ++c) {
      if (bitmap->test(c)) continue;
      ASSERT_TRUE(qp_a_
                      ->send_stream_continue(sh, src.data() + c * 4096,
                                             c * 4096, 4096)
                      .is_ok());
    }
    sim_.run();
  }
  ASSERT_TRUE(qp_b_->recv_done(rh));
  EXPECT_EQ(std::memcmp(dst.data(), src.data(), len), 0);
  ASSERT_TRUE(qp_a_->send_stream_end(sh).is_ok());
  sim_.run();
  EXPECT_TRUE(qp_a_->send_poll(sh).is_ok());
}

TEST_F(SdrFixture, OrderBasedMatching) {
  // Paper §3.1.3: Send1 lands in Recv1, Send2 in Recv2 — no rkey exchange.
  wire(0.0);
  const auto src1 = pattern(8192, 1);
  const auto src2 = pattern(8192, 2);
  std::vector<std::uint8_t> dst1(8192, 0), dst2(8192, 0);
  const auto* mr1 = ctx_b_->mr_reg(dst1.data(), dst1.size());
  const auto* mr2 = ctx_b_->mr_reg(dst2.data(), dst2.size());

  RecvHandle *rh1 = nullptr, *rh2 = nullptr;
  ASSERT_TRUE(qp_b_->recv_post(dst1.data(), 8192, mr1, &rh1).is_ok());
  ASSERT_TRUE(qp_b_->recv_post(dst2.data(), 8192, mr2, &rh2).is_ok());
  SendHandle *sh1 = nullptr, *sh2 = nullptr;
  ASSERT_TRUE(qp_a_->send_post(src1.data(), 8192, 0, false, &sh1).is_ok());
  ASSERT_TRUE(qp_a_->send_post(src2.data(), 8192, 0, false, &sh2).is_ok());
  sim_.run();

  EXPECT_EQ(std::memcmp(dst1.data(), src1.data(), 8192), 0);
  EXPECT_EQ(std::memcmp(dst2.data(), src2.data(), 8192), 0);
}

TEST_F(SdrFixture, SendBeforeReceiveIsQueuedUntilCts) {
  // The sender may start before the receiver posts; chunks queue and flush
  // when the CTS arrives.
  wire(0.0);
  const auto src = pattern(8192, 3);
  std::vector<std::uint8_t> dst(8192, 0);
  const auto* mr = ctx_b_->mr_reg(dst.data(), dst.size());

  SendHandle* sh = nullptr;
  ASSERT_TRUE(qp_a_->send_post(src.data(), 8192, 0, false, &sh).is_ok());
  sim_.run();  // no receive posted: nothing happens
  EXPECT_EQ(qp_a_->send_poll(sh).code(), StatusCode::kNotReady);
  EXPECT_GT(qp_a_->stats().sends_queued_waiting_cts, 0u);

  RecvHandle* rh = nullptr;
  ASSERT_TRUE(qp_b_->recv_post(dst.data(), 8192, mr, &rh).is_ok());
  sim_.run();
  EXPECT_TRUE(qp_b_->recv_done(rh));
  EXPECT_EQ(std::memcmp(dst.data(), src.data(), 8192), 0);
  EXPECT_TRUE(qp_a_->send_poll(sh).is_ok());
}

TEST_F(SdrFixture, RefusedSendPostKeepsTheArrivedCts) {
  // A post larger than the receive buffer is refused and rolled back. The
  // CTS that had already arrived for its message number must survive the
  // rollback: the receiver sent it once, and the bare core never re-sends.
  wire(0.0);
  const auto src = pattern(8192, 9);
  std::vector<std::uint8_t> dst(4096, 0);
  const auto* mr = ctx_b_->mr_reg(dst.data(), dst.size());

  RecvHandle* rh = nullptr;
  ASSERT_TRUE(qp_b_->recv_post(dst.data(), 4096, mr, &rh).is_ok());
  sim_.run();  // the CTS arrives before any send and parks
  ASSERT_EQ(qp_a_->stats().cts_received, 1u);

  SendHandle* sh = nullptr;
  EXPECT_EQ(qp_a_->send_post(src.data(), 8192, 0, false, &sh).code(),
            StatusCode::kOutOfRange);
  ASSERT_TRUE(qp_a_->send_post(src.data(), 4096, 0, false, &sh).is_ok());
  EXPECT_TRUE(sh->cts_ready());
  sim_.run();
  EXPECT_TRUE(qp_b_->recv_done(rh));
  EXPECT_EQ(std::memcmp(dst.data(), src.data(), 4096), 0);
  EXPECT_TRUE(qp_a_->send_poll(sh).is_ok());
}

TEST_F(SdrFixture, UserImmediateReconstruction) {
  wire(0.0);
  const std::size_t len = 16 * 1024;  // 16 packets >= 8 fragments
  const auto src = pattern(len, 4);
  std::vector<std::uint8_t> dst(len, 0);
  const auto* mr = ctx_b_->mr_reg(dst.data(), dst.size());

  RecvHandle* rh = nullptr;
  ASSERT_TRUE(qp_b_->recv_post(dst.data(), len, mr, &rh).is_ok());
  std::uint32_t imm_out = 0;
  EXPECT_EQ(qp_b_->recv_imm_get(rh, &imm_out).code(), StatusCode::kNotReady);

  SendHandle* sh = nullptr;
  ASSERT_TRUE(
      qp_a_->send_post(src.data(), len, 0xFEEDC0DE, true, &sh).is_ok());
  sim_.run();
  ASSERT_TRUE(qp_b_->recv_imm_get(rh, &imm_out).is_ok());
  EXPECT_EQ(imm_out, 0xFEEDC0DE);
}

TEST_F(SdrFixture, RecvEventsFireChunkAndMessage) {
  wire(0.0);
  const std::size_t len = 16 * 1024;  // 4 chunks
  const auto src = pattern(len, 5);
  std::vector<std::uint8_t> dst(len, 0);
  const auto* mr = ctx_b_->mr_reg(dst.data(), dst.size());

  int chunk_events = 0, msg_events = 0;
  qp_b_->set_recv_event_handler([&](const RecvEvent& ev) {
    if (ev.type == RecvEvent::Type::kChunkCompleted) ++chunk_events;
    if (ev.type == RecvEvent::Type::kMessageCompleted) ++msg_events;
  });
  RecvHandle* rh = nullptr;
  ASSERT_TRUE(qp_b_->recv_post(dst.data(), len, mr, &rh).is_ok());
  SendHandle* sh = nullptr;
  ASSERT_TRUE(qp_a_->send_post(src.data(), len, 0, false, &sh).is_ok());
  sim_.run();
  EXPECT_EQ(chunk_events, 4);
  EXPECT_EQ(msg_events, 1);
}

TEST_F(SdrFixture, EarlyCompletionDiscardsLatePackets) {
  // Paper §3.3.1/Fig 6: completing a receive while packets are in flight
  // must not corrupt the buffer (NULL key) or the bitmaps (generation).
  wire(0.0);
  const std::size_t len = 32 * 1024;
  const auto src = pattern(len, 6);
  std::vector<std::uint8_t> dst(len, 0xAA);
  const auto* mr = ctx_b_->mr_reg(dst.data(), dst.size());

  RecvHandle* rh = nullptr;
  ASSERT_TRUE(qp_b_->recv_post(dst.data(), len, mr, &rh).is_ok());
  SendHandle* sh = nullptr;
  ASSERT_TRUE(qp_a_->send_post(src.data(), len, 0, false, &sh).is_ok());

  // Run only until the first few packets arrived, then complete early.
  sim_.run_until(SimTime::from_micros(40));
  ASSERT_TRUE(qp_b_->recv_complete(rh).is_ok());
  const std::vector<std::uint8_t> snapshot = dst;
  const std::uint64_t discarded_before = qp_b_->stats().completions_discarded;
  sim_.run();  // remaining packets arrive late

  // Buffer unchanged after completion; all late completions discarded.
  EXPECT_EQ(dst, snapshot);
  EXPECT_GT(qp_b_->stats().completions_discarded, discarded_before);
}

TEST_F(SdrFixture, SlotReuseWithGenerationsIsClean) {
  // Post/complete enough receives to wrap the message-ID space and cycle
  // generations; every transfer must be isolated from its predecessors.
  wire(0.0);
  const std::size_t len = 8192;
  std::vector<std::uint8_t> dst(len, 0);
  const auto* mr = ctx_b_->mr_reg(dst.data(), dst.size());

  // 8 slots x 2 generations x 2 = 32 sequential messages.
  for (int i = 0; i < 32; ++i) {
    const auto src = pattern(len, static_cast<std::uint8_t>(i + 1));
    RecvHandle* rh = nullptr;
    ASSERT_TRUE(qp_b_->recv_post(dst.data(), len, mr, &rh).is_ok()) << i;
    SendHandle* sh = nullptr;
    ASSERT_TRUE(qp_a_->send_post(src.data(), len, 0, false, &sh).is_ok()) << i;
    sim_.run();
    ASSERT_TRUE(qp_b_->recv_done(rh)) << i;
    ASSERT_EQ(std::memcmp(dst.data(), src.data(), len), 0) << i;
    ASSERT_TRUE(qp_b_->recv_complete(rh).is_ok());
    ASSERT_TRUE(qp_a_->send_poll(sh).is_ok());
  }
}

TEST_F(SdrFixture, InFlightLimitEnforced) {
  wire(0.0);
  std::vector<std::uint8_t> dst(64 * 1024);
  const auto* mr = ctx_b_->mr_reg(dst.data(), dst.size());
  std::vector<RecvHandle*> handles;
  for (std::size_t i = 0; i < test_attr().max_inflight; ++i) {
    RecvHandle* rh = nullptr;
    ASSERT_TRUE(qp_b_->recv_post(dst.data(), 1024, mr, &rh).is_ok());
    handles.push_back(rh);
  }
  RecvHandle* extra = nullptr;
  EXPECT_EQ(qp_b_->recv_post(dst.data(), 1024, mr, &extra).code(),
            StatusCode::kResourceExhausted);
  // Completing the oldest frees its slot.
  ASSERT_TRUE(qp_b_->recv_complete(handles[0]).is_ok());
  EXPECT_TRUE(qp_b_->recv_post(dst.data(), 1024, mr, &extra).is_ok());
}

TEST_F(SdrFixture, ApiMisuseErrors) {
  wire(0.0);
  const auto src = pattern(4096);
  std::vector<std::uint8_t> dst(4096);
  const auto* mr = ctx_b_->mr_reg(dst.data(), dst.size());

  SendHandle* sh = nullptr;
  ASSERT_TRUE(qp_a_->send_stream_start(0, false, &sh).is_ok());
  // Unaligned offset.
  EXPECT_EQ(qp_a_->send_stream_continue(sh, src.data(), 100, 1024).code(),
            StatusCode::kInvalidArgument);
  // Beyond max message size.
  EXPECT_EQ(
      qp_a_->send_stream_continue(sh, src.data(), 63 * 1024, 4096).code(),
      StatusCode::kOutOfRange);
  // Continue after end.
  ASSERT_TRUE(qp_a_->send_stream_end(sh).is_ok());
  EXPECT_EQ(qp_a_->send_stream_continue(sh, src.data(), 0, 1024).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(qp_a_->send_stream_end(sh).code(),
            StatusCode::kFailedPrecondition);

  // Receive: buffer outside the MR.
  RecvHandle* rh = nullptr;
  EXPECT_EQ(
      qp_b_->recv_post(dst.data() + 1, dst.size(), mr, &rh).code(),
      StatusCode::kOutOfRange);
  // Oversized receive.
  std::vector<std::uint8_t> big(128 * 1024);
  const auto* big_mr = ctx_b_->mr_reg(big.data(), big.size());
  EXPECT_EQ(qp_b_->recv_post(big.data(), big.size(), big_mr, &rh).code(),
            StatusCode::kOutOfRange);
  // Null arguments.
  EXPECT_EQ(qp_b_->recv_post(nullptr, 10, mr, &rh).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(qp_b_->recv_complete(nullptr).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(qp_a_->send_poll(nullptr).code(), StatusCode::kInvalidArgument);
}

TEST_F(SdrFixture, MultiChannelDistributesTraffic) {
  QpAttr attr = test_attr();
  attr.channels = 4;
  wire(0.0, 0.0, attr);
  const std::size_t len = 64 * 1024;  // 64 packets over 4 channels
  const auto src = pattern(len, 9);
  std::vector<std::uint8_t> dst(len, 0);
  const auto* mr = ctx_b_->mr_reg(dst.data(), dst.size());

  RecvHandle* rh = nullptr;
  ASSERT_TRUE(qp_b_->recv_post(dst.data(), len, mr, &rh).is_ok());
  SendHandle* sh = nullptr;
  ASSERT_TRUE(qp_a_->send_post(src.data(), len, 0, false, &sh).is_ok());
  sim_.run();
  EXPECT_TRUE(qp_b_->recv_done(rh));
  EXPECT_EQ(std::memcmp(dst.data(), src.data(), len), 0);
}

// ---------------------------------------------------------------------------
// UD staging transport (paper §2.3)
// ---------------------------------------------------------------------------

TEST_F(SdrFixture, UdTransportDeliversWithStagingCopies) {
  QpAttr attr = test_attr();
  attr.transport = Transport::kUd;
  wire(0.0, 0.0, attr);
  const std::size_t len = 32 * 1024;
  const auto src = pattern(len, 21);
  std::vector<std::uint8_t> dst(len, 0);
  const auto* mr = ctx_b_->mr_reg(dst.data(), dst.size());

  RecvHandle* rh = nullptr;
  ASSERT_TRUE(qp_b_->recv_post(dst.data(), len, mr, &rh).is_ok());
  SendHandle* sh = nullptr;
  ASSERT_TRUE(qp_a_->send_post(src.data(), len, 0, false, &sh).is_ok());
  sim_.run();

  EXPECT_TRUE(qp_b_->recv_done(rh));
  EXPECT_EQ(std::memcmp(dst.data(), src.data(), len), 0);
  // Every packet was staged and copied (the §2.3 cost UC avoids).
  EXPECT_EQ(qp_b_->stats().staged_packets, len / attr.mtu);
  EXPECT_EQ(qp_b_->stats().staged_bytes, len);
}

TEST_F(SdrFixture, UdTransportPartialBitmapUnderLoss) {
  QpAttr attr = test_attr();
  attr.transport = Transport::kUd;
  wire(0.1, 0.0, attr);
  const std::size_t len = 64 * 1024;
  const auto src = pattern(len, 22);
  std::vector<std::uint8_t> dst(len, 0);
  const auto* mr = ctx_b_->mr_reg(dst.data(), dst.size());
  RecvHandle* rh = nullptr;
  ASSERT_TRUE(qp_b_->recv_post(dst.data(), len, mr, &rh).is_ok());
  SendHandle* sh = nullptr;
  ASSERT_TRUE(qp_a_->send_post(src.data(), len, 0, false, &sh).is_ok());
  sim_.run();
  const AtomicBitmap* bitmap = nullptr;
  ASSERT_TRUE(qp_b_->recv_bitmap_get(rh, &bitmap).is_ok());
  EXPECT_LT(bitmap->popcount(), bitmap->size());
  for (std::size_t c = 0; c < bitmap->size(); ++c) {
    if (bitmap->test(c)) {
      EXPECT_EQ(std::memcmp(dst.data() + c * 4096, src.data() + c * 4096,
                            4096),
                0);
    }
  }
}

TEST_F(SdrFixture, UdTransportLatePacketsNeverTouchUserMemory) {
  // The software staging backend checks generations BEFORE copying; an
  // early-completed receive leaves the destination byte-identical.
  QpAttr attr = test_attr();
  attr.transport = Transport::kUd;
  wire(0.0, 0.0, attr);
  const std::size_t len = 32 * 1024;
  const auto src = pattern(len, 23);
  std::vector<std::uint8_t> dst(len, 0xCC);
  const auto* mr = ctx_b_->mr_reg(dst.data(), dst.size());
  RecvHandle* rh = nullptr;
  ASSERT_TRUE(qp_b_->recv_post(dst.data(), len, mr, &rh).is_ok());
  SendHandle* sh = nullptr;
  ASSERT_TRUE(qp_a_->send_post(src.data(), len, 0, false, &sh).is_ok());
  sim_.run_until(SimTime::from_micros(40));
  ASSERT_TRUE(qp_b_->recv_complete(rh).is_ok());
  const std::vector<std::uint8_t> snapshot = dst;
  sim_.run();
  EXPECT_EQ(dst, snapshot);
}

TEST_F(SdrFixture, TransportMismatchRejectedAtConnect) {
  wire(0.0);
  QpAttr ud_attr = test_attr();
  ud_attr.transport = Transport::kUd;
  Qp* ud_qp = ctx_a_->create_qp(ud_attr);
  ASSERT_NE(ud_qp, nullptr);
  EXPECT_EQ(ud_qp->connect(qp_b_->info()).code(),
            StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// Reordering tolerance (the §3.2.1 design rationale)
// ---------------------------------------------------------------------------

TEST_F(SdrFixture, SurvivesReorderingWherePlainUcWritesDie) {
  // Channel with heavy reordering. A plain multi-packet UC Write loses
  // whole messages to ePSN mismatches; SDR's one-Write-per-packet backend
  // delivers everything.
  ctx_a_.reset();
  ctx_b_.reset();
  sim::Channel::Config cfg;
  cfg.bandwidth_bps = 100e9;
  cfg.distance_km = 10.0;
  cfg.seed = 77;
  cfg.reorder_probability = 0.05;
  cfg.reorder_extra_delay_s = 20e-6;  // hold packets back past neighbours
  pair_ = verbs::make_connected_pair(sim_, cfg, 0.0, 0.0);
  ctx_a_ = std::make_unique<Context>(*pair_.a, DevAttr{});
  ctx_b_ = std::make_unique<Context>(*pair_.b, DevAttr{});
  qp_a_ = ctx_a_->create_qp(test_attr());
  qp_b_ = ctx_b_->create_qp(test_attr());
  qp_a_->connect(qp_b_->info());
  qp_b_->connect(qp_a_->info());

  // Baseline: plain UC multi-packet Writes on the same fabric.
  verbs::CompletionQueue uc_rx_cq(1 << 12);
  verbs::QpConfig uc_cfg;
  uc_cfg.type = verbs::QpType::kUC;
  uc_cfg.mtu = 1024;
  uc_cfg.recv_cq = &uc_rx_cq;
  verbs::Qp* uc_tx = pair_.a->create_qp(uc_cfg);
  verbs::Qp* uc_rx = pair_.b->create_qp(uc_cfg);
  uc_tx->connect(pair_.b->id(), uc_rx->num());
  std::vector<std::uint8_t> uc_dst(16 * 1024);
  const auto* uc_mr = pair_.b->pd().register_mr(uc_dst.data(), uc_dst.size());
  const auto uc_src = pattern(16 * 1024, 31);
  const int uc_messages = 100;
  for (int i = 0; i < uc_messages; ++i) {
    verbs::WriteWr wr;
    wr.local_addr = uc_src.data();
    wr.length = uc_src.size();  // 16 packets
    wr.rkey = uc_mr->rkey();
    wr.with_imm = true;
    uc_tx->post_write(wr);
  }
  sim_.run();
  EXPECT_LT(uc_rx_cq.size(), 70u)
      << "plain UC should lose a significant fraction to reordering";

  // SDR on the same reordering fabric: every message completes.
  const std::size_t len = 16 * 1024;
  const auto src = pattern(len, 32);
  std::vector<std::uint8_t> dst(len, 0);
  const auto* mr = ctx_b_->mr_reg(dst.data(), dst.size());
  for (int i = 0; i < 8; ++i) {
    RecvHandle* rh = nullptr;
    ASSERT_TRUE(qp_b_->recv_post(dst.data(), len, mr, &rh).is_ok());
    SendHandle* sh = nullptr;
    ASSERT_TRUE(qp_a_->send_post(src.data(), len, 0, false, &sh).is_ok());
    sim_.run();
    ASSERT_TRUE(qp_b_->recv_done(rh)) << "message " << i;
    ASSERT_EQ(std::memcmp(dst.data(), src.data(), len), 0);
    ASSERT_TRUE(qp_b_->recv_complete(rh).is_ok());
    ASSERT_TRUE(qp_a_->send_poll(sh).is_ok());
  }
}

TEST_F(SdrFixture, WireDuplicatesAreFilteredByThePacketBitmap) {
  // A duplicating channel (e.g. WAN path failover) delivers some packets
  // twice; the per-packet bitmap dedups them, the message completes once,
  // and data is intact.
  ctx_a_.reset();
  ctx_b_.reset();
  sim::Channel::Config cfg;
  cfg.bandwidth_bps = 100e9;
  cfg.distance_km = 10.0;
  cfg.seed = 41;
  cfg.duplicate_probability = 0.2;
  pair_ = verbs::make_connected_pair(sim_, cfg, 0.0, 0.0);
  ctx_a_ = std::make_unique<Context>(*pair_.a, DevAttr{});
  ctx_b_ = std::make_unique<Context>(*pair_.b, DevAttr{});
  qp_a_ = ctx_a_->create_qp(test_attr());
  qp_b_ = ctx_b_->create_qp(test_attr());
  qp_a_->connect(qp_b_->info());
  qp_b_->connect(qp_a_->info());

  const std::size_t len = 32 * 1024;  // 32 packets
  const auto src = pattern(len, 17);
  std::vector<std::uint8_t> dst(len, 0);
  const auto* mr = ctx_b_->mr_reg(dst.data(), dst.size());
  int msg_completions = 0;
  qp_b_->set_recv_event_handler([&](const RecvEvent& ev) {
    if (ev.type == RecvEvent::Type::kMessageCompleted) ++msg_completions;
  });
  RecvHandle* rh = nullptr;
  ASSERT_TRUE(qp_b_->recv_post(dst.data(), len, mr, &rh).is_ok());
  SendHandle* sh = nullptr;
  ASSERT_TRUE(qp_a_->send_post(src.data(), len, 0, false, &sh).is_ok());
  sim_.run();

  EXPECT_TRUE(qp_b_->recv_done(rh));
  EXPECT_EQ(msg_completions, 1) << "duplicates must not re-complete";
  EXPECT_EQ(std::memcmp(dst.data(), src.data(), len), 0);
  EXPECT_GT(qp_b_->message_table().stats(rh->slot()).duplicates, 0u);
}

TEST_F(SdrFixture, LossyTransferNeverCorruptsReceivedChunks) {
  // Property over several lossy runs: whatever the bitmap claims complete
  // is byte-exact; whatever it does not claim is untouched or partial.
  for (const double p : {0.01, 0.1, 0.3}) {
    wire(p);
    const std::size_t len = 32 * 1024;
    const auto src = pattern(len, 11);
    std::vector<std::uint8_t> dst(len, 0x55);
    const auto* mr = ctx_b_->mr_reg(dst.data(), dst.size());
    RecvHandle* rh = nullptr;
    ASSERT_TRUE(qp_b_->recv_post(dst.data(), len, mr, &rh).is_ok());
    SendHandle* sh = nullptr;
    ASSERT_TRUE(qp_a_->send_post(src.data(), len, 0, false, &sh).is_ok());
    sim_.run();
    const AtomicBitmap* bitmap = nullptr;
    ASSERT_TRUE(qp_b_->recv_bitmap_get(rh, &bitmap).is_ok());
    for (std::size_t c = 0; c < bitmap->size(); ++c) {
      if (bitmap->test(c)) {
        ASSERT_EQ(
            std::memcmp(dst.data() + c * 4096, src.data() + c * 4096, 4096),
            0);
      }
    }
  }
}

}  // namespace
}  // namespace sdr::core
