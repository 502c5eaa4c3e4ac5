// End-to-end tests of the SDR middleware over the software NIC + simulated
// long-haul link: order-based matching, CTS flow, partial-completion
// bitmaps under loss, streaming retransmission, one-shot sends, user
// immediates, late-packet protection (NULL key + generations), late-copy
// events for released receives, message-ID wraparound.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "sdr/sdr.hpp"
#include "sim/channel.hpp"
#include "sim/drop_model.hpp"
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
            QpAttr attr = test_attr(), const verbs::NicCaps& caps = {}) {
    // Destruction order matters on re-wire: SDR QPs unregister from their
    // NIC, so contexts must go before the NIC pair.
    ctx_a_.reset();
    ctx_b_.reset();
    sim::Channel::Config cfg;
    cfg.bandwidth_bps = 100e9;
    cfg.distance_km = 10.0;
    cfg.seed = 11;
    pair_ = verbs::make_connected_pair(sim_, cfg, p_drop_fwd, p_drop_bwd);
    pair_.a->set_caps(caps);  // before any QP exists: QPs snapshot caps
    pair_.b->set_caps(caps);
    ctx_a_ = std::make_unique<Context>(*pair_.a, DevAttr{});
    ctx_b_ = std::make_unique<Context>(*pair_.b, DevAttr{});
    qp_a_ = ctx_a_->create_qp(attr);
    qp_b_ = ctx_b_->create_qp(attr);
    ASSERT_NE(qp_a_, nullptr);
    ASSERT_NE(qp_b_, nullptr);
    ASSERT_TRUE(qp_a_->connect(qp_b_->info()).is_ok());
    ASSERT_TRUE(qp_b_->connect(qp_a_->info()).is_ok());
  }

  // Steps the simulator through the serialization of the data packets on
  // the a->b wires (default: the pair's forward link), which must carry
  // `wire_packets` in all: `sh` must stay not ready while any of them is
  // still serializing (or, with the NIC model, still queued in the
  // injector) and turn ready at exactly the instant the last bit of the
  // last one leaves.
  void expect_ready_when_last_packet_leaves(
      SendHandle* sh, std::uint64_t wire_packets,
      std::vector<const sim::Channel*> wires = {}) {
    if (wires.empty()) wires.push_back(&pair_.link->forward());
    auto sent = [&wires] {
      std::uint64_t n = 0;
      for (const sim::Channel* w : wires) n += w->stats().sent_packets;
      return n;
    };
    const SimTime step{10};
    const SimTime give_up = sim_.now() + SimTime::from_millis(1);
    SimTime t = sim_.now();
    while (sent() < wire_packets) {
      ASSERT_EQ(qp_a_->send_poll(sh).code(), StatusCode::kNotReady);
      ASSERT_LT(t, give_up) << "packets never reached the wire";
      t += step;
      sim_.run_until(t);
    }
    ASSERT_EQ(sent(), wire_packets);
    SimTime last_bit = SimTime::zero();
    for (const sim::Channel* w : wires) {
      last_bit = std::max(last_bit, w->next_free());
    }
    ASSERT_GT(last_bit, sim_.now());
    for (t += step; t < last_bit; t += step) {
      sim_.run_until(t);
      ASSERT_EQ(qp_a_->send_poll(sh).code(), StatusCode::kNotReady)
          << "ready " << (last_bit - t).ns << " ns before the last bit left";
    }
    sim_.run_until(last_bit - SimTime{1});
    EXPECT_EQ(qp_a_->send_poll(sh).code(), StatusCode::kNotReady);
    sim_.run_until(last_bit);
    EXPECT_TRUE(qp_a_->send_poll(sh).is_ok());
  }

  // Posts a receive of `len` bytes on b and runs until its CTS reached a,
  // so the next send on a injects synchronously.
  void post_recv_and_deliver_cts(std::vector<std::uint8_t>& dst,
                                 std::size_t len) {
    const auto* mr = ctx_b_->mr_reg(dst.data(), dst.size());
    RecvHandle* rh = nullptr;
    ASSERT_TRUE(qp_b_->recv_post(dst.data(), len, mr, &rh).is_ok());
    sim_.run();
    ASSERT_GT(qp_a_->stats().cts_received, 0u);
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

TEST_F(SdrFixture, BackToBackCtsesNeedOnePostedBuffer) {
  // The CTS link posts one receive buffer: each CTS is handed over and the
  // buffer re-posted inside its delivery. A full table of receives posted
  // in one burst must reach the sender whole, with nothing discarded.
  QpAttr attr = test_attr();
  attr.max_inflight = 256;
  wire(0.0, 0.0, attr);
  std::vector<std::uint8_t> dst(attr.max_inflight * 1024, 0);
  const auto* mr = ctx_b_->mr_reg(dst.data(), dst.size());
  for (std::size_t i = 0; i < attr.max_inflight; ++i) {
    RecvHandle* rh = nullptr;
    ASSERT_TRUE(
        qp_b_->recv_post(dst.data() + i * 1024, 1024, mr, &rh).is_ok());
  }
  sim_.run();

  EXPECT_EQ(qp_a_->stats().cts_received, attr.max_inflight);
  const verbs::Qp* cts_qp = pair_.a->find_qp(qp_a_->info().control_qp);
  ASSERT_NE(cts_qp, nullptr);
  EXPECT_EQ(cts_qp->stats().packets_received, attr.max_inflight);
  EXPECT_EQ(cts_qp->stats().packets_discarded, 0u);
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

TEST_F(SdrFixture, LateCopyOfACompletedReceiveRaisesOneEventPerChunk) {
  // A sender that never heard of the completion re-sends the message after
  // recv_complete: the backend discards every packet, and reports each
  // chunk once, naming the finished receive.
  wire(0.0);
  const std::size_t len = 16 * 1024;  // 4 chunks of 4 packets
  const auto src = pattern(len, 9);
  std::vector<std::uint8_t> dst(len, 0);
  const auto* mr = ctx_b_->mr_reg(dst.data(), dst.size());
  std::vector<RecvEvent> late;
  qp_b_->set_recv_event_handler([&](const RecvEvent& ev) {
    if (ev.type == RecvEvent::Type::kLate) late.push_back(ev);
  });
  RecvHandle* rh = nullptr;
  ASSERT_TRUE(qp_b_->recv_post(dst.data(), len, mr, &rh).is_ok());
  SendHandle* sh = nullptr;
  ASSERT_TRUE(qp_a_->send_stream_start(0, false, &sh).is_ok());
  ASSERT_TRUE(qp_a_->send_stream_continue(sh, src.data(), 0, len).is_ok());
  sim_.run();
  ASSERT_TRUE(qp_b_->recv_done(rh));
  EXPECT_LT(rh->completed_at_s(), 0.0) << "still posted";
  ASSERT_TRUE(qp_b_->recv_complete(rh).is_ok());
  const double completed_at_s = sim_.now().seconds();
  EXPECT_EQ(rh->completed_at_s(), completed_at_s);
  EXPECT_TRUE(late.empty());

  ASSERT_TRUE(qp_a_->send_stream_continue(sh, src.data(), 0, len).is_ok());
  sim_.run();
  ASSERT_EQ(late.size(), 4u);
  for (std::uint32_t c = 0; c < 4; ++c) {
    EXPECT_EQ(late[c].handle, rh);
    EXPECT_EQ(late[c].chunk_index, c);
    EXPECT_EQ(late[c].handle->msg_number(), 0u);
    EXPECT_EQ(late[c].handle->completed_at_s(), completed_at_s);
  }

  // The last packet of chunk 0 of slot 3, which was never posted, forged
  // on a raw QP: discarded, and no event.
  verbs::Qp* raw = pair_.a->create_qp(verbs::QpConfig{});
  ASSERT_TRUE(raw->connect(pair_.b->id(), qp_b_->info().data_qps[0]).is_ok());
  verbs::WriteWr wr;
  wr.local_addr = src.data();
  wr.length = 1024;
  wr.rkey = qp_b_->info().root_key;
  wr.remote_offset = 3 * test_attr().max_msg_size + 3 * 1024;
  wr.with_imm = true;
  wr.imm = ImmCodec(test_attr().imm).encode(3, 3, 0);
  const std::uint64_t discarded = qp_b_->stats().completions_discarded;
  ASSERT_TRUE(raw->post_write(wr).is_ok());
  sim_.run();
  EXPECT_EQ(qp_b_->stats().completions_discarded, discarded + 1);
  EXPECT_EQ(late.size(), 4u);
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
// Selective send signaling: one CQE per inject call and channel
// ---------------------------------------------------------------------------

TEST_F(SdrFixture, CleanMessageEventCountDoesNotGrowWithPackets) {
  // Only the last WR of a post on each channel is signaled, so no send
  // completion lands between two arrivals and the channel delivers the
  // whole message in one batch: a 256-packet message fires about as many
  // simulator events as a 16-packet one. Signaling every WR costs one
  // completion event per packet, plus a split delivery batch wherever a
  // completion lands between two arrivals.
  auto events_for = [&](std::size_t packets) -> std::uint64_t {
    QpAttr attr = test_attr();
    attr.max_msg_size = 256 * 1024;
    wire(0.0, 0.0, attr);
    const std::size_t len = packets * attr.mtu;
    const auto src = pattern(len, 12);
    std::vector<std::uint8_t> dst(len, 0);
    const auto* mr = ctx_b_->mr_reg(dst.data(), dst.size());
    RecvHandle* rh = nullptr;
    EXPECT_TRUE(qp_b_->recv_post(dst.data(), len, mr, &rh).is_ok());
    SendHandle* sh = nullptr;
    EXPECT_TRUE(qp_a_->send_post(src.data(), len, 0, false, &sh).is_ok());
    const std::uint64_t fired = sim_.run();
    EXPECT_TRUE(qp_b_->recv_done(rh));
    EXPECT_EQ(std::memcmp(dst.data(), src.data(), len), 0);
    EXPECT_TRUE(qp_a_->send_poll(sh).is_ok());
    return fired;
  };
  const std::uint64_t small = events_for(16);
  const std::uint64_t large = events_for(256);
  EXPECT_LE(large, small + 4) << "16 packets: " << small
                              << " events, 256 packets: " << large;
}

TEST_F(SdrFixture, SendPollReadyExactlyWhenTheLastPacketLeaves) {
  // Both transports; packet counts that are not multiples of the channel
  // count, fewer packets than channels, and a short last packet.
  for (const Transport transport : {Transport::kUc, Transport::kUd}) {
    for (const std::size_t channels : {1u, 2u, 3u}) {
      for (const std::size_t packets : {2u, 7u, 11u}) {
        SCOPED_TRACE(testing::Message()
                     << (transport == Transport::kUd ? "UD, " : "UC, ")
                     << channels << " channels, " << packets << " packets");
        QpAttr attr = test_attr();
        attr.transport = transport;
        attr.channels = channels;
        wire(0.0, 0.0, attr);
        const std::size_t len = packets * attr.mtu - 100;
        const auto src = pattern(len, 13);
        std::vector<std::uint8_t> dst(len, 0);
        post_recv_and_deliver_cts(dst, len);
        SendHandle* sh = nullptr;
        ASSERT_TRUE(qp_a_->send_post(src.data(), len, 0, false, &sh).is_ok());
        expect_ready_when_last_packet_leaves(sh, packets);
        sim_.run();
        EXPECT_EQ(std::memcmp(dst.data(), src.data(), len), 0);
      }
    }
  }
}

TEST_F(SdrFixture, SendPollReadyExactlyWhenTheLastPacketLeavesStreaming) {
  // Each send_stream_continue signals its own last WR per channel; the
  // handle is ready only once the stream ended and every call's last
  // packet left.
  QpAttr attr = test_attr();
  attr.channels = 3;
  wire(0.0, 0.0, attr);
  const std::size_t len = 16 * attr.mtu;
  const auto src = pattern(len, 15);
  std::vector<std::uint8_t> dst(len, 0);
  post_recv_and_deliver_cts(dst, len);
  SendHandle* sh = nullptr;
  ASSERT_TRUE(qp_a_->send_stream_start(0, false, &sh).is_ok());
  ASSERT_TRUE(
      qp_a_->send_stream_continue(sh, src.data(), 0, 5 * attr.mtu).is_ok());
  // The first call's packets all leave; the stream is still open.
  sim_.run_until(pair_.link->forward().next_free());
  EXPECT_EQ(qp_a_->send_poll(sh).code(), StatusCode::kNotReady);
  // Two more calls back to back: the third posts while the second's
  // packets are still serializing.
  ASSERT_TRUE(qp_a_
                  ->send_stream_continue(sh, src.data() + 5 * attr.mtu,
                                         5 * attr.mtu, 4 * attr.mtu)
                  .is_ok());
  ASSERT_TRUE(qp_a_
                  ->send_stream_continue(sh, src.data() + 9 * attr.mtu,
                                         9 * attr.mtu, 7 * attr.mtu)
                  .is_ok());
  ASSERT_TRUE(qp_a_->send_stream_end(sh).is_ok());
  expect_ready_when_last_packet_leaves(sh, 16);
  sim_.run();
  EXPECT_EQ(std::memcmp(dst.data(), src.data(), len), 0);
}

TEST_F(SdrFixture, SendPollReadyExactlyWhenTheLastPacketLeavesMultipath) {
  // The two channel QPs ride a fast and a slow path, so a later packet on
  // the fast path leaves before an earlier one on the slow path: the
  // post's last packet is not always its last to leave, and each channel
  // needs its own signaled last WR.
  QpAttr attr = test_attr();
  attr.channels = 2;
  for (const std::size_t packets : {7u, 8u}) {
    SCOPED_TRACE(testing::Message() << packets << " packets");
    wire(0.0, 0.0, attr);
    sim::Channel::Config cfg;
    cfg.bandwidth_bps = 100e9;
    cfg.distance_km = 10.0;
    sim::Channel fast(sim_, cfg, std::make_unique<sim::IidDrop>(0.0));
    cfg.bandwidth_bps = 10e9;
    sim::Channel slow(sim_, cfg, std::make_unique<sim::IidDrop>(0.0));
    for (sim::Channel* path : {&fast, &slow}) {
      path->set_receiver(
          [this](sim::Packet&& p) { pair_.b->deliver(std::move(p)); });
    }
    // Three route entries: the flow hash puts the two channel QPs on
    // entries 0 and 2, so channel 0 rides the fast path and channel 1 the
    // slow one.
    pair_.a->add_multipath_route(pair_.b->id(), {&fast, &fast, &slow});
    const QpInfo a = qp_a_->info();
    const QpInfo b = qp_b_->info();
    ASSERT_EQ(pair_.a->route_to(b.nic, a.data_qps[0], b.data_qps[0]), &fast);
    ASSERT_EQ(pair_.a->route_to(b.nic, a.data_qps[1], b.data_qps[1]), &slow);

    const std::size_t len = packets * attr.mtu;
    const auto src = pattern(len, 18);
    std::vector<std::uint8_t> dst(len, 0);
    post_recv_and_deliver_cts(dst, len);
    SendHandle* sh = nullptr;
    ASSERT_TRUE(qp_a_->send_post(src.data(), len, 0, false, &sh).is_ok());
    expect_ready_when_last_packet_leaves(sh, packets, {&fast, &slow});
    sim_.run();
    EXPECT_EQ(std::memcmp(dst.data(), src.data(), len), 0);
  }
}

TEST_F(SdrFixture, SendPollReadyExactlyWhenTheLastPacketLeavesNicModel) {
  // With the NIC model the injector releases packets to the wire over
  // time and fires the signaled completion at the monotone wire frontier.
  verbs::NicCaps caps;
  caps.enabled = true;
  QpAttr attr = test_attr();
  attr.channels = 2;
  wire(0.0, 0.0, attr, caps);
  const std::size_t len = 13 * attr.mtu;
  const auto src = pattern(len, 16);
  std::vector<std::uint8_t> dst(len, 0);
  post_recv_and_deliver_cts(dst, len);
  SendHandle* sh = nullptr;
  ASSERT_TRUE(qp_a_->send_post(src.data(), len, 0, false, &sh).is_ok());
  ASSERT_LT(pair_.link->forward().stats().sent_packets, 13u)
      << "the injector should still hold packets";
  expect_ready_when_last_packet_leaves(sh, 13);
  sim_.run();
  EXPECT_EQ(std::memcmp(dst.data(), src.data(), len), 0);
}

TEST_F(SdrFixture, AbortAfterPartialInjectionIsRefused) {
  // Once any packet was injected, the send must drain through send_poll:
  // the NIC still reads its buffer.
  wire(0.0);
  const std::size_t len = 8 * 1024;
  const auto src = pattern(len, 17);
  std::vector<std::uint8_t> dst(len, 0);
  post_recv_and_deliver_cts(dst, len);
  SendHandle* sh = nullptr;
  ASSERT_TRUE(qp_a_->send_stream_start(0, false, &sh).is_ok());
  ASSERT_TRUE(qp_a_->send_stream_continue(sh, src.data(), 0, 3 * 1024).is_ok());
  EXPECT_EQ(qp_a_->send_abort(sh).code(), StatusCode::kFailedPrecondition);
  // Still refused after those packets left and their completion fired.
  sim_.run();
  EXPECT_EQ(qp_a_->send_abort(sh).code(), StatusCode::kFailedPrecondition);
  ASSERT_TRUE(qp_a_->send_stream_end(sh).is_ok());
  EXPECT_TRUE(qp_a_->send_poll(sh).is_ok());
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

TEST_F(SdrFixture, UdTransportNeedsOneStagingBufferPerQp) {
  // Each UD data QP posts one staging buffer, re-posted inside every
  // delivery. Two whole-slot messages sent back to back, 128 packets over
  // two channel QPs, land without a single receiver-not-ready drop.
  QpAttr attr = test_attr();
  attr.transport = Transport::kUd;
  attr.channels = 2;
  wire(0.0, 0.0, attr);
  const std::size_t len = attr.max_msg_size;
  const auto src = pattern(2 * len, 24);
  std::vector<std::uint8_t> dst(2 * len, 0);
  const auto* mr = ctx_b_->mr_reg(dst.data(), dst.size());
  RecvHandle* rh[2] = {nullptr, nullptr};
  SendHandle* sh[2] = {nullptr, nullptr};
  for (int m = 0; m < 2; ++m) {
    ASSERT_TRUE(qp_b_->recv_post(dst.data() + m * len, len, mr, &rh[m])
                    .is_ok());
  }
  sim_.run();  // both CTSes arrive, so the sends inject back to back
  for (int m = 0; m < 2; ++m) {
    ASSERT_TRUE(qp_a_->send_post(src.data() + m * len, len, 0, false, &sh[m])
                    .is_ok());
  }
  sim_.run();

  EXPECT_TRUE(qp_b_->recv_done(rh[0]));
  EXPECT_TRUE(qp_b_->recv_done(rh[1]));
  EXPECT_EQ(dst, src);
  EXPECT_EQ(qp_b_->stats().staged_packets, 2 * len / attr.mtu);
  for (const verbs::QpNumber num : qp_b_->info().data_qps) {
    const verbs::Qp* qp = pair_.b->find_qp(num);
    ASSERT_NE(qp, nullptr);
    EXPECT_EQ(qp->stats().packets_discarded, 0u) << "QP " << num;
  }
}

TEST_F(SdrFixture, UdTransportWrapsTheTableOnEveryGenerationAndChannel) {
  // The data QPs share one CQ, so a completion's QP number alone names its
  // generation and its staging buffer. Two rounds of the table over 2
  // generations x 2 channels: each round fills every slot with a whole-slot
  // message, and every byte lands with no drop on any data QP.
  QpAttr attr = test_attr();
  attr.transport = Transport::kUd;
  attr.channels = 2;
  ASSERT_EQ(attr.generations, 2u);
  wire(0.0, 0.0, attr);
  const std::size_t len = attr.max_msg_size;
  const std::size_t slots = attr.max_inflight;
  std::vector<std::uint8_t> dst(slots * len, 0);
  const auto* mr = ctx_b_->mr_reg(dst.data(), dst.size());
  for (std::size_t gen = 0; gen < attr.generations; ++gen) {
    const auto src = pattern(slots * len, static_cast<std::uint8_t>(31 + gen));
    std::vector<RecvHandle*> rh(slots);
    std::vector<SendHandle*> sh(slots);
    for (std::size_t m = 0; m < slots; ++m) {
      ASSERT_TRUE(
          qp_b_->recv_post(dst.data() + m * len, len, mr, &rh[m]).is_ok());
    }
    sim_.run();  // every CTS arrives, so the sends inject back to back
    for (std::size_t m = 0; m < slots; ++m) {
      ASSERT_TRUE(
          qp_a_->send_post(src.data() + m * len, len, 0, false, &sh[m])
              .is_ok());
    }
    sim_.run();
    for (std::size_t m = 0; m < slots; ++m) {
      EXPECT_TRUE(qp_b_->recv_done(rh[m])) << "gen " << gen << " slot " << m;
      ASSERT_TRUE(qp_b_->recv_complete(rh[m]).is_ok());
      ASSERT_TRUE(qp_a_->send_poll(sh[m]).is_ok());
    }
    EXPECT_EQ(dst, src) << "gen " << gen;
  }
  EXPECT_EQ(qp_b_->stats().completions_discarded, 0u);
  for (const verbs::QpNumber num : qp_b_->info().data_qps) {
    const verbs::Qp* qp = pair_.b->find_qp(num);
    ASSERT_NE(qp, nullptr);
    EXPECT_EQ(qp->stats().packets_discarded, 0u) << "QP " << num;
  }
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
  EXPECT_GT(pair_.link->forward().stats().duplicated_packets, 0u);
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

// ---------------------------------------------------------------------------
// Negative paths: every misuse of a Table 1 call must map to its documented
// status code, not to silence or UB. The sdrcheck harness relies on these
// codes ("fails loudly") when classifying oracle violations. The QPs here
// start unconnected.
// ---------------------------------------------------------------------------

class CApiFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    sim::Channel::Config cfg;
    cfg.bandwidth_bps = 100e9;
    cfg.distance_km = 5.0;
    pair_ = verbs::make_connected_pair(sim_, cfg, 0.0, 0.0);
    ctx_a_ = std::make_unique<Context>(*pair_.a, DevAttr{});
    ctx_b_ = std::make_unique<Context>(*pair_.b, DevAttr{});
    attr_.mtu = 1024;
    attr_.chunk_size = 1024;
    attr_.max_msg_size = 4 * 1024;
    attr_.max_inflight = 4;
    qa_ = ctx_a_->create_qp(attr_);
    qb_ = ctx_b_->create_qp(attr_);
    ASSERT_NE(qa_, nullptr);
    ASSERT_NE(qb_, nullptr);
  }

  void connect() {
    ASSERT_TRUE(qa_->connect(qb_->info()).is_ok());
    ASSERT_TRUE(qb_->connect(qa_->info()).is_ok());
  }

  sim::Simulator sim_;
  verbs::NicPair pair_;
  std::unique_ptr<Context> ctx_a_, ctx_b_;
  QpAttr attr_;
  Qp* qa_{nullptr};
  Qp* qb_{nullptr};
  std::vector<std::uint8_t> buf_ = std::vector<std::uint8_t>(4 * 1024, 0x5A);
};

TEST_F(CApiFixture, PostBeforeConnectIsRejected) {
  SendHandle* sh = nullptr;
  EXPECT_EQ(qa_->send_post(buf_.data(), 1024, 0, false, &sh).code(),
            StatusCode::kNotConnected);
  const auto* mr = ctx_b_->mr_reg(buf_.data(), buf_.size());
  RecvHandle* rh = nullptr;
  EXPECT_EQ(qb_->recv_post(buf_.data(), 1024, mr, &rh).code(),
            StatusCode::kNotConnected);
}

TEST_F(CApiFixture, DoubleRecvCompleteIsRejected) {
  connect();
  const auto* mr = ctx_b_->mr_reg(buf_.data(), buf_.size());
  RecvHandle* rh = nullptr;
  ASSERT_TRUE(qb_->recv_post(buf_.data(), 1024, mr, &rh).is_ok());
  SendHandle* sh = nullptr;
  ASSERT_TRUE(qa_->send_post(buf_.data(), 1024, 0, false, &sh).is_ok());
  sim_.run();
  ASSERT_TRUE(qb_->recv_complete(rh).is_ok());
  // The handle's slot is released; a second complete is an invalid handle.
  EXPECT_EQ(qb_->recv_complete(rh).code(), StatusCode::kInvalidArgument);
  // So is reading the bitmap or immediate through the dead handle.
  const AtomicBitmap* bitmap = nullptr;
  EXPECT_EQ(qb_->recv_bitmap_get(rh, &bitmap).code(),
            StatusCode::kInvalidArgument);
  std::uint32_t imm = 0;
  EXPECT_EQ(qb_->recv_imm_get(rh, &imm).code(), StatusCode::kInvalidArgument);
}

TEST_F(CApiFixture, OversizeSendIsOutOfRange) {
  connect();
  std::vector<std::uint8_t> big(attr_.max_msg_size + attr_.chunk_size);
  SendHandle* sh = nullptr;
  EXPECT_EQ(qa_->send_post(big.data(), big.size(), 0, false, &sh).code(),
            StatusCode::kOutOfRange);
}

TEST_F(CApiFixture, UnalignedStreamOffsetIsRejected) {
  connect();
  SendHandle* sh = nullptr;
  ASSERT_TRUE(qa_->send_stream_start(0, false, &sh).is_ok());
  // offset % mtu != 0
  EXPECT_EQ(qa_->send_stream_continue(sh, buf_.data(), 512, 1024).code(),
            StatusCode::kInvalidArgument);
}

TEST_F(CApiFixture, ContinueAfterEndIsFailedPrecondition) {
  connect();
  SendHandle* sh = nullptr;
  ASSERT_TRUE(qa_->send_stream_start(0, false, &sh).is_ok());
  ASSERT_TRUE(qa_->send_stream_continue(sh, buf_.data(), 0, 1024).is_ok());
  ASSERT_TRUE(qa_->send_stream_end(sh).is_ok());
  EXPECT_EQ(qa_->send_stream_continue(sh, buf_.data(), 0, 1024).code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(CApiFixture, SendSlotExhaustionIsResourceExhausted) {
  connect();
  // Fill every send slot (no receiver posted, so none completes).
  for (std::size_t i = 0; i < attr_.max_inflight; ++i) {
    SendHandle* sh = nullptr;
    ASSERT_TRUE(qa_->send_stream_start(0, false, &sh).is_ok()) << "slot " << i;
  }
  SendHandle* sh = nullptr;
  EXPECT_EQ(qa_->send_stream_start(0, false, &sh).code(),
            StatusCode::kResourceExhausted);
}

TEST_F(CApiFixture, SendPollBeforeCompletionIsNotReady) {
  connect();
  SendHandle* sh = nullptr;
  ASSERT_TRUE(qa_->send_stream_start(0, false, &sh).is_ok());
  EXPECT_EQ(qa_->send_poll(sh).code(), StatusCode::kNotReady);
}

}  // namespace
}  // namespace sdr::core
