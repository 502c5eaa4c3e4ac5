// Data-path allocation regression tests.
//
// Two guarantees of the zero-copy wire work are locked in here:
//  * PayloadRef lifetime — every pooled payload reference is released back
//    to the thread-local PayloadPool on delivery and on channel drop (no
//    slot leaks across any packet fate).
//  * Zero allocations per packet in steady state — the end-to-end path
//    (post -> verbs packetization -> channel -> CQE -> SDR bitmap update ->
//    completion -> repost) must not touch the allocator once warmed up,
//    measured with the same global operator-new hook bench_simcore and
//    bench_datapath use. The same holds per message through the SR and EC
//    reliability protocols, on fresh message-table slots too.
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <iterator>
#include <memory>
#include <new>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/alloc_counter.hpp"
#include "common/payload_pool.hpp"
#include "common/units.hpp"
#include "reliability/reliable_channel.hpp"
#include "sdr/sdr.hpp"
#include "sim/drop_model.hpp"
#include "sim/simulator.hpp"
#include "verbs/nic.hpp"

namespace sdr {
namespace {

// ---------------------------------------------------------------------------
// The allocation counter itself
// ---------------------------------------------------------------------------

TEST(AllocCounterTest, CountsEveryFormOfNewOnce) {
  // The allocation gates read this counter, so every form of operator new
  // (array, over-aligned, nothrow) must count exactly once, and every form
  // of delete must take back what its new returned. Under ASan a form the
  // hook left out would pair the sanitizer's allocator with the hook's
  // free() and report an alloc-dealloc mismatch.
  constexpr std::size_t n = 100;
  constexpr std::align_val_t a{64};
  const std::nothrow_t& nt = std::nothrow;
  const std::uint64_t before = common::allocations();
  void* p[12] = {
      ::operator new(n),         ::operator new(n),
      ::operator new[](n),       ::operator new[](n),
      ::operator new(n, a),      ::operator new(n, a),
      ::operator new[](n, a),    ::operator new[](n, a),
      ::operator new(n, nt),     ::operator new[](n, nt),
      ::operator new(n, a, nt),  ::operator new[](n, a, nt)};
  EXPECT_EQ(common::allocations() - before, 12u);
  for (int i : {4, 5, 6, 7, 10, 11}) {
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p[i]) % 64, 0u) << i;
  }
  ::operator delete(p[0]);
  ::operator delete(p[1], n);
  ::operator delete[](p[2]);
  ::operator delete[](p[3], n);
  ::operator delete(p[4], a);
  ::operator delete(p[5], n, a);
  ::operator delete[](p[6], a);
  ::operator delete[](p[7], n, a);
  ::operator delete(p[8], nt);
  ::operator delete[](p[9], nt);
  ::operator delete(p[10], a, nt);
  ::operator delete[](p[11], a, nt);
  EXPECT_EQ(common::allocations() - before, 12u);
}

// ---------------------------------------------------------------------------
// PayloadPool / PayloadRef unit semantics
// ---------------------------------------------------------------------------

TEST(PayloadPoolTest, AcquireReleaseAndFreeListReuse) {
  common::PayloadPool pool;
  const std::uint8_t bytes[4] = {1, 2, 3, 4};
  const std::uint32_t slot = pool.acquire(bytes, sizeof(bytes));
  EXPECT_EQ(pool.live_slots(), 1u);
  EXPECT_EQ(std::memcmp(pool.data(slot), bytes, sizeof(bytes)), 0);

  pool.add_ref(slot);
  pool.release(slot);  // refcount 2 -> 1: still live
  EXPECT_EQ(pool.live_slots(), 1u);
  pool.release(slot);  // refcount 1 -> 0: free-listed
  EXPECT_EQ(pool.live_slots(), 0u);

  const std::size_t total = pool.total_slots();
  const std::uint32_t again = pool.acquire(bytes, sizeof(bytes));
  EXPECT_EQ(again, slot);                   // free list hands the slot back
  EXPECT_EQ(pool.total_slots(), total);     // no new slot appended
  pool.release(again);
}

TEST(PayloadPoolTest, SlotsComeInPowerOfTwoSizeClasses) {
  // Each slot is allocated once at its class's size (64 B, 128 B, ...) and
  // goes back to its own class's LIFO free list. A slot handed to a larger
  // class's payload overruns its buffer (ASan reports it).
  common::PayloadPool pool;
  const std::vector<std::uint8_t> ack(23, 0x11);
  const std::uint32_t small = pool.acquire(ack.data(), 23);
  pool.release(small);
  const std::vector<std::uint8_t> line(64, 0x22);
  EXPECT_EQ(pool.acquire(line.data(), 64), small);  // 23 B and 64 B share
  pool.release(small);

  const std::vector<std::uint8_t> over(65, 0x33);
  const std::uint32_t medium = pool.acquire(over.data(), 65);
  EXPECT_NE(medium, small);  // the freed 64 B slot is too small
  EXPECT_EQ(pool.total_slots(), 2u);
  EXPECT_EQ(std::memcmp(pool.data(medium), over.data(), over.size()), 0);
  pool.release(medium);

  std::vector<std::uint8_t> big(6000);
  for (std::size_t i = 0; i < big.size(); ++i) {
    big[i] = static_cast<std::uint8_t>(i * 7);
  }
  const std::uint32_t large = pool.acquire(big.data(), 6000);
  EXPECT_EQ(pool.total_slots(), 3u);  // neither free small slot fits
  EXPECT_EQ(std::memcmp(pool.data(large), big.data(), big.size()), 0);

  // Releases go to their own class, last in first out.
  const std::uint32_t second = pool.acquire(ack.data(), 23);
  EXPECT_EQ(second, small);
  const std::uint32_t third = pool.acquire(ack.data(), 23);
  EXPECT_EQ(pool.total_slots(), 4u);
  pool.release(large);
  pool.release(second);
  pool.release(third);
  EXPECT_EQ(pool.acquire(ack.data(), 1), third);
  EXPECT_EQ(pool.acquire(ack.data(), 23), second);
  EXPECT_EQ(pool.acquire(big.data(), 100), medium);
  EXPECT_EQ(pool.acquire(big.data(), 4097), large);
  EXPECT_EQ(pool.total_slots(), 4u);
  EXPECT_EQ(pool.live_slots(), 4u);
}

TEST(PayloadPoolTest, RefCopyMoveRelease) {
  common::PayloadPool& pool = common::payload_pool();
  const std::size_t live_before = pool.live_slots();
  const std::uint8_t bytes[8] = {9, 8, 7, 6, 5, 4, 3, 2};
  {
    common::PayloadRef a = common::PayloadRef::pooled_copy(bytes, sizeof(bytes));
    EXPECT_TRUE(a.pooled());
    EXPECT_EQ(a.size(), sizeof(bytes));
    EXPECT_EQ(std::memcmp(a.data(), bytes, sizeof(bytes)), 0);
    EXPECT_EQ(pool.live_slots(), live_before + 1);

    common::PayloadRef b = a;  // copy bumps the refcount, same slot
    EXPECT_EQ(pool.live_slots(), live_before + 1);
    common::PayloadRef c = std::move(a);  // move steals, no refcount change
    EXPECT_EQ(pool.live_slots(), live_before + 1);
    EXPECT_TRUE(a.empty());
    EXPECT_EQ(std::memcmp(c.data(), b.data(), sizeof(bytes)), 0);
  }
  EXPECT_EQ(pool.live_slots(), live_before);  // all refs gone: slot released
}

TEST(PayloadPoolTest, BorrowDoesNotTouchPool) {
  common::PayloadPool& pool = common::payload_pool();
  const std::size_t live_before = pool.live_slots();
  const std::size_t total_before = pool.total_slots();
  const std::uint8_t bytes[16] = {};
  {
    common::PayloadRef ref = common::PayloadRef::borrow(bytes, sizeof(bytes));
    EXPECT_FALSE(ref.pooled());
    EXPECT_EQ(ref.data(), bytes);
    common::PayloadRef copy = ref;
    EXPECT_EQ(copy.data(), bytes);
  }
  EXPECT_EQ(pool.live_slots(), live_before);
  EXPECT_EQ(pool.total_slots(), total_before);
}

// ---------------------------------------------------------------------------
// Pooled reference lifetime through the wire: delivery and drop
// ---------------------------------------------------------------------------

sim::Channel::Config test_link() {
  sim::Channel::Config cfg;
  cfg.bandwidth_bps = 100 * Gbps;
  cfg.distance_km = 0.1;
  cfg.seed = 42;
  return cfg;
}

TEST(PayloadLifetimeTest, ReleasedOnDelivery) {
  const std::size_t live_before = common::payload_pool().live_slots();
  sim::Simulator sim;
  verbs::NicPair pair = verbs::make_connected_pair(sim, test_link(), 0.0, 0.0);
  verbs::CompletionQueue rx_cq;
  verbs::QpConfig cfg;
  cfg.type = verbs::QpType::kUD;
  cfg.mtu = 1024;
  verbs::Qp* tx = pair.a->create_qp(cfg);
  cfg.recv_cq = &rx_cq;
  verbs::Qp* rx = pair.b->create_qp(cfg);

  std::vector<std::uint8_t> recv_buf(512);
  verbs::RecvWr rwr;
  rwr.addr = recv_buf.data();
  rwr.length = recv_buf.size();
  rx->post_recv(rwr);

  std::vector<std::uint8_t> msg(256, 0xAB);
  verbs::SendWr swr;
  swr.local_addr = msg.data();
  swr.length = msg.size();
  swr.dst_nic = pair.b->id();
  swr.dst_qp = rx->num();
  ASSERT_TRUE(tx->post_send(swr).is_ok());
  // The in-flight datagram holds a pooled copy (the sender's buffer is not
  // required to stay valid after injection for UD).
  EXPECT_GT(common::payload_pool().live_slots(), live_before);
  sim.run();

  EXPECT_EQ(rx_cq.size(), 1u);
  EXPECT_EQ(std::memcmp(recv_buf.data(), msg.data(), msg.size()), 0);
  // Delivered: the receive path copied once into the posted buffer and the
  // wire packet's reference died with it.
  EXPECT_EQ(common::payload_pool().live_slots(), live_before);
}

TEST(PayloadLifetimeTest, ReleasedOnDrop) {
  const std::size_t live_before = common::payload_pool().live_slots();
  sim::Simulator sim;
  // Forward loss 1.0: every data packet dies inside the channel.
  verbs::NicPair pair = verbs::make_connected_pair(sim, test_link(), 1.0, 0.0);
  verbs::QpConfig cfg;
  cfg.type = verbs::QpType::kUD;
  cfg.mtu = 1024;
  verbs::Qp* tx = pair.a->create_qp(cfg);

  std::vector<std::uint8_t> msg(300, 0xCD);
  for (int i = 0; i < 8; ++i) {
    verbs::SendWr swr;
    swr.local_addr = msg.data();
    swr.length = msg.size();
    swr.dst_nic = pair.b->id();
    swr.dst_qp = 0x999;  // never delivered anyway
    ASSERT_TRUE(tx->post_send(swr).is_ok());
  }
  sim.run();
  // Dropped packets are destroyed by the channel; their references must be
  // returned to the pool, not leaked with the packet.
  EXPECT_EQ(common::payload_pool().live_slots(), live_before);
}

// ---------------------------------------------------------------------------
// Zero allocations per packet, end to end, in steady state. Compact version
// of bench_datapath's sdr_clean workload: pipelined SDR messages with CTS
// matching, per-packet Write-with-immediate CQEs, bitmap coalescing,
// completion and repost; after `warmup` completed messages the allocator
// must not be touched again until the run ends.
// ---------------------------------------------------------------------------
TEST(AllocRegressionTest, ZeroAllocsPerPacketSdrCleanSteadyState) {
  // Warmup must outlast every lazy first-touch growth. The latest one is
  // the data CQs of the last QP generation, first used at message
  // generations * max_inflight - max_inflight (= 48 here); 64 completed
  // messages covers it with margin.
  constexpr int kIterations = 96;
  constexpr int kWarmup = 64;
  constexpr int kInflight = 8;
  constexpr std::size_t kMsgBytes = 1 * MiB;

  sim::Simulator sim;
  sim::Channel::Config cfg;
  cfg.bandwidth_bps = 400 * Gbps;
  cfg.distance_km = 0.1;
  cfg.seed = 11;
  verbs::NicPair nics = verbs::make_connected_pair(sim, cfg, 0.0, 0.0);

  core::Context client(*nics.a, core::DevAttr{});
  core::Context server(*nics.b, core::DevAttr{});
  core::QpAttr attr;
  attr.mtu = 4096;
  attr.chunk_size = 64 * KiB;
  attr.max_msg_size = kMsgBytes;
  attr.max_inflight = kInflight * 2;
  core::Qp* cq = client.create_qp(attr);
  core::Qp* sq = server.create_qp(attr);
  ASSERT_TRUE(cq->connect(sq->info()).is_ok());
  ASSERT_TRUE(sq->connect(cq->info()).is_ok());

  std::vector<std::uint8_t> src(kMsgBytes, 0xA5);
  std::vector<std::uint8_t> dst(kInflight * attr.max_msg_size, 0);
  const auto* mr = server.mr_reg(dst.data(), dst.size());

  std::uint64_t allocs_at_steady = 0;
  int posted = 0;
  int completed = 0;

  std::function<void(int)> post_recv = [&](int window_slot) {
    if (posted >= kIterations) return;
    ++posted;
    core::RecvHandle* rh = nullptr;
    sq->recv_post(dst.data() + window_slot * attr.max_msg_size, kMsgBytes, mr,
                  &rh);
  };
  sq->set_recv_event_handler([&](const core::RecvEvent& ev) {
    if (ev.type != core::RecvEvent::Type::kMessageCompleted) return;
    ++completed;
    if (completed == kWarmup) allocs_at_steady = common::allocations();
    const int window_slot =
        static_cast<int>(ev.handle->slot() % kInflight);
    sq->recv_complete(ev.handle);
    post_recv(window_slot);
  });

  std::vector<core::SendHandle*> handles;
  int sent = 0;
  std::function<void()> pump = [&] {
    for (auto it = handles.begin(); it != handles.end();) {
      if (cq->send_poll(*it).is_ok()) {
        it = handles.erase(it);
      } else {
        ++it;
      }
    }
    while (sent < kIterations &&
           handles.size() < static_cast<std::size_t>(kInflight)) {
      core::SendHandle* sh = nullptr;
      if (!cq->send_post(src.data(), kMsgBytes, 0, false, &sh)) break;
      handles.push_back(sh);
      ++sent;
    }
    if (completed < kIterations) {
      // One-pointer capture: copying the fat std::function would allocate.
      sim.schedule(SimTime::from_micros(1), [&pump] { pump(); });
    }
  };

  for (int w = 0; w < kInflight && posted < kIterations; ++w) post_recv(w);
  pump();
  sim.run();

  ASSERT_EQ(completed, kIterations);
  const std::uint64_t steady_allocs = common::allocations() - allocs_at_steady;
  EXPECT_EQ(steady_allocs, 0u)
      << steady_allocs << " allocations in the steady-state window ("
      << (kIterations - kWarmup) << " messages of "
      << kMsgBytes / attr.mtu << " packets)";
  // And end-to-end correctness of the measured transfer: last window's
  // buffers hold the source pattern.
  EXPECT_EQ(std::memcmp(dst.data(), src.data(), kMsgBytes), 0);
}

// ---------------------------------------------------------------------------
// Zero allocations per message through the reliability protocols in steady
// state: 16 KiB messages (EC(4,2): one submessage of four 4 KiB chunks; SR:
// four chunks), several in flight over one ReliableChannel. Write, parity
// encode, CTS, injection, recoverability checks, ACKs, and the recycling of
// both sides' per-message state (including the EC receiver's parity scratch
// and its memory registration) must not touch the allocator once warmed up,
// both on a table that wraps every few messages and on one that never wraps
// (the fleet's sizing: every message takes a fresh slot).
// ---------------------------------------------------------------------------
struct ChannelAllocRun {
  static constexpr int kIterations = 160;
  static constexpr int kWarmup = 96;
  static constexpr std::size_t kInflight = 4;
  static constexpr std::size_t kMsgBytes = 16 * KiB;

  sim::Simulator sim;
  verbs::NicPair nics;
  std::unique_ptr<reliability::ReliableChannel> channel;
  std::vector<std::uint8_t> src, dst;
  int expected{0}, written{0}, received{0}, sent{0}, failures{0};
  // The window: from the kWarmup-th completion to the last write. The drain
  // after it grows the free lists to the whole window, once.
  std::uint64_t allocs_at_steady{0};
  std::uint64_t allocs_at_last_write{0};

  ChannelAllocRun(reliability::ReliableChannel::Kind kind,
                  std::size_t table_slots) {
    sim::Channel::Config cfg;
    cfg.bandwidth_bps = 100 * Gbps;
    cfg.distance_km = 100.0;
    cfg.seed = 5;
    nics = verbs::make_connected_pair(sim, cfg, 0.0, 0.0);
    reliability::ReliableChannel::Options options;
    options.kind = kind;
    options.profile.bandwidth_bps = cfg.bandwidth_bps;
    options.profile.rtt_s = 2.0 * propagation_delay_s(cfg.distance_km);
    options.profile.mtu = 4096;
    options.profile.chunk_bytes = 4096;
    options.attr.mtu = 4096;
    options.attr.chunk_size = 4096;
    options.attr.max_msg_size = kMsgBytes;
    options.attr.max_inflight = table_slots;
    options.ec.k = 4;
    options.ec.m = 2;
    options.derive_timeouts();
    channel = std::make_unique<reliability::ReliableChannel>(sim, *nics.a,
                                                             *nics.b, options);
    src.assign(kMsgBytes, 0x5A);
    dst.assign(kInflight * kMsgBytes, 0);
  }

  // Each done callback captures one pointer, so building the std::function
  // allocates nothing either.
  void post_recv() {
    if (expected == kIterations) return;
    std::uint8_t* buf = dst.data() + (expected++ % kInflight) * kMsgBytes;
    if (!channel->recv(buf, kMsgBytes, [this](const Status& s) {
          if (!s) ++failures;
          ++received;
          post_recv();
        })) {
      ++failures;
    }
  }
  void post_send() {
    if (written == kIterations) return;
    if (++written == kIterations) allocs_at_last_write = common::allocations();
    if (!channel->send(src.data(), kMsgBytes, [this](const Status& s) {
          if (!s) ++failures;
          if (++sent == kWarmup) allocs_at_steady = common::allocations();
          post_send();
        })) {
      ++failures;
    }
  }
};

void expect_no_steady_state_allocs(reliability::ReliableChannel::Kind kind,
                                   std::size_t table_slots) {
  ChannelAllocRun run(kind, table_slots);
  for (std::size_t w = 0; w < ChannelAllocRun::kInflight; ++w) {
    run.post_recv();
    run.post_send();
  }
  run.sim.run();

  ASSERT_EQ(run.sent, ChannelAllocRun::kIterations);
  ASSERT_EQ(run.received, ChannelAllocRun::kIterations);
  EXPECT_EQ(run.failures, 0);
  const std::uint64_t steady_allocs =
      run.allocs_at_last_write - run.allocs_at_steady;
  EXPECT_EQ(steady_allocs, 0u)
      << steady_allocs << " allocations over "
      << (ChannelAllocRun::kIterations - ChannelAllocRun::kWarmup -
          static_cast<int>(ChannelAllocRun::kInflight))
      << " messages on a " << table_slots << "-slot table";
  EXPECT_EQ(std::memcmp(run.dst.data(), run.src.data(),
                        ChannelAllocRun::kMsgBytes),
            0);
}

// EC posts two core messages per 16 KiB message (data + parity), SR one.
TEST(AllocRegressionTest, ZeroAllocsPerMessageEcSteadyState) {
  expect_no_steady_state_allocs(reliability::ReliableChannel::Kind::kEcMds,
                                2 * ChannelAllocRun::kInflight);
}

TEST(AllocRegressionTest, ZeroAllocsPerMessageEcFreshSlots) {
  expect_no_steady_state_allocs(reliability::ReliableChannel::Kind::kEcMds,
                                2 * ChannelAllocRun::kIterations + 4);
}

TEST(AllocRegressionTest, ZeroAllocsPerMessageSrSteadyState) {
  expect_no_steady_state_allocs(reliability::ReliableChannel::Kind::kSrRto,
                                2 * ChannelAllocRun::kInflight);
}

TEST(AllocRegressionTest, ZeroAllocsPerMessageSrFreshSlots) {
  expect_no_steady_state_allocs(reliability::ReliableChannel::Kind::kSrRto,
                                ChannelAllocRun::kIterations + 4);
}

// ---------------------------------------------------------------------------
// The core's pre-CTS op queue: ops issued on several handles before their
// CTSes flush per handle in post order, whatever order the CTSes arrive in,
// and the QP's one pending-op pool takes them back at send_abort, so
// repeated post/abort cycles on fresh slots do not grow it.
// ---------------------------------------------------------------------------
TEST(AllocRegressionTest, PreCtsOpsFlushPerHandleInPostOrderFromOnePool) {
  sim::Simulator sim;
  sim::Channel::Config cfg = test_link();
  // The backward wire carries only CTSes: lose the first, message 0's.
  verbs::NicPair nics = verbs::make_connected_pair(
      sim, cfg, std::make_unique<sim::IidDrop>(0.0),
      std::make_unique<sim::ScriptedDrop>(std::vector<std::uint64_t>{0}));
  core::Context client(*nics.a, core::DevAttr{});
  core::Context server(*nics.b, core::DevAttr{});
  core::QpAttr attr;
  attr.mtu = 1024;
  attr.chunk_size = 1024;  // one packet per chunk: chunk events name packets
  attr.max_msg_size = 4 * 1024;
  attr.max_inflight = 64;
  core::Qp* tx = client.create_qp(attr);
  core::Qp* rx = server.create_qp(attr);
  ASSERT_TRUE(tx->connect(rx->info()).is_ok());
  ASSERT_TRUE(rx->connect(tx->info()).is_ok());

  std::vector<std::uint8_t> src(attr.max_msg_size, 0x3C);
  std::vector<std::uint8_t> dst(3 * attr.max_msg_size, 0);
  const auto* mr = server.mr_reg(dst.data(), dst.size());
  std::vector<std::pair<std::uint64_t, std::uint32_t>> landed;
  rx->set_recv_event_handler([&](const core::RecvEvent& ev) {
    if (ev.type == core::RecvEvent::Type::kChunkCompleted) {
      landed.emplace_back(ev.handle->msg_number(), ev.chunk_index);
    }
  });

  // Messages 0..2, each packet at its own offset, interleaved across the
  // handles and out of offset order within each.
  core::SendHandle* sh[3] = {};
  for (core::SendHandle*& h : sh) {
    ASSERT_TRUE(tx->send_stream_start(0, false, &h).is_ok());
  }
  const std::pair<int, std::size_t> ops[] = {{0, 2}, {1, 1}, {0, 0}, {2, 3},
                                             {1, 0}, {0, 1}, {1, 3}, {2, 0}};
  for (const auto& [msg, packet] : ops) {
    ASSERT_TRUE(tx->send_stream_continue(sh[msg], src.data(), packet * 1024,
                                         1024)
                    .is_ok());
  }
  core::RecvHandle* rh[3] = {};
  for (std::size_t m = 0; m < 3; ++m) {
    ASSERT_TRUE(rx->recv_post(dst.data() + m * attr.max_msg_size,
                              attr.max_msg_size, mr, &rh[m])
                    .is_ok());
  }
  sim.run();  // CTS 0 is lost: messages 1 and 2 flush
  EXPECT_FALSE(sh[0]->cts_ready());
  ASSERT_TRUE(rx->resend_cts(rh[0]).is_ok());
  sim.run();  // message 0's CTS arrives last

  const std::vector<std::pair<std::uint64_t, std::uint32_t>> expected = {
      {1, 1}, {1, 0}, {1, 3}, {2, 3}, {2, 0}, {0, 2}, {0, 0}, {0, 1}};
  EXPECT_EQ(landed, expected);

  // Fresh slots 3.., each with eight ops queued and then aborted: every op
  // must come from the pool the flushes above filled. (That a flush gives
  // its nodes back is what the fresh-slot protocol runs above pin: their
  // sends queue before their CTS arrives.)
  const std::uint64_t before = common::allocations();
  for (int cycle = 0; cycle < 48; ++cycle) {
    core::SendHandle* h = nullptr;
    ASSERT_TRUE(tx->send_stream_start(0, false, &h).is_ok());
    for (std::size_t op = 0; op < std::size(ops); ++op) {
      ASSERT_TRUE(tx->send_stream_continue(h, src.data(), (op % 4) * 1024,
                                           1024)
                      .is_ok());
    }
    ASSERT_TRUE(tx->send_abort(h).is_ok());
  }
  EXPECT_EQ(common::allocations() - before, 0u);
}

}  // namespace
}  // namespace sdr
