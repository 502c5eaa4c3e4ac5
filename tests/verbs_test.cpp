// Tests for the software RDMA device: memory registration & indirect keys,
// UC ePSN semantics (the paper's §2.3/§3.2.1 design rationale), UD
// datagrams, RC Go-Back-N reliability.
#include <gtest/gtest.h>

#include <cstring>
#include <numeric>
#include <vector>

#include "sim/simulator.hpp"
#include "verbs/cq.hpp"
#include "verbs/mr.hpp"
#include "verbs/nic.hpp"
#include "verbs/qp.hpp"

namespace sdr::verbs {
namespace {

sim::Channel::Config fast_link() {
  sim::Channel::Config cfg;
  cfg.bandwidth_bps = 100e9;
  cfg.distance_km = 10.0;
  cfg.seed = 7;
  return cfg;
}

std::vector<std::uint8_t> pattern(std::size_t n, std::uint8_t seed = 1) {
  std::vector<std::uint8_t> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = static_cast<std::uint8_t>(seed + i * 131);
  }
  return v;
}

// ---------------------------------------------------------------------------
// Memory registration
// ---------------------------------------------------------------------------

TEST(CompletionQueueTest, OverrunDropsAndCounts) {
  // A full CQ drops the completion and counts the overrun, like hardware
  // raising a CQ error; it must neither grow past its capacity nor notify.
  CompletionQueue cq(2);
  int notified = 0;
  cq.set_notify([&] { ++notified; });
  for (std::uint64_t id = 1; id <= 3; ++id) {
    Cqe cqe;
    cqe.wr_id = id;
    cq.push(cqe);
  }
  EXPECT_EQ(cq.size(), 2u);
  EXPECT_EQ(cq.overruns(), 1u);
  EXPECT_EQ(notified, 2);
  EXPECT_EQ(cq.poll_one()->wr_id, 1u);
  EXPECT_EQ(cq.poll_one()->wr_id, 2u);
  EXPECT_FALSE(cq.poll_one().has_value());
}

TEST(MrTest, RegisterAndResolve) {
  ProtectionDomain pd;
  std::vector<std::uint8_t> buf(4096);
  const MemoryRegion* mr = pd.register_mr(buf.data(), buf.size());
  ASSERT_NE(mr, nullptr);
  EXPECT_EQ(mr->length(), 4096u);
  EXPECT_FALSE(mr->is_null());

  const ResolvedAccess ok = pd.resolve(mr->rkey(), 100, 200);
  EXPECT_TRUE(ok.valid);
  EXPECT_EQ(ok.addr, buf.data() + 100);
  EXPECT_FALSE(ok.discard);

  const ResolvedAccess oob = pd.resolve(mr->rkey(), 4000, 200);
  EXPECT_FALSE(oob.valid);

  const ResolvedAccess badkey = pd.resolve(0xdeadbeef, 0, 16);
  EXPECT_FALSE(badkey.valid);
}

TEST(MrTest, DeregisterInvalidatesKey) {
  ProtectionDomain pd;
  std::vector<std::uint8_t> buf(256);
  const MemoryRegion* mr = pd.register_mr(buf.data(), buf.size());
  const MemoryKey rkey = mr->rkey();
  EXPECT_TRUE(pd.deregister_mr(mr).is_ok());
  EXPECT_FALSE(pd.resolve(rkey, 0, 16).valid);
  EXPECT_EQ(pd.deregister_mr(nullptr).code(), StatusCode::kInvalidArgument);
}

TEST(MrTest, OverlappingRegistrationsResolveIndependently) {
  // Many registrations over one buffer in one PD, as when several
  // connections land their writes in one shared receive buffer.
  ProtectionDomain pd;
  std::vector<std::uint8_t> buf(4096);
  const MemoryRegion* first = pd.register_mr(buf.data(), buf.size());
  const MemoryRegion* second = pd.register_mr(buf.data(), buf.size());
  ASSERT_NE(first, nullptr);
  ASSERT_NE(second, nullptr);
  EXPECT_NE(first->rkey(), second->rkey());

  const ResolvedAccess a = pd.resolve(first->rkey(), 64, 128);
  const ResolvedAccess b = pd.resolve(second->rkey(), 64, 128);
  EXPECT_TRUE(a.valid);
  EXPECT_TRUE(b.valid);
  EXPECT_EQ(a.addr, buf.data() + 64);
  EXPECT_EQ(b.addr, a.addr);

  const MemoryKey first_key = first->rkey();
  ASSERT_TRUE(pd.deregister_mr(first).is_ok());
  EXPECT_FALSE(pd.resolve(first_key, 64, 128).valid);
  const ResolvedAccess after = pd.resolve(second->rkey(), 64, 128);
  EXPECT_TRUE(after.valid);
  EXPECT_EQ(after.addr, buf.data() + 64);
}

TEST(MrTest, NullMrDiscardsButCompletes) {
  ProtectionDomain pd;
  const MemoryRegion* null_mr = pd.null_mr();
  EXPECT_TRUE(null_mr->is_null());
  const ResolvedAccess acc = pd.resolve(null_mr->rkey(), 12345, 100000);
  EXPECT_TRUE(acc.valid);
  EXPECT_TRUE(acc.discard);
  EXPECT_EQ(acc.addr, nullptr);
  // One NULL MR per domain: every SDR QP on it binds to the same one.
  EXPECT_EQ(pd.null_mr(), null_mr);
}

TEST(IndirectMkeyTest, ZeroBasedSlotAddressing) {
  // Figure 5: message i targets [i*M, i*M + M).
  ProtectionDomain pd;
  std::vector<std::uint8_t> buf_a(1024), buf_b(1024);
  const MemoryRegion* mra = pd.register_mr(buf_a.data(), buf_a.size());
  const MemoryRegion* mrb = pd.register_mr(buf_b.data(), buf_b.size());
  IndirectMkeyTable* table = pd.create_indirect_table(4, 1024);

  ASSERT_TRUE(table->bind(0, mra, 0).is_ok());
  ASSERT_TRUE(table->bind(2, mrb, 0).is_ok());

  const ResolvedAccess a = pd.resolve(table->key(), 100, 16);
  EXPECT_TRUE(a.valid);
  EXPECT_EQ(a.addr, buf_a.data() + 100);

  const ResolvedAccess b = pd.resolve(table->key(), 2 * 1024 + 8, 16);
  EXPECT_TRUE(b.valid);
  EXPECT_EQ(b.addr, buf_b.data() + 8);

  // Unbound slot fails.
  EXPECT_FALSE(pd.resolve(table->key(), 1 * 1024, 16).valid);
  // Beyond table fails.
  EXPECT_FALSE(pd.resolve(table->key(), 4 * 1024, 16).valid);
}

TEST(IndirectMkeyTest, SlotStraddleRejected) {
  ProtectionDomain pd;
  std::vector<std::uint8_t> buf(2048);
  const MemoryRegion* mr = pd.register_mr(buf.data(), buf.size());
  IndirectMkeyTable* table = pd.create_indirect_table(2, 1024);
  table->bind(0, mr, 0);
  table->bind(1, mr, 1024);
  EXPECT_TRUE(pd.resolve(table->key(), 1000, 24).valid);
  EXPECT_FALSE(pd.resolve(table->key(), 1000, 25).valid);  // straddles
}

TEST(IndirectMkeyTest, NullRebindDiscards) {
  ProtectionDomain pd;
  std::vector<std::uint8_t> buf(1024);
  const MemoryRegion* mr = pd.register_mr(buf.data(), buf.size());
  const MemoryRegion* null_mr = pd.null_mr();
  IndirectMkeyTable* table = pd.create_indirect_table(2, 1024);
  table->bind(0, mr, 0);
  EXPECT_FALSE(pd.resolve(table->key(), 0, 8).discard);
  table->bind_null(0, null_mr);
  const ResolvedAccess acc = pd.resolve(table->key(), 0, 8);
  EXPECT_TRUE(acc.valid);
  EXPECT_TRUE(acc.discard);
}

TEST(IndirectMkeyTest, BindOutOfRangeSlot) {
  ProtectionDomain pd;
  IndirectMkeyTable* table = pd.create_indirect_table(2, 1024);
  const MemoryRegion* null_mr = pd.null_mr();
  EXPECT_EQ(table->bind_null(5, null_mr).code(), StatusCode::kOutOfRange);
}

// ---------------------------------------------------------------------------
// Fixture: two NICs on a configurable link
// ---------------------------------------------------------------------------

class QpFixture : public ::testing::Test {
 protected:
  void connect(double p_drop_fwd, double p_drop_bwd = 0.0,
               sim::Channel::Config cfg = fast_link()) {
    pair_ = make_connected_pair(sim_, cfg, p_drop_fwd, p_drop_bwd);
  }

  Qp* make_qp(Nic& nic, QpType type, CompletionQueue* send_cq,
              CompletionQueue* recv_cq, std::size_t mtu = 1024) {
    QpConfig cfg;
    cfg.type = type;
    cfg.mtu = mtu;
    cfg.send_cq = send_cq;
    cfg.recv_cq = recv_cq;
    cfg.rc_ack_timeout_s = 0.01;
    return nic.create_qp(cfg);
  }

  sim::Simulator sim_;
  NicPair pair_;
};

// ---------------------------------------------------------------------------
// UD
// ---------------------------------------------------------------------------

TEST_F(QpFixture, UdDatagramDelivery) {
  connect(0.0);
  CompletionQueue rx_cq;
  Qp* tx = make_qp(*pair_.a, QpType::kUD, nullptr, nullptr);
  Qp* rx = make_qp(*pair_.b, QpType::kUD, nullptr, &rx_cq);

  std::vector<std::uint8_t> recv_buf(512);
  RecvWr rwr;
  rwr.wr_id = 77;
  rwr.addr = recv_buf.data();
  rwr.length = recv_buf.size();
  rx->post_recv(rwr);

  const auto msg = pattern(256);
  SendWr swr;
  swr.local_addr = msg.data();
  swr.length = msg.size();
  swr.with_imm = true;
  swr.imm = 0xabcd1234;
  swr.dst_nic = pair_.b->id();
  swr.dst_qp = rx->num();
  ASSERT_TRUE(tx->post_send(swr).is_ok());
  sim_.run();

  ASSERT_EQ(rx_cq.size(), 1u);
  const Cqe cqe = *rx_cq.poll_one();
  EXPECT_EQ(cqe.wr_id, 77u);
  EXPECT_EQ(cqe.byte_len, 256u);
  EXPECT_TRUE(cqe.imm_valid);
  EXPECT_EQ(cqe.imm, 0xabcd1234u);
  EXPECT_EQ(std::memcmp(recv_buf.data(), msg.data(), msg.size()), 0);
}

TEST_F(QpFixture, UdReceiverNotReadyDrops) {
  connect(0.0);
  CompletionQueue rx_cq;
  Qp* tx = make_qp(*pair_.a, QpType::kUD, nullptr, nullptr);
  Qp* rx = make_qp(*pair_.b, QpType::kUD, nullptr, &rx_cq);

  const auto msg = pattern(64);
  SendWr swr;
  swr.local_addr = msg.data();
  swr.length = msg.size();
  swr.dst_nic = pair_.b->id();
  swr.dst_qp = rx->num();
  tx->post_send(swr);  // no posted receive
  sim_.run();
  EXPECT_EQ(rx_cq.size(), 0u);
  EXPECT_EQ(rx->stats().packets_discarded, 1u);
}

TEST_F(QpFixture, UdRejectsOversizedSend) {
  connect(0.0);
  Qp* tx = make_qp(*pair_.a, QpType::kUD, nullptr, nullptr, 1024);
  std::vector<std::uint8_t> big(2048);
  SendWr swr;
  swr.local_addr = big.data();
  swr.length = big.size();
  swr.dst_qp = 1;
  EXPECT_EQ(tx->post_send(swr).code(), StatusCode::kInvalidArgument);
}

TEST_F(QpFixture, ConnectedQpsRejectTwoSidedSend) {
  // Two-sided sends are UD-only; UC and RC QPs carry RDMA Writes. A
  // datagram a UD QP addresses to one of them is discarded on arrival.
  connect(0.0);
  Qp* ud = make_qp(*pair_.a, QpType::kUD, nullptr, nullptr);
  for (QpType type : {QpType::kUC, QpType::kRC}) {
    CompletionQueue rx_cq;
    Qp* tx = make_qp(*pair_.a, type, nullptr, nullptr);
    Qp* rx = make_qp(*pair_.b, type, nullptr, &rx_cq);
    ASSERT_TRUE(tx->connect(pair_.b->id(), rx->num()).is_ok());
    std::vector<std::uint8_t> recv_buf(64);
    RecvWr rwr;
    rwr.addr = recv_buf.data();
    rwr.length = recv_buf.size();
    rx->post_recv(rwr);
    const auto msg = pattern(64);
    SendWr swr;
    swr.local_addr = msg.data();
    swr.length = msg.size();
    swr.dst_nic = pair_.b->id();
    swr.dst_qp = rx->num();
    EXPECT_EQ(tx->post_send(swr).code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(tx->stats().packets_sent, 0u);

    ASSERT_TRUE(ud->post_send(swr).is_ok());
    sim_.run();
    EXPECT_EQ(rx->stats().packets_received, 1u);
    EXPECT_EQ(rx->stats().packets_discarded, 1u);
    EXPECT_EQ(rx_cq.size(), 0u);
  }
}

// ---------------------------------------------------------------------------
// UC
// ---------------------------------------------------------------------------

TEST_F(QpFixture, UcMultiPacketWriteDelivers) {
  connect(0.0);
  CompletionQueue tx_cq, rx_cq;
  Qp* tx = make_qp(*pair_.a, QpType::kUC, &tx_cq, nullptr);
  Qp* rx = make_qp(*pair_.b, QpType::kUC, nullptr, &rx_cq);
  tx->connect(pair_.b->id(), rx->num());

  std::vector<std::uint8_t> dst(8192, 0);
  const MemoryRegion* mr = pair_.b->pd().register_mr(dst.data(), dst.size());
  const auto src = pattern(5000);

  WriteWr wr;
  wr.wr_id = 5;
  wr.local_addr = src.data();
  wr.length = src.size();
  wr.rkey = mr->rkey();
  wr.remote_offset = 100;
  wr.with_imm = true;
  wr.imm = 42;
  ASSERT_TRUE(tx->post_write(wr).is_ok());
  sim_.run();

  // 5000 bytes at MTU 1024 -> 5 packets; payload placed at offset 100.
  EXPECT_EQ(std::memcmp(dst.data() + 100, src.data(), src.size()), 0);
  ASSERT_EQ(rx_cq.size(), 1u);
  const Cqe cqe = *rx_cq.poll_one();
  EXPECT_TRUE(cqe.imm_valid);
  EXPECT_EQ(cqe.imm, 42u);
  EXPECT_EQ(cqe.byte_len, 5000u);
  // Local send completion at injection.
  EXPECT_EQ(tx_cq.size(), 1u);
}

TEST_F(QpFixture, UcPlainWriteRaisesNoReceiverCqe) {
  connect(0.0);
  CompletionQueue rx_cq;
  Qp* tx = make_qp(*pair_.a, QpType::kUC, nullptr, nullptr);
  Qp* rx = make_qp(*pair_.b, QpType::kUC, nullptr, &rx_cq);
  tx->connect(pair_.b->id(), rx->num());

  std::vector<std::uint8_t> dst(4096, 0);
  const MemoryRegion* mr = pair_.b->pd().register_mr(dst.data(), dst.size());
  const auto src = pattern(1000);
  WriteWr wr;
  wr.local_addr = src.data();
  wr.length = src.size();
  wr.rkey = mr->rkey();
  wr.with_imm = false;
  tx->post_write(wr);
  sim_.run();
  EXPECT_EQ(std::memcmp(dst.data(), src.data(), src.size()), 0);
  EXPECT_EQ(rx_cq.size(), 0u);  // no immediate, no consumer-side CQE
}

TEST_F(QpFixture, UcDropsWholeMessageOnMidMessageLoss) {
  // Paper §2.3: "If at least one packet within the UC message is dropped,
  // the whole message will be dropped" — no CQE is raised.
  connect(0.10);  // 10% per-packet loss
  CompletionQueue rx_cq;
  Qp* tx = make_qp(*pair_.a, QpType::kUC, nullptr, nullptr);
  Qp* rx = make_qp(*pair_.b, QpType::kUC, nullptr, &rx_cq);
  tx->connect(pair_.b->id(), rx->num());

  std::vector<std::uint8_t> dst(64 * 1024, 0);
  const MemoryRegion* mr = pair_.b->pd().register_mr(dst.data(), dst.size());
  const auto src = pattern(32 * 1024);  // 32 packets at 1 KiB MTU

  const int messages = 300;
  for (int i = 0; i < messages; ++i) {
    WriteWr wr;
    wr.local_addr = src.data();
    wr.length = src.size();
    wr.rkey = mr->rkey();
    wr.with_imm = true;
    wr.imm = static_cast<std::uint32_t>(i);
    tx->post_write(wr);
  }
  sim_.run();

  // P(message survives) = 0.9^32 ~ 3.4%; far fewer CQEs than messages, and
  // every drop is a whole-message drop.
  EXPECT_LT(rx_cq.size(), 40u);
  EXPECT_GT(rx->stats().messages_dropped_epsn, 200u);
  // All delivered CQEs carry the full message length.
  while (auto cqe = rx_cq.poll_one()) {
    EXPECT_EQ(cqe->byte_len, src.size());
  }
}

TEST_F(QpFixture, UcSinglePacketMessagesSurviveLoss) {
  // The SDR backend's counter-design: one Write-with-imm per packet makes
  // every packet its own message, so each loss costs exactly one packet.
  connect(0.10);
  CompletionQueue rx_cq(1 << 14);
  Qp* tx = make_qp(*pair_.a, QpType::kUC, nullptr, nullptr);
  Qp* rx = make_qp(*pair_.b, QpType::kUC, nullptr, &rx_cq);
  tx->connect(pair_.b->id(), rx->num());

  std::vector<std::uint8_t> dst(1024, 0);
  const MemoryRegion* mr = pair_.b->pd().register_mr(dst.data(), dst.size());
  const auto src = pattern(1024);

  const int packets = 3000;
  for (int i = 0; i < packets; ++i) {
    WriteWr wr;
    wr.local_addr = src.data();
    wr.length = 1024;  // exactly one packet
    wr.rkey = mr->rkey();
    wr.with_imm = true;
    wr.imm = static_cast<std::uint32_t>(i);
    tx->post_write(wr);
  }
  sim_.run();
  // ~90% of single-packet messages arrive.
  EXPECT_NEAR(static_cast<double>(rx_cq.size()), 2700.0, 120.0);
  EXPECT_EQ(rx->stats().messages_dropped_epsn, 0u);
}

TEST_F(QpFixture, UcRemoteAccessErrorDropsSilently) {
  connect(0.0);
  CompletionQueue rx_cq;
  Qp* tx = make_qp(*pair_.a, QpType::kUC, nullptr, nullptr);
  Qp* rx = make_qp(*pair_.b, QpType::kUC, nullptr, &rx_cq);
  tx->connect(pair_.b->id(), rx->num());
  const auto src = pattern(512);
  WriteWr wr;
  wr.local_addr = src.data();
  wr.length = src.size();
  wr.rkey = 0xbad;  // unknown key
  wr.with_imm = true;
  tx->post_write(wr);
  sim_.run();
  EXPECT_EQ(rx_cq.size(), 0u);
  EXPECT_EQ(rx->stats().remote_access_errors, 1u);
}

TEST_F(QpFixture, WriteRequiresConnection) {
  connect(0.0);
  Qp* tx = make_qp(*pair_.a, QpType::kUC, nullptr, nullptr);
  const auto src = pattern(64);
  WriteWr wr;
  wr.local_addr = src.data();
  wr.length = src.size();
  EXPECT_EQ(tx->post_write(wr).code(), StatusCode::kNotConnected);
}

TEST_F(QpFixture, WriteRejectedOnUd) {
  connect(0.0);
  Qp* tx = make_qp(*pair_.a, QpType::kUD, nullptr, nullptr);
  const auto src = pattern(64);
  WriteWr wr;
  wr.local_addr = src.data();
  wr.length = src.size();
  EXPECT_EQ(tx->post_write(wr).code(), StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// RC (Go-Back-N baseline)
// ---------------------------------------------------------------------------

TEST_F(QpFixture, RcDeliversLosslessly) {
  connect(0.0);
  CompletionQueue tx_cq, rx_cq;
  Qp* tx = make_qp(*pair_.a, QpType::kRC, &tx_cq, nullptr);
  Qp* rx = make_qp(*pair_.b, QpType::kRC, nullptr, &rx_cq);
  tx->connect(pair_.b->id(), rx->num());
  rx->connect(pair_.a->id(), tx->num());

  std::vector<std::uint8_t> dst(16 * 1024, 0);
  const MemoryRegion* mr = pair_.b->pd().register_mr(dst.data(), dst.size());
  const auto src = pattern(10000);
  WriteWr wr;
  wr.wr_id = 9;
  wr.local_addr = src.data();
  wr.length = src.size();
  wr.rkey = mr->rkey();
  wr.with_imm = true;
  tx->post_write(wr);
  sim_.run();

  EXPECT_EQ(std::memcmp(dst.data(), src.data(), src.size()), 0);
  ASSERT_EQ(tx_cq.size(), 1u);  // completion after the cumulative ACK
  EXPECT_EQ(tx_cq.poll_one()->status, WcStatus::kSuccess);
  EXPECT_EQ(rx_cq.size(), 1u);
}

TEST_F(QpFixture, RcPairsWriteIntoOneSharedBuffer) {
  // Two RC connections into one NIC, each with its own MR over the same
  // destination buffer: both writes land and both receivers complete.
  connect(0.0);
  std::vector<std::uint8_t> dst(16 * 1024, 0);
  const auto src = pattern(10000);
  CompletionQueue tx_cq[2], rx_cq[2];
  Qp* rx[2] = {};
  for (int i = 0; i < 2; ++i) {
    Qp* tx = make_qp(*pair_.a, QpType::kRC, &tx_cq[i], nullptr);
    rx[i] = make_qp(*pair_.b, QpType::kRC, nullptr, &rx_cq[i]);
    tx->connect(pair_.b->id(), rx[i]->num());
    rx[i]->connect(pair_.a->id(), tx->num());
    const MemoryRegion* mr =
        pair_.b->pd().register_mr(dst.data(), dst.size());
    WriteWr wr;
    wr.wr_id = static_cast<std::uint64_t>(i);
    wr.local_addr = src.data();
    wr.length = src.size();
    wr.rkey = mr->rkey();
    wr.with_imm = true;
    wr.imm = static_cast<std::uint32_t>(i);
    tx->post_write(wr);
  }
  sim_.run();

  EXPECT_EQ(std::memcmp(dst.data(), src.data(), src.size()), 0);
  for (int i = 0; i < 2; ++i) {
    EXPECT_EQ(rx[i]->stats().remote_access_errors, 0u);
    ASSERT_EQ(rx_cq[i].size(), 1u);
    const auto cqe = rx_cq[i].poll_one();
    EXPECT_EQ(cqe->imm, static_cast<std::uint32_t>(i));
    ASSERT_EQ(tx_cq[i].size(), 1u);
    EXPECT_EQ(tx_cq[i].poll_one()->status, WcStatus::kSuccess);
  }
}

TEST_F(QpFixture, RcRecoversFromLoss) {
  connect(0.05, 0.0);
  CompletionQueue tx_cq, rx_cq(1 << 12);
  Qp* tx = make_qp(*pair_.a, QpType::kRC, &tx_cq, nullptr);
  Qp* rx = make_qp(*pair_.b, QpType::kRC, nullptr, &rx_cq);
  tx->connect(pair_.b->id(), rx->num());
  rx->connect(pair_.a->id(), tx->num());

  std::vector<std::uint8_t> dst(256 * 1024, 0);
  const MemoryRegion* mr = pair_.b->pd().register_mr(dst.data(), dst.size());
  const auto src = pattern(200 * 1024);  // 200 packets at 1 KiB
  WriteWr wr;
  wr.wr_id = 1;
  wr.local_addr = src.data();
  wr.length = src.size();
  wr.rkey = mr->rkey();
  wr.with_imm = true;
  tx->post_write(wr);
  sim_.run();

  EXPECT_EQ(std::memcmp(dst.data(), src.data(), src.size()), 0)
      << "RC must deliver the exact payload despite 5% loss";
  ASSERT_EQ(tx_cq.size(), 1u);
  EXPECT_EQ(tx_cq.poll_one()->status, WcStatus::kSuccess);
  EXPECT_GT(tx->stats().rc_retransmissions, 0u);
}

TEST_F(QpFixture, RcGivesUpAfterRetryLimit) {
  connect(1.0, 0.0);  // black hole
  CompletionQueue tx_cq;
  Qp* tx = make_qp(*pair_.a, QpType::kRC, &tx_cq, nullptr);
  Qp* rx = make_qp(*pair_.b, QpType::kRC, nullptr, nullptr);
  tx->connect(pair_.b->id(), rx->num());
  rx->connect(pair_.a->id(), tx->num());

  const auto src = pattern(512);
  std::vector<std::uint8_t> dst(1024);
  const MemoryRegion* mr = pair_.b->pd().register_mr(dst.data(), dst.size());
  WriteWr wr;
  wr.wr_id = 2;
  wr.local_addr = src.data();
  wr.length = src.size();
  wr.rkey = mr->rkey();
  wr.signaled = false;
  tx->post_write(wr);
  wr.wr_id = 3;
  wr.with_imm = true;
  wr.signaled = true;
  tx->post_write(wr);
  sim_.run();

  // A failed WR completes with an error even when posted unsignaled, in
  // post order, as real verbs flush a QP that moved to the error state.
  ASSERT_EQ(tx_cq.size(), 2u);
  for (const std::uint64_t wr_id : {2u, 3u}) {
    const auto cqe = tx_cq.poll_one();
    EXPECT_EQ(cqe->wr_id, wr_id);
    EXPECT_EQ(cqe->status, WcStatus::kRetryExceeded);
  }
}

TEST_F(QpFixture, RcManyMessagesUnderLossAllComplete) {
  connect(0.02, 0.01);  // losses in both directions (ACKs too)
  CompletionQueue tx_cq(1 << 12), rx_cq(1 << 12);
  Qp* tx = make_qp(*pair_.a, QpType::kRC, &tx_cq, nullptr);
  Qp* rx = make_qp(*pair_.b, QpType::kRC, nullptr, &rx_cq);
  tx->connect(pair_.b->id(), rx->num());
  rx->connect(pair_.a->id(), tx->num());

  std::vector<std::uint8_t> dst(8 * 1024, 0);
  const MemoryRegion* mr = pair_.b->pd().register_mr(dst.data(), dst.size());
  const auto src = pattern(4096);
  const int n = 50;
  for (int i = 0; i < n; ++i) {
    WriteWr wr;
    wr.wr_id = static_cast<std::uint64_t>(i);
    wr.local_addr = src.data();
    wr.length = src.size();
    wr.rkey = mr->rkey();
    wr.with_imm = true;
    tx->post_write(wr);
  }
  sim_.run();
  int successes = 0;
  while (auto cqe = tx_cq.poll_one()) {
    successes += (cqe->status == WcStatus::kSuccess) ? 1 : 0;
  }
  EXPECT_EQ(successes, n);
  EXPECT_EQ(std::memcmp(dst.data(), src.data(), src.size()), 0);
}

// ---------------------------------------------------------------------------
// RC (hardware Selective Repeat mode)
// ---------------------------------------------------------------------------

class RcSrFixture : public QpFixture {
 protected:
  void make_rc_pair(double p_drop, RcMode mode,
                    sim::Channel::Config cfg = fast_link()) {
    connect(p_drop, 0.0, cfg);
    QpConfig qcfg;
    qcfg.type = QpType::kRC;
    qcfg.mtu = 1024;
    qcfg.rc_mode = mode;
    qcfg.rc_ack_timeout_s = 0.01;
    qcfg.send_cq = &tx_cq_;
    tx_ = pair_.a->create_qp(qcfg);
    qcfg.send_cq = nullptr;
    qcfg.recv_cq = &rx_cq_;
    rx_ = pair_.b->create_qp(qcfg);
    tx_->connect(pair_.b->id(), rx_->num());
    rx_->connect(pair_.a->id(), tx_->num());
  }

  CompletionQueue tx_cq_{1 << 12};
  CompletionQueue rx_cq_{1 << 12};
  Qp* tx_{nullptr};
  Qp* rx_{nullptr};
};

TEST_F(RcSrFixture, SelectiveRepeatDeliversUnderLoss) {
  make_rc_pair(0.05, RcMode::kSelectiveRepeat);
  std::vector<std::uint8_t> dst(256 * 1024, 0);
  const MemoryRegion* mr = pair_.b->pd().register_mr(dst.data(), dst.size());
  const auto src = pattern(200 * 1024);
  WriteWr wr;
  wr.wr_id = 1;
  wr.local_addr = src.data();
  wr.length = src.size();
  wr.rkey = mr->rkey();
  wr.with_imm = true;
  tx_->post_write(wr);
  sim_.run();
  EXPECT_EQ(std::memcmp(dst.data(), src.data(), src.size()), 0);
  ASSERT_EQ(tx_cq_.size(), 1u);
  EXPECT_EQ(tx_cq_.poll_one()->status, WcStatus::kSuccess);
  EXPECT_EQ(rx_cq_.size(), 1u);
}

TEST_F(RcSrFixture, SelectiveRepeatRetransmitsLessThanGoBackN) {
  // Same seed/loss: GBN rewinds whole windows; SR resends only the missing
  // packets.
  std::uint64_t retrans[2] = {0, 0};
  int idx = 0;
  for (const RcMode mode : {RcMode::kGoBackN, RcMode::kSelectiveRepeat}) {
    make_rc_pair(0.03, mode);
    std::vector<std::uint8_t> dst(512 * 1024, 0);
    const MemoryRegion* mr =
        pair_.b->pd().register_mr(dst.data(), dst.size());
    const auto src = pattern(400 * 1024);  // 400 packets
    WriteWr wr;
    wr.local_addr = src.data();
    wr.length = src.size();
    wr.rkey = mr->rkey();
    wr.with_imm = true;
    tx_->post_write(wr);
    sim_.run();
    ASSERT_EQ(std::memcmp(dst.data(), src.data(), src.size()), 0);
    retrans[idx++] = tx_->stats().rc_retransmissions;
  }
  EXPECT_GT(retrans[0], retrans[1])
      << "GBN=" << retrans[0] << " SR=" << retrans[1];
  EXPECT_GT(retrans[1], 0u);
}

TEST_F(RcSrFixture, SelectiveRepeatToleratesReordering) {
  // A reordering (multi-path-like) fabric: SR places out-of-order packets
  // without any retransmission; GBN on the same fabric retransmits.
  sim::Channel::Config cfg = fast_link();
  cfg.reorder_probability = 0.05;
  cfg.reorder_extra_delay_s = 20e-6;

  make_rc_pair(0.0, RcMode::kSelectiveRepeat, cfg);
  std::vector<std::uint8_t> dst(256 * 1024, 0);
  const MemoryRegion* mr = pair_.b->pd().register_mr(dst.data(), dst.size());
  const auto src = pattern(200 * 1024);
  WriteWr wr;
  wr.local_addr = src.data();
  wr.length = src.size();
  wr.rkey = mr->rkey();
  wr.with_imm = true;
  tx_->post_write(wr);
  sim_.run();
  ASSERT_EQ(std::memcmp(dst.data(), src.data(), src.size()), 0);
  const std::uint64_t sr_retrans = tx_->stats().rc_retransmissions;

  make_rc_pair(0.0, RcMode::kGoBackN, cfg);
  std::vector<std::uint8_t> dst2(256 * 1024, 0);
  const MemoryRegion* mr2 =
      pair_.b->pd().register_mr(dst2.data(), dst2.size());
  WriteWr wr2;
  wr2.local_addr = src.data();
  wr2.length = src.size();
  wr2.rkey = mr2->rkey();
  wr2.with_imm = true;
  tx_->post_write(wr2);
  sim_.run();
  ASSERT_EQ(std::memcmp(dst2.data(), src.data(), src.size()), 0);
  const std::uint64_t gbn_retrans = tx_->stats().rc_retransmissions;

  EXPECT_GT(gbn_retrans, sr_retrans);
}

TEST_F(RcSrFixture, InOrderCompletionDeliveryAcrossMessages) {
  // Two messages; packets of the second may arrive while the first has a
  // hole. CQEs must still be delivered in posting order.
  make_rc_pair(0.05, RcMode::kSelectiveRepeat);
  std::vector<std::uint8_t> dst(64 * 1024, 0);
  const MemoryRegion* mr = pair_.b->pd().register_mr(dst.data(), dst.size());
  const auto src = pattern(16 * 1024);
  for (int i = 0; i < 4; ++i) {
    WriteWr wr;
    wr.local_addr = src.data();
    wr.length = src.size();
    wr.rkey = mr->rkey();
    wr.with_imm = true;
    wr.imm = static_cast<std::uint32_t>(i);
    tx_->post_write(wr);
  }
  sim_.run();
  ASSERT_EQ(rx_cq_.size(), 4u);
  for (std::uint32_t i = 0; i < 4; ++i) {
    const auto cqe = rx_cq_.poll_one();
    ASSERT_TRUE(cqe.has_value());
    EXPECT_EQ(cqe->imm, i) << "completions must be delivered in order";
  }
}

// ---------------------------------------------------------------------------
// NIC routing
// ---------------------------------------------------------------------------

TEST_F(QpFixture, UnroutablePacketsCounted) {
  connect(0.0);
  Qp* tx = make_qp(*pair_.a, QpType::kUC, nullptr, nullptr);
  tx->connect(999, 1);  // no route to nic 999
  const auto src = pattern(64);
  WriteWr wr;
  wr.local_addr = src.data();
  wr.length = src.size();
  tx->post_write(wr);
  sim_.run();
  EXPECT_EQ(pair_.a->unroutable_packets(), 1u);
}

TEST_F(QpFixture, PacketsForDestroyedQpDropped) {
  connect(0.0);
  CompletionQueue rx_cq;
  Qp* tx = make_qp(*pair_.a, QpType::kUC, nullptr, nullptr);
  Qp* rx = make_qp(*pair_.b, QpType::kUC, nullptr, &rx_cq);
  tx->connect(pair_.b->id(), rx->num());
  std::vector<std::uint8_t> dst(1024);
  const MemoryRegion* mr = pair_.b->pd().register_mr(dst.data(), dst.size());
  const auto src = pattern(256);
  WriteWr wr;
  wr.local_addr = src.data();
  wr.length = src.size();
  wr.rkey = mr->rkey();
  wr.with_imm = true;
  tx->post_write(wr);
  pair_.b->destroy_qp(rx->num());  // destroy before delivery
  sim_.run();
  EXPECT_EQ(pair_.b->unknown_qp_packets(), 1u);
}

}  // namespace
}  // namespace sdr::verbs
