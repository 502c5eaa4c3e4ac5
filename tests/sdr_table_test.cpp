// Tests for the SDR message table: per-packet -> chunk bitmap coalescing,
// generation checks (late-packet protection stage 2), duplicate filtering,
// user-immediate reassembly, slot lifecycle.
#include <gtest/gtest.h>

#include "sdr/message_table.hpp"

namespace sdr::core {
namespace {

QpAttr small_attr() {
  QpAttr attr;
  attr.mtu = 1024;
  attr.chunk_size = 4096;        // 4 packets per chunk
  attr.max_msg_size = 64 * 1024;  // 64 packets, 16 chunks
  attr.max_inflight = 8;
  attr.generations = 4;
  return attr;
}

ImmFields fields(std::uint32_t slot, std::uint32_t pkt,
                 std::uint32_t frag = 0) {
  return ImmFields{slot, pkt, frag};
}

TEST(MessageTableTest, AttrValidation) {
  QpAttr bad = small_attr();
  bad.chunk_size = 1000;  // not a multiple of MTU
  EXPECT_FALSE(bad.valid());
  bad = small_attr();
  bad.max_msg_size = 10000;  // not a multiple of chunk
  EXPECT_FALSE(bad.valid());
  bad = small_attr();
  bad.max_inflight = 4096;  // exceeds 2^10 imm message ids
  EXPECT_FALSE(bad.valid());
  EXPECT_TRUE(small_attr().valid());
}

TEST(MessageTableTest, ArmReleaseLifecycle) {
  MessageTable table(small_attr());
  EXPECT_TRUE(table.arm(0, 0, 8192).is_ok());
  EXPECT_TRUE(table.slot_active(0));
  // Re-arming an active slot is an API error.
  EXPECT_EQ(table.arm(0, 1, 8192).code(), StatusCode::kFailedPrecondition);
  EXPECT_TRUE(table.release(0).is_ok());
  EXPECT_FALSE(table.slot_active(0));
  EXPECT_EQ(table.release(0).code(), StatusCode::kFailedPrecondition);
  // Slot range / size checks.
  EXPECT_EQ(table.arm(99, 0, 8192).code(), StatusCode::kOutOfRange);
  EXPECT_EQ(table.arm(1, 0, 0).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(table.arm(1, 0, 1 << 20).code(), StatusCode::kInvalidArgument);
}

TEST(MessageTableTest, ChunkCoalescing) {
  // A chunk bit is set exactly when ALL its packets arrived (paper §3.2.1:
  // "A chunk is only signaled when all its packets arrive").
  MessageTable table(small_attr());
  table.arm(0, 0, 16384);  // 16 packets, 4 chunks

  // Deliver packets 0..2 of chunk 0: no chunk completion yet.
  for (std::uint32_t p = 0; p < 3; ++p) {
    const auto r = table.process_completion(fields(0, p), 0);
    EXPECT_TRUE(r.accepted);
    EXPECT_TRUE(r.new_packet);
    EXPECT_FALSE(r.chunk_completed);
  }
  EXPECT_FALSE(table.chunk_bitmap(0).test(0));
  // Final packet of chunk 0 completes it.
  const auto r = table.process_completion(fields(0, 3), 0);
  EXPECT_TRUE(r.chunk_completed);
  EXPECT_EQ(r.chunk_index, 0u);
  EXPECT_TRUE(table.chunk_bitmap(0).test(0));
  EXPECT_FALSE(r.message_completed);
}

TEST(MessageTableTest, OutOfOrderDeliveryStillCoalesces) {
  MessageTable table(small_attr());
  table.arm(0, 0, 16384);
  // Chunk 2 = packets 8..11, delivered in reverse.
  for (std::uint32_t p : {11u, 10u, 9u}) {
    EXPECT_FALSE(table.process_completion(fields(0, p), 0).chunk_completed);
  }
  EXPECT_TRUE(table.process_completion(fields(0, 8), 0).chunk_completed);
  EXPECT_TRUE(table.chunk_bitmap(0).test(2));
}

TEST(MessageTableTest, MessageCompletion) {
  MessageTable table(small_attr());
  table.arm(2, 0, 8192);  // 8 packets, 2 chunks
  for (std::uint32_t p = 0; p < 7; ++p) {
    EXPECT_FALSE(table.process_completion(fields(2, p), 0).message_completed);
  }
  const auto r = table.process_completion(fields(2, 7), 0);
  EXPECT_TRUE(r.message_completed);
  EXPECT_TRUE(table.message_complete(2));
  EXPECT_EQ(table.packets_received(2), 8u);
}

TEST(MessageTableTest, PartialFinalChunk) {
  // 5 KiB message at 1 KiB MTU / 4 KiB chunks: chunk 1 holds one packet.
  MessageTable table(small_attr());
  table.arm(0, 0, 5 * 1024);
  EXPECT_EQ(table.packets(0), 5u);
  EXPECT_EQ(table.chunks(0), 2u);
  // The single packet of the final chunk completes that chunk.
  const auto r = table.process_completion(fields(0, 4), 0);
  EXPECT_TRUE(r.chunk_completed);
  EXPECT_EQ(r.chunk_index, 1u);
}

TEST(MessageTableTest, DuplicatesFiltered) {
  MessageTable table(small_attr());
  table.arm(0, 0, 4096);
  EXPECT_TRUE(table.process_completion(fields(0, 1), 0).new_packet);
  const auto dup = table.process_completion(fields(0, 1), 0);
  EXPECT_TRUE(dup.accepted);
  EXPECT_FALSE(dup.new_packet);
  EXPECT_EQ(table.packets_received(0), 1u);
}

TEST(MessageTableTest, StaleGenerationDiscarded) {
  // Stage-2 late-packet protection (paper §3.3.2): completions delivered by
  // a QP of the wrong generation never touch the bitmaps.
  MessageTable table(small_attr());
  table.arm(3, 2, 8192);
  const auto wrong = table.process_completion(fields(3, 0), 1);
  EXPECT_FALSE(wrong.accepted);
  EXPECT_EQ(table.packets_received(3), 0u);
  const auto right = table.process_completion(fields(3, 0), 2);
  EXPECT_TRUE(right.accepted);
}

TEST(MessageTableTest, InactiveSlotDiscards) {
  MessageTable table(small_attr());
  table.arm(1, 0, 4096);
  table.release(1);
  EXPECT_FALSE(table.process_completion(fields(1, 0), 0).accepted);
}

TEST(MessageTableTest, PacketBeyondMessageDiscarded) {
  MessageTable table(small_attr());
  table.arm(0, 0, 4096);  // 4 packets
  EXPECT_FALSE(table.process_completion(fields(0, 4), 0).accepted);
  EXPECT_FALSE(table.process_completion(fields(0, 63), 0).accepted);
}

TEST(MessageTableTest, BadSlotIdDiscarded) {
  MessageTable table(small_attr());
  EXPECT_FALSE(table.process_completion(fields(200, 0), 0).accepted);
}

TEST(MessageTableTest, SlotReuseClearsState) {
  MessageTable table(small_attr());
  table.arm(0, 0, 8192);
  for (std::uint32_t p = 0; p < 8; ++p) {
    table.process_completion(fields(0, p), 0);
  }
  EXPECT_TRUE(table.message_complete(0));
  table.release(0);
  table.arm(0, 1, 8192);
  EXPECT_FALSE(table.message_complete(0));
  EXPECT_EQ(table.packets_received(0), 0u);
  EXPECT_EQ(table.chunk_bitmap(0).popcount(), 0u);
  // Old-generation packet for the reused slot is rejected.
  EXPECT_FALSE(table.process_completion(fields(0, 0), 0).accepted);
  EXPECT_TRUE(table.process_completion(fields(0, 0), 1).accepted);
}

TEST(MessageTableTest, UserImmReassembly) {
  MessageTable table(small_attr());
  table.arm(0, 0, 16384);  // 16 packets >= 8 fragments
  const ImmCodec codec(small_attr().imm);
  const std::uint32_t user_imm = 0xCAFEF00D;
  std::uint32_t out = 0;
  EXPECT_FALSE(table.user_imm_ready(0, &out));
  for (std::uint32_t p = 0; p < 7; ++p) {
    table.process_completion(
        fields(0, p, codec.sample_user_fragment(user_imm, p)), 0);
  }
  EXPECT_FALSE(table.user_imm_ready(0, &out)) << "7 of 8 fragments seen";
  table.process_completion(
      fields(0, 7, codec.sample_user_fragment(user_imm, 7)), 0);
  ASSERT_TRUE(table.user_imm_ready(0, &out));
  EXPECT_EQ(out, user_imm);
}

TEST(MessageTableTest, UserImmShortMessageReachableSubset) {
  // A 4-packet message can only ever deliver fragments 0..3; the immediate
  // is "ready" once those arrive (low 16 bits valid).
  MessageTable table(small_attr());
  table.arm(0, 0, 4096);  // 4 packets
  const ImmCodec codec(small_attr().imm);
  const std::uint32_t user_imm = 0x0000BEEF;  // fits in 16 bits
  for (std::uint32_t p = 0; p < 4; ++p) {
    table.process_completion(
        fields(0, p, codec.sample_user_fragment(user_imm, p)), 0);
  }
  std::uint32_t out = 0;
  ASSERT_TRUE(table.user_imm_ready(0, &out));
  EXPECT_EQ(out & 0xFFFF, 0xBEEFu);
}

TEST(MessageTableTest, AlternativeImmLayout) {
  QpAttr attr = small_attr();
  attr.imm = kLargeMessageImmLayout;  // 8+22+2
  attr.max_inflight = 8;
  ASSERT_TRUE(attr.valid());
  MessageTable table(attr);
  table.arm(0, 0, 16384);
  const ImmCodec codec(attr.imm);
  // Round-trip a completion through the wire encoding.
  const std::uint32_t imm = codec.encode(0, 15, 1);
  const ImmFields f = codec.decode(imm);
  const auto r = table.process_completion(f, 0);
  EXPECT_TRUE(r.accepted);
  EXPECT_TRUE(table.packet_bitmap(0).test(15));
}

}  // namespace
}  // namespace sdr::core
