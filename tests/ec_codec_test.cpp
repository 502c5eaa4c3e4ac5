// Property tests for the erasure codecs: Reed-Solomon (MDS) recovers from
// ANY m erasures; XOR recovers exactly the patterns Appendix B.0.2 predicts.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <numeric>
#include <vector>

#include "common/rng.hpp"
#include "ec/reed_solomon.hpp"
#include "ec/xor_code.hpp"

namespace sdr::ec {
namespace {

struct CodecCase {
  std::size_t k;
  std::size_t m;
  bool mds;
};

class Blocks {
 public:
  Blocks(std::size_t k, std::size_t m, std::size_t block_len,
         std::uint64_t seed)
      : k_(k), m_(m), len_(block_len), storage_((k + m) * block_len) {
    Rng rng(seed);
    for (std::size_t i = 0; i < k * block_len; ++i) {
      storage_[i] = static_cast<std::uint8_t>(rng.next_below(256));
    }
    original_.assign(storage_.begin(), storage_.begin() + k * block_len);
  }

  std::uint8_t* block(std::size_t i) { return storage_.data() + i * len_; }
  std::vector<const std::uint8_t*> data_ptrs() const {
    std::vector<const std::uint8_t*> v(k_);
    for (std::size_t i = 0; i < k_; ++i) v[i] = storage_.data() + i * len_;
    return v;
  }
  std::vector<std::uint8_t*> parity_ptrs() {
    std::vector<std::uint8_t*> v(m_);
    for (std::size_t i = 0; i < m_; ++i) {
      v[i] = storage_.data() + (k_ + i) * len_;
    }
    return v;
  }
  std::vector<std::uint8_t*> all_ptrs() {
    std::vector<std::uint8_t*> v(k_ + m_);
    for (std::size_t i = 0; i < k_ + m_; ++i) {
      v[i] = storage_.data() + i * len_;
    }
    return v;
  }

  void erase(std::size_t i) {
    std::fill_n(block(i), len_, 0xEE);  // poison
  }

  bool data_intact() const {
    return std::equal(original_.begin(), original_.end(), storage_.begin());
  }

 private:
  std::size_t k_, m_, len_;
  std::vector<std::uint8_t> storage_;
  std::vector<std::uint8_t> original_;
};

std::unique_ptr<ErasureCodec> make_codec(const CodecCase& c) {
  if (c.mds) return std::make_unique<ReedSolomon>(c.k, c.m);
  return std::make_unique<XorCode>(c.k, c.m);
}

class CodecParamTest : public ::testing::TestWithParam<CodecCase> {};

TEST_P(CodecParamTest, NoErasuresIsTriviallyRecoverable) {
  const CodecCase c = GetParam();
  auto codec = make_codec(c);
  Blocks blocks(c.k, c.m, 512, 1);
  auto data = blocks.data_ptrs();
  auto parity = blocks.parity_ptrs();
  codec->encode(std::span<const std::uint8_t* const>(data),
                std::span<std::uint8_t* const>(parity), 512);
  PresenceMap present(c.k + c.m, true);
  EXPECT_TRUE(codec->can_recover(present));
  auto all = blocks.all_ptrs();
  EXPECT_TRUE(codec->decode(std::span<std::uint8_t* const>(all), present, 512));
  EXPECT_TRUE(blocks.data_intact());
}

TEST_P(CodecParamTest, RandomRecoverableErasurePatterns) {
  const CodecCase c = GetParam();
  auto codec = make_codec(c);
  Rng rng(1000 + c.k * 10 + c.m);

  for (int trial = 0; trial < 60; ++trial) {
    const std::size_t block_len = 64 + rng.next_below(512);
    Blocks blocks(c.k, c.m, block_len, trial * 7 + 3);
    auto data = blocks.data_ptrs();
    auto parity = blocks.parity_ptrs();
    codec->encode(std::span<const std::uint8_t* const>(data),
                  std::span<std::uint8_t* const>(parity), block_len);

    // Random erasure pattern with a bounded number of losses.
    PresenceMap present(c.k + c.m, true);
    const std::size_t losses = rng.next_below(c.m + 1);
    std::vector<std::size_t> order(c.k + c.m);
    std::iota(order.begin(), order.end(), 0);
    for (std::size_t i = 0; i < losses; ++i) {
      const std::size_t j = i + rng.next_below(order.size() - i);
      std::swap(order[i], order[j]);
      present[order[i]] = false;
    }
    if (!codec->can_recover(present)) continue;  // XOR may reject; skip

    for (std::size_t i = 0; i < c.k + c.m; ++i) {
      if (!present[i] && i < c.k) blocks.erase(i);
    }
    auto all = blocks.all_ptrs();
    ASSERT_TRUE(codec->decode(std::span<std::uint8_t* const>(all), present,
                              block_len));
    ASSERT_TRUE(blocks.data_intact()) << codec->name() << " trial " << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Codecs, CodecParamTest,
    ::testing::Values(CodecCase{4, 2, true}, CodecCase{8, 4, true},
                      CodecCase{32, 8, true}, CodecCase{32, 4, true},
                      CodecCase{16, 8, true}, CodecCase{5, 3, true},
                      CodecCase{4, 2, false}, CodecCase{8, 4, false},
                      CodecCase{32, 8, false}, CodecCase{16, 8, false}),
    [](const ::testing::TestParamInfo<CodecCase>& param_info) {
      return std::string(param_info.param.mds ? "RS" : "XOR") + "_k" +
             std::to_string(param_info.param.k) + "_m" +
             std::to_string(param_info.param.m);
    });

// ---------------------------------------------------------------------------
// Reed-Solomon specifics
// ---------------------------------------------------------------------------

TEST(ReedSolomonTest, RecoversFromAnyMErasures) {
  // Exhaustively test all erasure patterns of exactly m losses for a small
  // code: the defining MDS property.
  const std::size_t k = 6, m = 3;
  ReedSolomon rs(k, m);
  for (std::size_t a = 0; a < k + m; ++a) {
    for (std::size_t b = a + 1; b < k + m; ++b) {
      for (std::size_t c = b + 1; c < k + m; ++c) {
        Blocks blocks(k, m, 128, a * 100 + b * 10 + c);
        auto data = blocks.data_ptrs();
        auto parity = blocks.parity_ptrs();
        rs.encode(std::span<const std::uint8_t* const>(data),
                  std::span<std::uint8_t* const>(parity), 128);
        PresenceMap present(k + m, true);
        present[a] = present[b] = present[c] = false;
        if (a < k) blocks.erase(a);
        if (b < k) blocks.erase(b);
        if (c < k) blocks.erase(c);
        ASSERT_TRUE(rs.can_recover(present));
        auto all = blocks.all_ptrs();
        ASSERT_TRUE(
            rs.decode(std::span<std::uint8_t* const>(all), present, 128));
        ASSERT_TRUE(blocks.data_intact())
            << "erasures " << a << "," << b << "," << c;
      }
    }
  }
}

TEST(ReedSolomonTest, FailsBeyondMErasures) {
  const std::size_t k = 4, m = 2;
  ReedSolomon rs(k, m);
  PresenceMap present(k + m, true);
  present[0] = present[1] = present[4] = false;  // 3 > m erasures
  EXPECT_FALSE(rs.can_recover(present));
}

TEST(ReedSolomonTest, RejectsInvalidParameters) {
  EXPECT_THROW(ReedSolomon(0, 4), std::invalid_argument);
  EXPECT_THROW(ReedSolomon(4, 0), std::invalid_argument);
  EXPECT_THROW(ReedSolomon(200, 100), std::invalid_argument);
}

TEST(ReedSolomonTest, ParityIsDeterministic) {
  ReedSolomon rs(4, 2);
  Blocks b1(4, 2, 256, 9), b2(4, 2, 256, 9);
  auto d1 = b1.data_ptrs();
  auto p1 = b1.parity_ptrs();
  auto d2 = b2.data_ptrs();
  auto p2 = b2.parity_ptrs();
  rs.encode(std::span<const std::uint8_t* const>(d1),
            std::span<std::uint8_t* const>(p1), 256);
  rs.encode(std::span<const std::uint8_t* const>(d2),
            std::span<std::uint8_t* const>(p2), 256);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(std::memcmp(p1[i], p2[i], 256), 0);
  }
}

TEST(ReedSolomonTest, MultiCacheBlockEncodeIsByteLocal) {
  // Encode walks a block 4 KiB at a time. The code is byte-local, so a
  // block spanning several of those sub-ranges (plus a ragged tail) must
  // get the same parity as encoding each 1000-byte window on its own.
  const std::size_t k = 8, m = 4;
  const std::size_t len = 3 * 4096 + 100;
  const std::size_t window = 1000;
  ReedSolomon rs(k, m);
  Blocks blocks(k, m, len, 77);
  const auto data = blocks.data_ptrs();
  const auto parity = blocks.parity_ptrs();
  rs.encode(std::span<const std::uint8_t* const>(data),
            std::span<std::uint8_t* const>(parity), len);

  std::vector<std::uint8_t> window_parity(m * window);
  for (std::size_t off = 0; off < len; off += window) {
    const std::size_t n = std::min(window, len - off);
    std::vector<const std::uint8_t*> wdata(k);
    for (std::size_t d = 0; d < k; ++d) wdata[d] = data[d] + off;
    std::vector<std::uint8_t*> wparity(m);
    for (std::size_t p = 0; p < m; ++p) {
      wparity[p] = &window_parity[p * window];
    }
    rs.encode(std::span<const std::uint8_t* const>(wdata),
              std::span<std::uint8_t* const>(wparity), n);
    for (std::size_t p = 0; p < m; ++p) {
      EXPECT_EQ(std::memcmp(parity[p] + off, wparity[p], n), 0)
          << "parity " << p << " at offset " << off;
    }
  }
}

// ---------------------------------------------------------------------------
// XOR specifics
// ---------------------------------------------------------------------------

TEST(XorCodeTest, OneLossPerGroupRecovers) {
  const std::size_t k = 8, m = 4;  // groups of 2 data blocks + 1 parity
  XorCode xc(k, m);
  Blocks blocks(k, m, 256, 21);
  auto data = blocks.data_ptrs();
  auto parity = blocks.parity_ptrs();
  xc.encode(std::span<const std::uint8_t* const>(data),
            std::span<std::uint8_t* const>(parity), 256);
  // Lose one data block in every group: indices 0,1,2,3 (mod 4 groups).
  PresenceMap present(k + m, true);
  for (std::size_t g = 0; g < m; ++g) {
    present[g] = false;
    blocks.erase(g);
  }
  ASSERT_TRUE(xc.can_recover(present));
  auto all = blocks.all_ptrs();
  ASSERT_TRUE(xc.decode(std::span<std::uint8_t* const>(all), present, 256));
  EXPECT_TRUE(blocks.data_intact());
}

TEST(XorCodeTest, TwoLossesInOneGroupUnrecoverable) {
  const std::size_t k = 8, m = 4;
  XorCode xc(k, m);
  PresenceMap present(k + m, true);
  present[0] = present[4] = false;  // both in group 0 (0 mod 4 == 4 mod 4)
  EXPECT_FALSE(xc.can_recover(present));
}

TEST(XorCodeTest, DataLossWithParityLossUnrecoverable) {
  const std::size_t k = 8, m = 4;
  XorCode xc(k, m);
  PresenceMap present(k + m, true);
  present[1] = false;      // data in group 1
  present[k + 1] = false;  // parity of group 1
  EXPECT_FALSE(xc.can_recover(present));
}

TEST(XorCodeTest, ParityOnlyLossIsFine) {
  const std::size_t k = 8, m = 4;
  XorCode xc(k, m);
  PresenceMap present(k + m, true);
  for (std::size_t p = 0; p < m; ++p) present[k + p] = false;
  EXPECT_TRUE(xc.can_recover(present));
}

TEST(XorCodeTest, RejectsInvalidParameters) {
  EXPECT_THROW(XorCode(4, 0), std::invalid_argument);
  EXPECT_THROW(XorCode(2, 4), std::invalid_argument);
}

TEST(XorCodeTest, MatchesManualXor) {
  const std::size_t k = 6, m = 3;
  XorCode xc(k, m);
  Blocks blocks(k, m, 64, 31);
  auto data = blocks.data_ptrs();
  auto parity = blocks.parity_ptrs();
  xc.encode(std::span<const std::uint8_t* const>(data),
            std::span<std::uint8_t* const>(parity), 64);
  // parity[i] = XOR of data[j] with j % m == i.
  for (std::size_t p = 0; p < m; ++p) {
    for (std::size_t byte = 0; byte < 64; ++byte) {
      std::uint8_t expect = 0;
      for (std::size_t j = p; j < k; j += m) expect ^= data[j][byte];
      ASSERT_EQ(parity[p][byte], expect);
    }
  }
}

}  // namespace
}  // namespace sdr::ec
