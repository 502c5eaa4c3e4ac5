#include "ec/xor_code.hpp"

#include <cassert>
#include <cstring>
#include <stdexcept>

#include "ec/gf256.hpp"

namespace sdr::ec {

XorCode::XorCode(std::size_t k, std::size_t m) : k_(k), m_(m) {
  if (m == 0 || k < m) {
    throw std::invalid_argument("XorCode requires 1 <= m <= k");
  }
}

std::string XorCode::name() const {
  return "XOR(" + std::to_string(k_) + "," + std::to_string(m_) + ")";
}

void XorCode::encode(std::span<const std::uint8_t* const> data,
                     std::span<std::uint8_t* const> parity,
                     std::size_t block_len) const {
  assert(data.size() == k_ && parity.size() == m_);

  for (std::size_t p = 0; p < m_; ++p) {
    std::uint8_t* out = parity[p];
    bool first = true;
    for (std::size_t j = p; j < k_; j += m_) {
      if (first) {
        std::memcpy(out, data[j], block_len);
        first = false;
      } else {
        Gf256::xor_acc(out, data[j], block_len);
      }
    }
    if (first) std::memset(out, 0, block_len);
  }
}

bool XorCode::can_recover(const PresenceMap& present) const {
  assert(present.size() == k_ + m_);
  // Recoverable iff each modulo group misses at most one data block, and a
  // group missing a data block still has its parity block.
  for (std::size_t g = 0; g < m_; ++g) {
    std::size_t missing_data = 0;
    for (std::size_t j = g; j < k_; j += m_) {
      if (!present[j]) ++missing_data;
    }
    if (missing_data > 1) return false;
    if (missing_data == 1 && !present[k_ + g]) return false;
  }
  return true;
}

bool XorCode::decode(std::span<std::uint8_t* const> blocks,
                     const PresenceMap& present,
                     std::size_t block_len) const {
  assert(blocks.size() == k_ + m_ && present.size() == k_ + m_);
  if (!can_recover(present)) return false;

  for (std::size_t g = 0; g < m_; ++g) {
    std::size_t missing = k_ + m_;  // sentinel: none
    for (std::size_t j = g; j < k_; j += m_) {
      if (!present[j]) {
        missing = j;
        break;
      }
    }
    if (missing == k_ + m_) continue;

    // Rebuild the missing block as parity XOR all present group members.
    std::uint8_t* out = blocks[missing];
    std::memcpy(out, blocks[k_ + g], block_len);
    for (std::size_t j = g; j < k_; j += m_) {
      if (j != missing) Gf256::xor_acc(out, blocks[j], block_len);
    }
  }
  return true;
}

}  // namespace sdr::ec
