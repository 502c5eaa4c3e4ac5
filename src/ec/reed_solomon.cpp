#include "ec/reed_solomon.hpp"

#include <cassert>
#include <cstring>
#include <stdexcept>

#include "ec/gf256_kernels.hpp"

namespace sdr::ec {

namespace {
/// Sub-range the fused pass works through: the data slice plus the active
/// parity rows stay cache-resident while every coefficient is applied.
constexpr std::size_t kCacheBlock = 4096;
/// k + m <= 256, so fixed stack arrays cover every legal geometry.
constexpr std::size_t kMaxBlocks = 256;
}  // namespace

ReedSolomon::ReedSolomon(std::size_t k, std::size_t m) : k_(k), m_(m) {
  if (k == 0 || m == 0 || k + m > 256) {
    throw std::invalid_argument(
        "ReedSolomon requires 1 <= k, 1 <= m, k + m <= 256");
  }
  // x range [k, k+m), y range [0, k): disjoint, so xi ^ yj != 0... in
  // integer terms they are distinct values < 256, and XOR of distinct
  // values is nonzero.
  parity_rows_ = GfMatrix::cauchy(m, k, static_cast<std::uint8_t>(k), 0);
  parity_by_data_.resize(k_ * m_);
  for (std::size_t d = 0; d < k_; ++d) {
    for (std::size_t p = 0; p < m_; ++p) {
      parity_by_data_[d * m_ + p] = parity_rows_.at(p, d);
    }
  }
}

std::string ReedSolomon::name() const {
  return "RS(" + std::to_string(k_) + "," + std::to_string(m_) + ")";
}

void ReedSolomon::encode(std::span<const std::uint8_t* const> data,
                         std::span<std::uint8_t* const> parity,
                         std::size_t block_len) const {
  encode_with(gf_kernels(), data, parity, block_len);
}

void ReedSolomon::encode_with(const GfKernels& kernels,
                              std::span<const std::uint8_t* const> data,
                              std::span<std::uint8_t* const> parity,
                              std::size_t block_len) const {
  assert(data.size() == k_ && parity.size() == m_);

  // Fused cache-blocked pass: within each 4 KiB sub-range, initialize all m
  // parity rows from data[0], then stream every further data block exactly
  // once through the multi-row kernel, which loads each source vector once
  // per register group while accumulating into the (cache-resident) parity
  // rows. XOR accumulation is order-independent, so the output is
  // byte-identical to the row-at-a-time formulation under any kernel.
  std::uint8_t* dst[kMaxBlocks];
  for (std::size_t blk = 0; blk < block_len; blk += kCacheBlock) {
    const std::size_t n = std::min(kCacheBlock, block_len - blk);
    for (std::size_t p = 0; p < m_; ++p) {
      dst[p] = parity[p] + blk;
      kernels.mul_set(dst[p], data[0] + blk, parity_by_data_[p], n);
    }
    for (std::size_t d = 1; d < k_; ++d) {
      kernels.mul_acc_multi(dst, parity_by_data_.data() + d * m_, m_,
                            data[d] + blk, n);
    }
  }
}

bool ReedSolomon::can_recover(const PresenceMap& present) const {
  assert(present.size() == k_ + m_);
  std::size_t available = 0;
  for (bool p : present) available += p ? 1 : 0;
  return available >= k_;  // MDS: any k of k+m suffice
}

bool ReedSolomon::decode(std::span<std::uint8_t* const> blocks,
                         const PresenceMap& present,
                         std::size_t block_len) const {
  return decode_with(gf_kernels(), blocks, present, block_len);
}

bool ReedSolomon::decode_with(const GfKernels& kernels,
                              std::span<std::uint8_t* const> blocks,
                              const PresenceMap& present,
                              std::size_t block_len) const {
  assert(blocks.size() == k_ + m_ && present.size() == k_ + m_);
  if (!can_recover(present)) return false;

  // Which data blocks are missing?
  std::vector<std::size_t> missing_data;
  for (std::size_t i = 0; i < k_; ++i) {
    if (!present[i]) missing_data.push_back(i);
  }
  if (missing_data.empty()) return true;  // nothing to do

  // Pick k present blocks (prefer data blocks: identity rows make the
  // decode matrix sparser and the row selection cheaper to invert).
  std::vector<std::size_t> chosen;
  chosen.reserve(k_);
  for (std::size_t i = 0; i < k_ + m_ && chosen.size() < k_; ++i) {
    if (present[i]) chosen.push_back(i);
  }

  // Build the k x k matrix mapping data -> chosen blocks and invert it.
  GfMatrix selection(k_, k_);
  for (std::size_t r = 0; r < k_; ++r) {
    const std::size_t src = chosen[r];
    if (src < k_) {
      selection.at(r, src) = 1;  // identity row for a data block
    } else {
      for (std::size_t c = 0; c < k_; ++c) {
        selection.at(r, c) = parity_rows_.at(src - k_, c);
      }
    }
  }
  GfMatrix inverse;
  if (!selection.invert(inverse)) return false;  // cannot happen for Cauchy

  // Reconstruct every missing data block in one fused cache-blocked solve:
  //   data[d] = sum_r inverse[d][r] * blocks[chosen[r]]
  // Source-major, like encode: each chosen block is streamed once per
  // sub-range while accumulating into all missing rows. A zero coefficient
  // in mul_set zero-fills and the multi kernel skips zero rows, so the
  // result matches the old skip-zeroes formulation byte for byte.
  const std::size_t miss = missing_data.size();
  std::vector<std::uint8_t> coeff_by_source(k_ * miss);
  for (std::size_t r = 0; r < k_; ++r) {
    for (std::size_t j = 0; j < miss; ++j) {
      coeff_by_source[r * miss + j] = inverse.at(missing_data[j], r);
    }
  }

  std::uint8_t* out[kMaxBlocks];
  for (std::size_t blk = 0; blk < block_len; blk += kCacheBlock) {
    const std::size_t n = std::min(kCacheBlock, block_len - blk);
    for (std::size_t j = 0; j < miss; ++j) {
      out[j] = blocks[missing_data[j]] + blk;
      kernels.mul_set(out[j], blocks[chosen[0]] + blk, coeff_by_source[j], n);
    }
    for (std::size_t r = 1; r < k_; ++r) {
      kernels.mul_acc_multi(out, coeff_by_source.data() + r * miss, miss,
                            blocks[chosen[r]] + blk, n);
    }
  }
  return true;
}

}  // namespace sdr::ec
