#include "ec/gf256.hpp"

#include <cassert>
#include <cstring>

#include "ec/gf256_kernels.hpp"

namespace sdr::ec {

namespace {
constexpr std::uint16_t kPrimitivePoly = 0x11d;
}

const Gf256& Gf256::instance() {
  static const Gf256 gf;
  return gf;
}

Gf256::Gf256() {
  // Generate exp/log tables from the generator alpha = 2.
  std::uint16_t x = 1;
  for (std::size_t i = 0; i < 255; ++i) {
    exp_[i] = static_cast<std::uint8_t>(x);
    log_[x] = static_cast<std::uint16_t>(i);
    x <<= 1;
    if (x & 0x100) x ^= kPrimitivePoly;
  }
  // Duplicate so mul() can skip the mod-255 reduction.
  for (std::size_t i = 255; i < 512; ++i) exp_[i] = exp_[i - 255];
  log_[0] = 0;  // log(0) is undefined; mul() never reads it

  for (unsigned a = 0; a < 256; ++a) {
    for (unsigned b = 0; b < 256; ++b) {
      const std::uint8_t p =
          (a == 0 || b == 0)
              ? 0
              : exp_[log_[a] + log_[b]];
      mul_table_[a * 256 + b] = p;
    }
  }

  // GF2P8AFFINEQB matrices: multiplication by a constant is GF(2)-linear;
  // result bit i = parity(row_i & x) with row_i[j] = bit i of c*(1<<j).
  // The instruction reads row_i from byte (7 - i) of the qword.
  for (unsigned c = 0; c < 256; ++c) {
    std::uint64_t qword = 0;
    for (unsigned i = 0; i < 8; ++i) {
      std::uint8_t row = 0;
      for (unsigned j = 0; j < 8; ++j) {
        const std::uint8_t basis = mul_table_[c * 256 + (1u << j)];
        row |= static_cast<std::uint8_t>(((basis >> i) & 1u) << j);
      }
      qword |= static_cast<std::uint64_t>(row) << (8 * (7 - i));
    }
    affine_[c] = qword;
  }
}

std::uint8_t Gf256::div(std::uint8_t a, std::uint8_t b) const {
  assert(b != 0 && "division by zero in GF(256)");
  if (a == 0) return 0;
  return exp_[log_[a] + 255 - log_[b]];
}

std::uint8_t Gf256::inv(std::uint8_t a) const {
  assert(a != 0 && "inverse of zero in GF(256)");
  return exp_[255 - log_[a]];
}

std::uint8_t Gf256::pow(std::uint8_t a, unsigned e) const {
  if (e == 0) return 1;
  if (a == 0) return 0;
  const unsigned idx = (static_cast<unsigned>(log_[a]) * e) % 255;
  return exp_[idx];
}

// The bulk kernels live in gf256_kernels.cpp behind the runtime ISA
// dispatcher (split-table pshufb/vpshufb, gf2p8affineqb, scalar fallback);
// these wrappers keep the historical API while routing through it.

void Gf256::mul_acc(std::uint8_t* dst, const std::uint8_t* src, std::uint8_t c,
                    std::size_t n) const {
  if (c == 0) return;
  if (c == 1) {
    xor_acc(dst, src, n);
    return;
  }
  gf_kernels().mul_acc(dst, src, c, n);
}

void Gf256::mul_set(std::uint8_t* dst, const std::uint8_t* src, std::uint8_t c,
                    std::size_t n) const {
  if (c == 0) {
    std::memset(dst, 0, n);
    return;
  }
  if (c == 1) {
    std::memcpy(dst, src, n);
    return;
  }
  gf_kernels().mul_set(dst, src, c, n);
}

void Gf256::xor_acc(std::uint8_t* dst, const std::uint8_t* src,
                    std::size_t n) {
  // Word-wide XOR; the compiler vectorizes this to AVX-512 under
  // -march=native. The paper's XOR encoder ("~100 lines of C++ with OpenMP
  // and AVX-512") also spreads parity blocks over threads; this one runs on
  // the calling core.
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    std::uint64_t a, b;
    std::memcpy(&a, dst + i, 8);
    std::memcpy(&b, src + i, 8);
    a ^= b;
    std::memcpy(dst + i, &a, 8);
  }
  for (; i < n; ++i) dst[i] ^= src[i];
}

}  // namespace sdr::ec
