// Bit-manipulation helpers used throughout the NTT and mapping code.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <vector>

#include "common/check.h"

namespace nttpim {

/// True iff `x` is a power of two (zero is not).
constexpr bool is_pow2(std::uint64_t x) noexcept {
  return x != 0 && (x & (x - 1)) == 0;
}

/// floor(log2(x)) for x > 0.
constexpr unsigned ilog2(std::uint64_t x) {
  NTTPIM_CHECK_MSG(x != 0, "ilog2(0) undefined");
  return static_cast<unsigned>(63 - std::countl_zero(x));
}

/// log2 of a power of two; checks the argument really is one.
constexpr unsigned exact_log2(std::uint64_t x) {
  NTTPIM_CHECK_MSG(is_pow2(x), "exact_log2 requires a power of two");
  return ilog2(x);
}

/// Ceiling division for non-negative integers.
constexpr std::uint64_t div_ceil(std::uint64_t a, std::uint64_t b) {
  NTTPIM_CHECK(b != 0);
  return (a + b - 1) / b;
}

namespace detail {
/// kByteReverse[b] is the byte b with its 8 bits in reverse order.
inline constexpr std::array<std::uint8_t, 256> kByteReverse = [] {
  std::array<std::uint8_t, 256> table{};
  for (unsigned b = 0; b < 256; ++b) {
    unsigned reversed = 0;
    for (unsigned i = 0; i < 8; ++i) reversed |= ((b >> i) & 1u) << (7 - i);
    table[b] = static_cast<std::uint8_t>(reversed);
  }
  return table;
}();
}  // namespace detail

/// Reverse the low `bits` bits of `x` (the classic FFT bit-reversal index)
/// in O(1): four byte lookups reverse all 32 bits, and the shift keeps the
/// reversed low `bits`.
constexpr std::uint32_t bit_reverse(std::uint32_t x, unsigned bits) {
  NTTPIM_CHECK(bits <= 32);
  if (bits == 0) return 0;
  const auto& rev = detail::kByteReverse;
  const std::uint32_t all = (std::uint32_t{rev[x & 0xffu]} << 24) |
                            (std::uint32_t{rev[(x >> 8) & 0xffu]} << 16) |
                            (std::uint32_t{rev[(x >> 16) & 0xffu]} << 8) |
                            std::uint32_t{rev[x >> 24]};
  return all >> (32 - bits);
}

/// Table of bit-reversed indices for a size-`n` (power-of-two) transform.
inline std::vector<std::uint32_t> bit_reverse_table(std::size_t n) {
  NTTPIM_EXPECT(is_pow2(n));
  const unsigned bits = exact_log2(n);
  std::vector<std::uint32_t> table(n);
  for (std::size_t i = 0; i < n; ++i)
    table[i] = bit_reverse(static_cast<std::uint32_t>(i), bits);
  return table;
}

/// Permute `v` in place by the bit-reversal permutation (an involution).
template <typename T>
void bit_reverse_permute(std::vector<T>& v) {
  NTTPIM_EXPECT(is_pow2(v.size()));
  const unsigned bits = exact_log2(v.size());
  for (std::uint32_t i = 0; i < v.size(); ++i) {
    const std::uint32_t j = bit_reverse(i, bits);
    if (j > i) std::swap(v[i], v[j]);
  }
}

}  // namespace nttpim
