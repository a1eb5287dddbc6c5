// Core modular arithmetic over Z_q.
//
// All NTT coefficients are 32-bit words (the paper's bitwidth); intermediate
// products use 64-bit (or 128-bit for 64-bit moduli in parameter search).
// Functions here are the straightforward, obviously-correct forms; the
// performance-tuned reduction lives in barrett.h and is cross-checked
// against these in the tests.
#pragma once

#include <cstdint>

#include "common/check.h"

namespace nttpim::ntt {

/// (a + b) mod q for a, b in [0, q).
constexpr std::uint64_t add_mod(std::uint64_t a, std::uint64_t b,
                                std::uint64_t q) noexcept {
  const std::uint64_t s = a + b;
  return s >= q ? s - q : s;
}

/// (a - b) mod q for a, b in [0, q).
constexpr std::uint64_t sub_mod(std::uint64_t a, std::uint64_t b,
                                std::uint64_t q) noexcept {
  return a >= b ? a - b : a + q - b;
}

/// (a * b) mod q via 128-bit intermediate; valid for q < 2^63.
constexpr std::uint64_t mul_mod(std::uint64_t a, std::uint64_t b,
                                std::uint64_t q) noexcept {
  return static_cast<std::uint64_t>(
      static_cast<unsigned __int128>(a) * b % q);
}

/// a^e mod q by square-and-multiply.
constexpr std::uint64_t pow_mod(std::uint64_t a, std::uint64_t e,
                                std::uint64_t q) noexcept {
  std::uint64_t base = a % q;
  std::uint64_t result = 1 % q;
  while (e != 0) {
    if (e & 1) result = mul_mod(result, base, q);
    base = mul_mod(base, base, q);
    e >>= 1;
  }
  return result;
}

/// Multiplicative inverse mod prime q (Fermat); requires gcd(a, q) = 1.
inline std::uint64_t inv_mod(std::uint64_t a, std::uint64_t q) {
  NTTPIM_EXPECT_MSG(a % q != 0, "inverse of 0 does not exist");
  return pow_mod(a, q - 2, q);
}

/// Negation: (-a) mod q.
constexpr std::uint64_t neg_mod(std::uint64_t a, std::uint64_t q) noexcept {
  return a == 0 ? 0 : q - a;
}

}  // namespace nttpim::ntt
