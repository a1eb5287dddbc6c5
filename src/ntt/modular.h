// Core modular arithmetic over Z_q.
//
// All NTT coefficients are 32-bit words (the paper's bitwidth); intermediate
// products use 64-bit (or 128-bit for 64-bit moduli in parameter search).
// Functions here are the straightforward, obviously-correct forms, plus the
// branch-free butterfly combine every served transform shares; the
// performance-tuned reductions live in barrett.h and shoup.h and are
// cross-checked against these in the tests.
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

/// The DIT butterfly's combine (a, b) <- (a + t, a - t) mod q for a
/// product t in [0, q), with no branch: with random data the sign of a - t
/// is a coin flip, so a branch would mispredict on every other butterfly.
/// Each correction is q masked by its comparison, plain arithmetic that a
/// compiler keeps branch-free; the ternaries of add_mod/sub_mod may become
/// a branch (gcc 12 emits one for the sum inside the CU's C2 loop, which
/// doubles that loop's time). The two words are exactly add_mod(a, t, q)
/// and sub_mod(a, t, q), for every 32-bit a, reduced or not; q < 2^31.
constexpr void dit_butterfly(std::uint32_t& a, std::uint32_t& b,
                             std::uint32_t t, std::uint32_t q) noexcept {
  const std::uint64_t u = a;
  const std::uint64_t sum = u + t;
  a = static_cast<std::uint32_t>(
      sum - (q & (0 - static_cast<std::uint64_t>(sum >= q))));
  b = static_cast<std::uint32_t>(
      u - t + (q & (0 - static_cast<std::uint64_t>(u < t))));
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
