// Shoup multiplication by a precomputed constant — the host's multiply-mod
// wherever one operand is known ahead of time: a table twiddle, a psi
// power, n^-1 psi^-i, a C1 root power. For such a constant w in [0, q)
// the companion w' = floor(w * 2^32 / q) turns a * w mod q into two 32x32
// multiplies, one subtraction and one conditional subtraction, with no
// division. The tables (ntt/tables.h) and the CU's C1 powers (pim/cu.h)
// store each constant next to its companion.
#pragma once

#include <cstdint>

#include "ntt/modular.h"

namespace nttpim::ntt {

/// A multiplier w in [0, q) and its Shoup companion floor(w * 2^32 / q).
struct ShoupMul {
  std::uint32_t w = 0;
  std::uint32_t w_shoup = 0;
};

/// w's companion for modulus q; requires w < q < 2^31.
constexpr ShoupMul make_shoup(std::uint32_t w, std::uint32_t q) noexcept {
  return {w, static_cast<std::uint32_t>((std::uint64_t{w} << 32) / q)};
}

/// a * w mod q, exact for every 32-bit a when w < q < 2^31. The quotient
/// estimate floor(a * w' / 2^32) undershoots floor(a * w / q) by at most
/// one, so the remainder a * w - quotient * q lies in [0, 2q) — below 2^32,
/// hence exact in wrapping 32-bit arithmetic — and one conditional
/// subtraction lands it in [0, q). q < 2^31 is also why a lazy [0, 4q)
/// form does not fit 32-bit lanes here.
constexpr std::uint32_t shoup_mul(std::uint32_t a, ShoupMul w,
                                  std::uint32_t q) noexcept {
  const auto quotient =
      static_cast<std::uint32_t>((std::uint64_t{a} * w.w_shoup) >> 32);
  const std::uint32_t r = a * w.w - quotient * q;
  return r >= q ? r - q : r;
}

/// The DIT butterfly (a, b) <- (a + w*b, a - w*b) mod q with one Shoup
/// multiply and the branch-free combine of ntt::dit_butterfly.
constexpr void shoup_butterfly(std::uint32_t& a, std::uint32_t& b, ShoupMul w,
                               std::uint32_t q) noexcept {
  dit_butterfly(a, b, shoup_mul(b, w, q), q);
}

}  // namespace nttpim::ntt
