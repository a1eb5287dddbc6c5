// Barrett reduction for 32-bit moduli — used by the functional hot path
// (the TFG and the CU butterfly datapath).
#pragma once

#include <cstdint>

#include "common/check.h"

namespace nttpim::ntt {

/// Barrett context for a modulus 1 < q < 2^31.
///
/// Precomputes mu = floor(2^64 / q); reduce(x) then needs only one 128-bit
/// multiply-high and at most two conditional subtractions.
class Barrett32 {
 public:
  explicit Barrett32(std::uint32_t q) : q_(q) {
    NTTPIM_EXPECT_MSG(q > 1 && q < (1u << 31), "modulus must be in (1, 2^31)");
    mu_ = static_cast<std::uint64_t>(
        (static_cast<unsigned __int128>(1) << 64) / q);
  }

  std::uint32_t modulus() const noexcept { return q_; }

  /// x mod q, exact for the full 64-bit range of x: mu underestimates
  /// 2^64/q by less than 1, so the remainder after subtracting the
  /// approximate quotient is below 2q and one conditional subtraction
  /// always lands in [0, q) (the second is belt-and-braces). In particular
  /// products of arbitrary 32-bit operands reduce correctly.
  std::uint32_t reduce(std::uint64_t x) const noexcept {
    const std::uint64_t approx_quotient = static_cast<std::uint64_t>(
        (static_cast<unsigned __int128>(x) * mu_) >> 64);
    std::uint64_t r = x - approx_quotient * q_;
    if (r >= q_) r -= q_;
    if (r >= q_) r -= q_;
    return static_cast<std::uint32_t>(r);
  }

  std::uint32_t mul(std::uint32_t a, std::uint32_t b) const noexcept {
    return reduce(static_cast<std::uint64_t>(a) * b);
  }

 private:
  std::uint32_t q_;
  std::uint64_t mu_;
};

}  // namespace nttpim::ntt
