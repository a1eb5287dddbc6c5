// Host-side data placement (paper Sec. IV.A, Fig. 1).
//
// The input polynomial is already resident in memory when the NTT is
// invoked. The host is responsible for the bit-reversal permutation (a
// common assumption shared with MeNTT/CryptoPIM), which load_polynomial
// performs while placing data; read_result reads the natural-order output
// back.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/bitutil.h"
#include "common/check.h"
#include "pim/device.h"

namespace nttpim::pim {

/// Place a natural-order polynomial into the bank starting at `base_row`,
/// applying the host-side bit-reversal permutation (an O(1) bit reversal
/// per word) and then one bulk write.
inline void load_polynomial(PimBank& bank, std::uint32_t base_row,
                            std::span<const std::uint32_t> poly) {
  NTTPIM_EXPECT(is_pow2(poly.size()));
  std::vector<std::uint32_t> placed(poly.size());
  const unsigned bits = exact_log2(poly.size());
  for (std::size_t i = 0; i < poly.size(); ++i)
    placed[bit_reverse(static_cast<std::uint32_t>(i), bits)] = poly[i];
  bank.array().write_words(base_row, placed);
}

/// Read back `n` words in storage order (natural-order NTT output): one
/// bulk read.
inline std::vector<std::uint32_t> read_result(const PimBank& bank,
                                              std::uint32_t base_row,
                                              std::size_t n) {
  std::vector<std::uint32_t> out(n);
  bank.array().read_words(base_row, out);
  return out;
}

}  // namespace nttpim::pim
