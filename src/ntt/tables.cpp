#include "ntt/tables.h"

#include <utility>

#include "common/bitutil.h"
#include "common/check.h"
#include "ntt/barrett.h"

namespace nttpim::ntt {

namespace {

/// base^i for i in [0, count), each with its companion.
std::vector<ShoupMul> power_table(std::uint32_t base, std::uint32_t scale0,
                                  std::size_t count, const Barrett32& br) {
  std::vector<ShoupMul> table(count);
  std::uint32_t value = br.reduce(scale0);
  for (ShoupMul& entry : table) {
    entry = make_shoup(value, br.modulus());
    value = br.mul(value, base);
  }
  return table;
}

/// The DIT stage twiddles over `base`, laid out as NttTables documents.
std::vector<ShoupMul> stage_table(std::uint32_t base, std::size_t n,
                                  const Barrett32& br) {
  // base^k for k < n/2; the stage of half-span m reads every (n/2m)-th.
  const std::vector<ShoupMul> pows = power_table(base, 1, n / 2, br);
  std::vector<ShoupMul> table(n);
  for (std::size_t m = 1; m < n; m <<= 1)
    for (std::size_t j = 0; j < m; ++j) table[m + j] = pows[j * (n / (2 * m))];
  return table;
}

}  // namespace

NttTables::NttTables(std::size_t n, std::uint32_t q, std::uint32_t omega,
                     std::uint32_t omega_inv, std::uint32_t psi,
                     std::uint32_t psi_inv, std::uint32_t n_inv)
    : n_(n), q_(q) {
  NTTPIM_EXPECT_MSG(is_pow2(n) && n >= 2, "N must be a power of two >= 2");
  const Barrett32 br(q);  // rejects q outside (1, 2^31)
  forward_ = stage_table(omega, n, br);
  inverse_ = stage_table(omega_inv, n, br);
  psi_pows_ = power_table(psi, 1, n, br);
  inverse_scale_ = power_table(psi_inv, n_inv, n, br);
  bitrev_ = bit_reverse_table(n);
}

void NttTables::dit(std::span<std::uint32_t> a,
                    const std::vector<ShoupMul>& tw) const {
  for (std::size_t m = 1; m < n_; m <<= 1) {
    const ShoupMul* w = tw.data() + m;
    for (std::size_t k = 0; k < n_; k += 2 * m) {
      std::uint32_t* lo = a.data() + k;
      std::uint32_t* hi = lo + m;
      for (std::size_t j = 0; j < m; ++j) shoup_butterfly(lo[j], hi[j], w[j], q_);
    }
  }
}

void NttTables::forward_negacyclic(std::span<std::uint32_t> a) const {
  NTTPIM_EXPECT(a.size() == n_);
  // Each bit-reversal pair (i, j = bitrev(i)) is visited once, at its
  // lower index, and both words are scaled by their own psi power as they
  // swap; a fixed point (i == j) is scaled in place.
  for (std::size_t i = 0; i < n_; ++i) {
    const std::uint32_t j = bitrev_[i];
    if (j < i) continue;
    const std::uint32_t x = shoup_mul(a[i], psi_pows_[i], q_);
    a[i] = shoup_mul(a[j], psi_pows_[j], q_);
    a[j] = x;
  }
  dit(a, forward_);
}

void NttTables::inverse_negacyclic(std::span<std::uint32_t> a) const {
  NTTPIM_EXPECT(a.size() == n_);
  for (std::size_t i = 0; i < n_; ++i) {
    const std::uint32_t j = bitrev_[i];
    if (j > i) std::swap(a[i], a[j]);
  }
  dit(a, inverse_);
  for (std::size_t i = 0; i < n_; ++i)
    a[i] = shoup_mul(a[i], inverse_scale_[i], q_);
}

void NttTables::psi_scale(std::span<const std::uint32_t> in,
                          std::span<std::uint32_t> out) const {
  NTTPIM_EXPECT(in.size() == n_ && out.size() == n_);
  for (std::size_t i = 0; i < n_; ++i)
    out[i] = shoup_mul(in[i], psi_pows_[i], q_);
}

}  // namespace nttpim::ntt
