#include "ntt/params.h"

#include "common/check.h"
#include "ntt/modular.h"
#include "ntt/primes.h"

namespace nttpim::ntt {

NttParams::NttParams(std::size_t n, std::uint32_t q) : n_(n), q_(q) {
  NTTPIM_EXPECT_MSG(is_pow2(n) && n >= 2, "N must be a power of two >= 2");
  NTTPIM_EXPECT_MSG(is_prime(q), "q must be prime");
  NTTPIM_EXPECT_MSG((q - 1) % (2 * n) == 0,
                    "q must satisfy q ≡ 1 (mod 2N) for psi to exist");
  log2n_ = exact_log2(n);
  psi_ = static_cast<std::uint32_t>(primitive_root_of_unity(q, 2 * n));
  omega_ = static_cast<std::uint32_t>(mul_mod(psi_, psi_, q));
  NTTPIM_CHECK(has_order(omega_, n, q));
  omega_inv_ = static_cast<std::uint32_t>(inv_mod(omega_, q));
  psi_inv_ = static_cast<std::uint32_t>(inv_mod(psi_, q));
  n_inv_ = static_cast<std::uint32_t>(inv_mod(n % q, q));
}

NttParams NttParams::create(std::size_t n, unsigned bits) {
  return NttParams(n, find_ntt_prime(n, bits));
}

std::uint32_t NttParams::omega_pow(std::uint64_t e) const {
  return static_cast<std::uint32_t>(pow_mod(omega_, e, q_));
}

std::uint32_t NttParams::stage_step(unsigned stage) const {
  NTTPIM_EXPECT_MSG(stage >= 1 && stage <= log2n_, "stage out of range");
  return omega_pow(n_ >> stage);
}

}  // namespace nttpim::ntt
