// NTT parameter bundle: transform size, modulus and roots of unity.
//
// This is the "(N, p, q, ...)" parameter set that the host software passes to
// the memory controller when invoking the PIM NTT function (paper Fig. 1 and
// Sec. IV.A).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/bitutil.h"

namespace nttpim::ntt {

class NttTables;

class NttParams {
 public:
  /// Build parameters for a size-`n` cyclic NTT modulo prime `q`.
  /// Requires: n a power of two, q a prime below 2^31 (the BU datapath's
  /// range, which the Shoup tables share) with 2n | q-1 (so that a 2n-th
  /// root psi exists, enabling the negacyclic transform as well). Builds
  /// the parameter set's host tables (ntt/tables.h) once; copies share
  /// them.
  NttParams(std::size_t n, std::uint32_t q);

  /// Convenience: pick the largest `bits`-bit NTT-friendly prime for size n.
  static NttParams create(std::size_t n, unsigned bits = 31);

  std::size_t n() const noexcept { return n_; }
  unsigned log2n() const noexcept { return log2n_; }
  std::uint32_t q() const noexcept { return q_; }

  /// Primitive n-th root of unity (the NTT twiddle base omega).
  std::uint32_t omega() const noexcept { return omega_; }
  /// omega^{-1} mod q.
  std::uint32_t omega_inv() const noexcept { return omega_inv_; }
  /// Primitive 2n-th root of unity (psi^2 = omega) for negacyclic transforms.
  std::uint32_t psi() const noexcept { return psi_; }
  std::uint32_t psi_inv() const noexcept { return psi_inv_; }
  /// n^{-1} mod q (inverse-transform scale factor).
  std::uint32_t n_inv() const noexcept { return n_inv_; }

  /// omega^e mod q.
  std::uint32_t omega_pow(std::uint64_t e) const;

  /// Stage step w_s = omega^(n / 2^s) for DIT stage s in [1, log2n]:
  /// within a stage the butterfly at in-group offset j uses twiddle w_s^j.
  std::uint32_t stage_step(unsigned stage) const;

  /// The immutable per-(n, q) twiddle, psi and bit-reversal tables the
  /// host's served transforms read (ntt/tables.h).
  const NttTables& tables() const noexcept { return *tables_; }

 private:
  std::size_t n_;
  unsigned log2n_;
  std::uint32_t q_;
  std::uint32_t omega_;
  std::uint32_t omega_inv_;
  std::uint32_t psi_;
  std::uint32_t psi_inv_;
  std::uint32_t n_inv_;
  std::shared_ptr<const NttTables> tables_;
};

}  // namespace nttpim::ntt
