// Per-(n, q) host tables and the table-driven negacyclic transforms that
// serve from them.
//
// The PIM's twiddle factor generator makes twiddles on the fly because the
// hardware has no room for tables; the host has that room and owes only
// bit-exact values. Each NttParams builds one NttTables in its constructor
// and shares it, immutable, with its copies: the tables live and die with
// their parameter set, so no cache, bound or lock guards them, and any
// number of threads may read them at once.
//
// Every multiply the transforms make is a Shoup multiply (ntt/shoup.h)
// against a tabled constant. The plain transforms of ntt/negacyclic.h
// stay the oracle; the table kernels are bit-identical to them
// (test_ntt_tables checks every power-of-two n from 2 to 4096).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "ntt/shoup.h"

namespace nttpim::ntt {

class NttTables {
 public:
  /// Requires n a power of two, q < 2^31, and the roots and n^-1 of one
  /// parameter set (NttParams passes its own).
  NttTables(std::size_t n, std::uint32_t q, std::uint32_t omega,
            std::uint32_t omega_inv, std::uint32_t psi,
            std::uint32_t psi_inv, std::uint32_t n_inv);

  /// Forward negacyclic NTT, natural -> natural: the psi^i pre-scale fused
  /// with the bit-reversal permutation, then DIT over the omega stage
  /// twiddles. Bit-identical to forward_negacyclic_ntt.
  void forward_negacyclic(std::span<std::uint32_t> a) const;
  /// Inverse negacyclic NTT, natural -> natural: the bit-reversal
  /// permutation, DIT over the omega^-1 stage twiddles, then one
  /// n^-1 psi^-i post-scale. Bit-identical to inverse_negacyclic_ntt.
  void inverse_negacyclic(std::span<std::uint32_t> a) const;
  /// out[i] = in[i] * psi^i mod q: the forward pre-scale alone, which the
  /// PIM backend stages before it loads a forward item.
  void psi_scale(std::span<const std::uint32_t> in,
                 std::span<std::uint32_t> out) const;

 private:
  /// In-place DIT over stage twiddles `tw`, bit-reversed -> natural.
  void dit(std::span<std::uint32_t> a, const std::vector<ShoupMul>& tw) const;

  std::size_t n_;
  std::uint32_t q_;
  /// DIT stage twiddles, omega- and omega^-1-based: the stage of half-span
  /// m reads entries [m, 2m), entry m + j holding base^(j * n / (2m));
  /// entry 0 is unused.
  std::vector<ShoupMul> forward_;
  std::vector<ShoupMul> inverse_;
  std::vector<ShoupMul> psi_pows_;       ///< psi^i
  std::vector<ShoupMul> inverse_scale_;  ///< n^-1 * psi^-i
  std::vector<std::uint32_t> bitrev_;    ///< bit_reverse(i, log2 n)
};

}  // namespace nttpim::ntt
