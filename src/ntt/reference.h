// Reference NTT implementations: the golden models the PIM results are
// checked against, and the kernels the negacyclic CPU transforms build on.
//
// Conventions. All functions operate on vectors of residues in [0, q).
//  - "bitrev -> natural": expects input permuted by bit reversal, produces
//    output in natural index order (Cooley–Tukey / DIT dataflow, the one the
//    PIM mapping uses; the paper assumes host software performs the bit
//    reversal).
//  - forward_ntt / inverse_ntt are the natural->natural conveniences.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "ntt/params.h"

namespace nttpim::ntt {

/// O(N^2) DFT over Z_q: X[k] = sum_i a[i] * omega^{ik}. Golden model.
std::vector<std::uint32_t> naive_dft(std::span<const std::uint32_t> a,
                                     const NttParams& params);

/// O(N^2) inverse DFT: a[i] = n^{-1} * sum_k X[k] * omega^{-ik}.
std::vector<std::uint32_t> naive_idft(std::span<const std::uint32_t> x,
                                      const NttParams& params);

/// In-place iterative Cooley–Tukey (DIT): bit-reversed input -> natural
/// output. Butterfly: (a, b) -> (a + w*b, a - w*b); stage s in [1, log N]
/// uses twiddles w_s^j, w_s = omega^(N / 2^s), j = in-group offset.
void ntt_dit_bitrev_to_natural(std::span<std::uint32_t> a,
                               const NttParams& params);

/// In-place DIT with inverse twiddles (no final scaling): bit-reversed input
/// -> natural output of the *unscaled* inverse transform.
void intt_dit_bitrev_to_natural(std::span<std::uint32_t> a,
                                const NttParams& params);

/// Recursive Cooley–Tukey (even/odd split), natural -> natural. Slower, used
/// to cross-check and to mirror the paper's recursive-decomposition argument
/// (Sec. III.A).
std::vector<std::uint32_t> ntt_recursive(std::span<const std::uint32_t> a,
                                         const NttParams& params);

/// Natural -> natural forward NTT (bit-reverse + DIT).
void forward_ntt(std::vector<std::uint32_t>& a, const NttParams& params);

/// Natural -> natural inverse NTT (bit-reverse + DIT(omega^-1) + scale 1/N).
void inverse_ntt(std::vector<std::uint32_t>& a, const NttParams& params);

}  // namespace nttpim::ntt
