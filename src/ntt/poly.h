// Polynomial products over Z_q[X]/(X^N - 1) and Z_q[X]/(X^N + 1).
//
// Implements Eq. (1) of the paper, a*b = INTT(NTT(a) ⊙ NTT(b)), plus O(N^2)
// schoolbook versions used as golden models.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "ntt/params.h"

namespace nttpim::ntt {

/// Schoolbook product modulo X^N - 1 (cyclic convolution).
std::vector<std::uint32_t> cyclic_convolution_schoolbook(
    std::span<const std::uint32_t> a, std::span<const std::uint32_t> b,
    std::uint32_t q);

/// Schoolbook product modulo X^N + 1 (negacyclic convolution).
std::vector<std::uint32_t> negacyclic_convolution_schoolbook(
    std::span<const std::uint32_t> a, std::span<const std::uint32_t> b,
    std::uint32_t q);

/// Pointwise (Hadamard) product mod q, for 1 < q < 2^31: one Barrett
/// reduction (ntt/barrett.h) per product, exact for any 32-bit operands.
std::vector<std::uint32_t> pointwise_mul(std::span<const std::uint32_t> a,
                                         std::span<const std::uint32_t> b,
                                         std::uint32_t q);

/// Cyclic product via NTT (Eq. 1).
std::vector<std::uint32_t> cyclic_convolution_ntt(
    std::span<const std::uint32_t> a, std::span<const std::uint32_t> b,
    const NttParams& params);

/// Negacyclic product via psi-scaled NTT.
std::vector<std::uint32_t> negacyclic_convolution_ntt(
    std::span<const std::uint32_t> a, std::span<const std::uint32_t> b,
    const NttParams& params);

}  // namespace nttpim::ntt
