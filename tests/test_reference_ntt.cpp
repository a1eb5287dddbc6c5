#include "ntt/reference.h"

#include <gtest/gtest.h>

#include "common/bitutil.h"
#include "common/random.h"
#include "ntt/modular.h"
#include "ntt/negacyclic.h"

namespace nttpim::ntt {
namespace {

std::vector<std::uint32_t> random_poly(std::size_t n, std::uint32_t q,
                                       std::uint64_t seed) {
  Rng rng(seed);
  return rng.residues(n, q);
}

// All fast algorithms must agree with the O(N^2) DFT.
class AlgorithmAgreement : public ::testing::TestWithParam<std::size_t> {};

TEST_P(AlgorithmAgreement, EveryAlgorithmMatchesNaiveDft) {
  const std::size_t n = GetParam();
  const NttParams p = NttParams::create(n);
  const auto input = random_poly(n, p.q(), 100 + n);
  const auto golden = naive_dft(input, p);

  {  // DIT: bit-reversed input -> natural output
    auto a = input;
    bit_reverse_permute(a);
    ntt_dit_bitrev_to_natural(a, p);
    EXPECT_EQ(a, golden) << "DIT, n=" << n;
  }
  {  // recursive
    EXPECT_EQ(ntt_recursive(input, p), golden) << "recursive, n=" << n;
  }
  {  // convenience forward
    auto a = input;
    forward_ntt(a, p);
    EXPECT_EQ(a, golden);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, AlgorithmAgreement,
                         ::testing::Values(2, 4, 8, 16, 32, 64, 128, 256));

class RoundTrip : public ::testing::TestWithParam<std::size_t> {};

TEST_P(RoundTrip, InverseUndoesForward) {
  const std::size_t n = GetParam();
  const NttParams p = NttParams::create(n);
  const auto input = random_poly(n, p.q(), 200 + n);
  auto a = input;
  forward_ntt(a, p);
  inverse_ntt(a, p);
  EXPECT_EQ(a, input);
}

TEST_P(RoundTrip, NegacyclicInverseUndoesForward) {
  const std::size_t n = GetParam();
  const NttParams p = NttParams::create(n);
  const auto input = random_poly(n, p.q(), 300 + n);
  auto a = input;
  forward_negacyclic_ntt(a, p);
  inverse_negacyclic_ntt(a, p);
  EXPECT_EQ(a, input);
}

INSTANTIATE_TEST_SUITE_P(Sizes, RoundTrip,
                         ::testing::Values(2, 8, 64, 512, 1024, 4096, 8192));

TEST(RoundTrip, NaiveIdftInvertsNaiveDft) {
  const NttParams p = NttParams::create(32);
  const auto input = random_poly(32, p.q(), 11);
  EXPECT_EQ(naive_idft(naive_dft(input, p), p), input);
}

TEST(Linearity, TransformIsLinear) {
  const std::size_t n = 128;
  const NttParams p = NttParams::create(n);
  const std::uint64_t q = p.q();
  const auto a = random_poly(n, p.q(), 21);
  const auto b = random_poly(n, p.q(), 22);
  const std::uint32_t c = 12345;

  // NTT(c*a + b) == c*NTT(a) + NTT(b)
  std::vector<std::uint32_t> lhs(n);
  for (std::size_t i = 0; i < n; ++i)
    lhs[i] = static_cast<std::uint32_t>(
        add_mod(mul_mod(c, a[i], q), b[i], q));
  forward_ntt(lhs, p);

  auto fa = a;
  auto fb = b;
  forward_ntt(fa, p);
  forward_ntt(fb, p);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(lhs[i], add_mod(mul_mod(c, fa[i], q), fb[i], q));
  }
}

TEST(KnownValues, ConstantPolynomial) {
  // NTT of a constant c is (N*c, 0, 0, ...): only the DC bin is nonzero.
  const NttParams p = NttParams::create(16);
  std::vector<std::uint32_t> a(16, 3);
  forward_ntt(a, p);
  EXPECT_EQ(a[0], mul_mod(16, 3, p.q()));
  for (std::size_t i = 1; i < 16; ++i) EXPECT_EQ(a[i], 0u);
}

TEST(KnownValues, DeltaTransformsToAllOnes) {
  const NttParams p = NttParams::create(16);
  std::vector<std::uint32_t> a(16, 0);
  a[0] = 1;
  forward_ntt(a, p);
  for (const auto x : a) EXPECT_EQ(x, 1u);
}

TEST(KnownValues, ShiftedDeltaGivesOmegaPowers) {
  const NttParams p = NttParams::create(32);
  std::vector<std::uint32_t> a(32, 0);
  a[1] = 1;  // x^1: NTT[k] = omega^k
  forward_ntt(a, p);
  for (std::size_t k = 0; k < 32; ++k) EXPECT_EQ(a[k], p.omega_pow(k));
}

TEST(GeometricScale, ScalesByGeometricSeries) {
  const std::uint32_t q = 97;
  std::vector<std::uint32_t> a{1, 1, 1, 1};
  geometric_scale(a, /*base=*/3, /*scale0=*/2, q);
  EXPECT_EQ(a, (std::vector<std::uint32_t>{2, 6, 18, 54}));
}

TEST(MultiplePrimes, SameInputDifferentModuli) {
  // The same dataflow must be correct for several moduli (the paper's
  // "arbitrary modulo" flexibility claim).
  for (const std::uint32_t q : {12289u, 40961u, 65537u, 998244353u}) {
    if ((q - 1) % 512 != 0) continue;
    const NttParams p(256, q);
    const auto input = random_poly(256, q, q);
    auto a = input;
    forward_ntt(a, p);
    EXPECT_EQ(a, naive_dft(input, p)) << "q=" << q;
  }
}

TEST(InputValidation, SizeMismatchThrows) {
  const NttParams p = NttParams::create(16);
  std::vector<std::uint32_t> wrong(8, 0);
  EXPECT_THROW(ntt_dit_bitrev_to_natural(wrong, p), std::invalid_argument);
  EXPECT_THROW(naive_dft(wrong, p), std::invalid_argument);
}

}  // namespace
}  // namespace nttpim::ntt
