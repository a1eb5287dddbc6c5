#include "ntt/params.h"

#include <gtest/gtest.h>

#include "ntt/modular.h"
#include "ntt/primes.h"

namespace nttpim::ntt {
namespace {

class ParamsInvariants : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ParamsInvariants, RootsAndInversesConsistent) {
  const std::size_t n = GetParam();
  const NttParams p = NttParams::create(n);
  const std::uint64_t q = p.q();

  EXPECT_TRUE(is_prime(q));
  EXPECT_EQ(q % (2 * n), 1u);

  // omega has order n, psi has order 2n, psi^2 == omega.
  EXPECT_TRUE(has_order(p.omega(), n, q));
  EXPECT_TRUE(has_order(p.psi(), 2 * n, q));
  EXPECT_EQ(mul_mod(p.psi(), p.psi(), q), p.omega());

  // Inverses really invert.
  EXPECT_EQ(mul_mod(p.omega(), p.omega_inv(), q), 1u);
  EXPECT_EQ(mul_mod(p.psi(), p.psi_inv(), q), 1u);
  EXPECT_EQ(mul_mod(n % q, p.n_inv(), q), 1u);

  // psi^n == -1 (the negacyclic sign).
  EXPECT_EQ(pow_mod(p.psi(), n, q), q - 1);
}

TEST_P(ParamsInvariants, StageStepsAreSquares) {
  const std::size_t n = GetParam();
  const NttParams p = NttParams::create(n);
  // w_{s-1} = w_s^2: each earlier stage's step is the square of the next.
  for (unsigned s = 2; s <= p.log2n(); ++s) {
    EXPECT_EQ(mul_mod(p.stage_step(s), p.stage_step(s), p.q()),
              p.stage_step(s - 1));
  }
  // Last stage step is omega itself; first is -1.
  EXPECT_EQ(p.stage_step(p.log2n()), p.omega());
  EXPECT_EQ(p.stage_step(1), p.q() - 1);
}

INSTANTIATE_TEST_SUITE_P(Sizes, ParamsInvariants,
                         ::testing::Values(2, 4, 8, 16, 64, 256, 1024, 4096,
                                           8192));

TEST(Params, ExplicitModulus) {
  const NttParams p(256, 12289);
  EXPECT_EQ(p.q(), 12289u);
  EXPECT_TRUE(has_order(p.omega(), 256, 12289));
}

TEST(Params, RejectsInvalidArguments) {
  EXPECT_THROW(NttParams(100, 12289), std::invalid_argument);  // not pow2
  EXPECT_THROW(NttParams(256, 12288), std::invalid_argument);  // composite
  EXPECT_THROW(NttParams(8192, 12289), std::invalid_argument); // 2n ∤ q-1
  EXPECT_THROW(NttParams(1, 12289), std::invalid_argument);    // n < 2
}

TEST(Params, StageStepRangeChecked) {
  const NttParams p = NttParams::create(16);
  EXPECT_THROW(p.stage_step(0), std::invalid_argument);
  EXPECT_THROW(p.stage_step(5), std::invalid_argument);
}

}  // namespace
}  // namespace nttpim::ntt
