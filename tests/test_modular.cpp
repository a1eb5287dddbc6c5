#include "ntt/modular.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/random.h"
#include "ntt/barrett.h"

namespace nttpim::ntt {
namespace {

constexpr std::uint64_t kPrimes[] = {3, 17, 97, 7681, 12289, 65537,
                                     998244353, 2147473409, 2130706433};

TEST(AddMod, WrapsCorrectly) {
  EXPECT_EQ(add_mod(3, 4, 5), 2u);
  EXPECT_EQ(add_mod(4, 0, 5), 4u);
  EXPECT_EQ(add_mod(4, 4, 5), 3u);
  EXPECT_EQ(add_mod(2147473408, 2147473408, 2147473409), 2147473407u);
}

TEST(SubMod, WrapsCorrectly) {
  EXPECT_EQ(sub_mod(3, 4, 5), 4u);
  EXPECT_EQ(sub_mod(0, 1, 97), 96u);
  EXPECT_EQ(sub_mod(50, 50, 97), 0u);
}

// The branch-free combine equals add_mod/sub_mod for a product t < q and
// every 32-bit a, reduced or not, up to the largest modulus the CU takes.
TEST(DitButterfly, MatchesAddModSubMod) {
  Rng rng(3);
  for (const std::uint32_t q : {3u, 12289u, 2147473409u, (1u << 31) - 1}) {
    std::vector<std::uint32_t> as = {0, 1, q - 1, q, ~0u};
    std::vector<std::uint32_t> ts = {0, 1, q - 1};
    for (int i = 0; i < 64; ++i) {
      as.push_back(static_cast<std::uint32_t>(rng.next_u64()));
      ts.push_back(static_cast<std::uint32_t>(rng.next_below(q)));
    }
    for (const std::uint32_t a : as) {
      for (const std::uint32_t t : ts) {
        std::uint32_t x = a;
        std::uint32_t y = 12345;  // overwritten: only a and t matter
        dit_butterfly(x, y, t, q);
        EXPECT_EQ(x, add_mod(a, t, q)) << "q=" << q << " a=" << a << " t=" << t;
        EXPECT_EQ(y, sub_mod(a, t, q)) << "q=" << q << " a=" << a << " t=" << t;
      }
    }
  }
}

TEST(MulMod, MatchesWideArithmetic) {
  Rng rng(2);
  for (const auto q : kPrimes) {
    for (int i = 0; i < 200; ++i) {
      const std::uint64_t a = rng.next_below(q);
      const std::uint64_t b = rng.next_below(q);
      const auto expected = static_cast<std::uint64_t>(
          static_cast<unsigned __int128>(a) * b % q);
      EXPECT_EQ(mul_mod(a, b, q), expected);
    }
  }
}

TEST(PowMod, SmallCases) {
  EXPECT_EQ(pow_mod(2, 10, 1000), 24u);
  EXPECT_EQ(pow_mod(5, 0, 7), 1u);
  EXPECT_EQ(pow_mod(0, 5, 7), 0u);
  EXPECT_EQ(pow_mod(3, 100, 7), pow_mod(3, 100 % 6, 7));  // Fermat
}

TEST(PowMod, FermatLittleTheorem) {
  Rng rng(3);
  for (const auto q : kPrimes) {
    for (int i = 0; i < 20; ++i) {
      const std::uint64_t a = 1 + rng.next_below(q - 1);
      EXPECT_EQ(pow_mod(a, q - 1, q), 1u) << "a=" << a << " q=" << q;
    }
  }
}

TEST(InvMod, ProducesInverses) {
  Rng rng(4);
  for (const auto q : kPrimes) {
    for (int i = 0; i < 20; ++i) {
      const std::uint64_t a = 1 + rng.next_below(q - 1);
      EXPECT_EQ(mul_mod(a, inv_mod(a, q), q), 1u);
    }
  }
}

TEST(InvMod, ZeroThrows) {
  EXPECT_THROW(inv_mod(0, 17), std::invalid_argument);
  EXPECT_THROW(inv_mod(34, 17), std::invalid_argument);
}

TEST(NegMod, Identities) {
  EXPECT_EQ(neg_mod(0, 17), 0u);
  EXPECT_EQ(neg_mod(5, 17), 12u);
  for (std::uint64_t a = 0; a < 17; ++a)
    EXPECT_EQ(add_mod(a, neg_mod(a, 17), 17), 0u);
}

// ---------------------------------------------------------------- Barrett

TEST(Barrett, ReduceMatchesModulo) {
  Rng rng(9);
  for (const auto q64 : kPrimes) {
    if (q64 < 3 || q64 >= (1ULL << 31)) continue;
    const auto q = static_cast<std::uint32_t>(q64);
    const Barrett32 barrett(q);
    for (int i = 0; i < 200; ++i) {
      const std::uint64_t x = rng.next_below(1ULL << 62);
      EXPECT_EQ(barrett.reduce(x), x % q);
    }
  }
}

TEST(Barrett, MulMatchesReference) {
  const std::uint32_t q = 2130706433;
  const Barrett32 barrett(q);
  Rng rng(10);
  for (int i = 0; i < 200; ++i) {
    const auto a = static_cast<std::uint32_t>(rng.next_below(q));
    const auto b = static_cast<std::uint32_t>(rng.next_below(q));
    EXPECT_EQ(barrett.mul(a, b), mul_mod(a, b, q));
  }
}

TEST(Barrett, ReduceExactOverFullUint64Range) {
  // The CU butterfly and the TFG reduce products of arbitrary 32-bit
  // operands (up to (2^32 - 1)^2), so exactness must hold beyond 2^62.
  Rng rng(11);
  for (const auto q64 : kPrimes) {
    if (q64 < 3 || q64 >= (1ULL << 31)) continue;
    const auto q = static_cast<std::uint32_t>(q64);
    const Barrett32 barrett(q);
    EXPECT_EQ(barrett.reduce(~std::uint64_t{0}), ~std::uint64_t{0} % q);
    for (int i = 0; i < 200; ++i) {
      const std::uint64_t x = rng.next_u64();
      EXPECT_EQ(barrett.reduce(x), x % q);
    }
  }
}

TEST(Barrett, RejectsBadModuli) {
  EXPECT_THROW(Barrett32(1), std::invalid_argument);
  EXPECT_THROW(Barrett32(0x80000001u), std::invalid_argument);
}

// Property sweep: Barrett (the CU's reducer) agrees with mul_mod on random
// pairs.
class ReductionAgreement : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(ReductionAgreement, AllPathsAgree) {
  const std::uint32_t q = GetParam();
  const Barrett32 barrett(q);
  Rng rng(q);
  for (int i = 0; i < 100; ++i) {
    const auto a = static_cast<std::uint32_t>(rng.next_below(q));
    const auto b = static_cast<std::uint32_t>(rng.next_below(q));
    EXPECT_EQ(barrett.mul(a, b), mul_mod(a, b, q));
  }
}

INSTANTIATE_TEST_SUITE_P(Moduli, ReductionAgreement,
                         ::testing::Values(3u, 17u, 7681u, 12289u, 65537u,
                                           998244353u, 2130706433u,
                                           2147473409u));

}  // namespace
}  // namespace nttpim::ntt
