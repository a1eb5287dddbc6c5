// Seeded differential tests of the host's served arithmetic against the
// plain oracles: the table-driven negacyclic kernels (ntt/tables.h) against
// forward_negacyclic_ntt / inverse_negacyclic_ntt, and the Shoup multiply
// (ntt/shoup.h) against mul_mod.
#include "ntt/tables.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/random.h"
#include "ntt/modular.h"
#include "ntt/negacyclic.h"
#include "ntt/params.h"
#include "ntt/primes.h"
#include "ntt/shoup.h"

namespace nttpim::ntt {
namespace {

/// The inputs each (n, q) runs: random residues, all 0 and all q - 1.
std::vector<std::pair<std::string, std::vector<std::uint32_t>>> inputs(
    std::size_t n, std::uint32_t q, Rng& rng) {
  return {{"random", rng.residues(n, q)},
          {"zeros", std::vector<std::uint32_t>(n, 0)},
          {"q-1", std::vector<std::uint32_t>(n, q - 1)}};
}

// Every power-of-two n from 2 to 4096 at the two largest 30-bit and the two
// largest 31-bit NTT primes: both table kernels and the PIM staging's psi
// pre-scale are bit-identical to the oracles.
TEST(NttTablesProperty, KernelsMatchThePlainTransforms) {
  Rng rng(32);
  for (std::size_t n = 2; n <= 4096; n *= 2) {
    for (const unsigned bits : {30u, 31u}) {
      for (const std::uint32_t q : find_ntt_primes(n, bits, 2)) {
        const NttParams params(n, q);
        const NttTables& tables = params.tables();
        for (const auto& [name, input] : inputs(n, q, rng)) {
          SCOPED_TRACE("n=" + std::to_string(n) + " q=" + std::to_string(q) +
                       " input=" + name);
          auto expected = input;
          forward_negacyclic_ntt(expected, params);
          auto got = input;
          tables.forward_negacyclic(got);
          ASSERT_EQ(got, expected) << "forward";

          expected = input;
          inverse_negacyclic_ntt(expected, params);
          got = input;
          tables.inverse_negacyclic(got);
          ASSERT_EQ(got, expected) << "inverse";

          expected = input;
          geometric_scale(expected, params.psi(), 1, q);
          std::vector<std::uint32_t> scaled(n);
          tables.psi_scale(input, scaled);
          ASSERT_EQ(scaled, expected) << "psi scale";
        }
      }
    }
  }
}

// a and w at the edges {0, 1, q - 1} of the largest modulus the CU takes,
// 2^31 - 1 (prime, and the top of the BU datapath's (1, 2^31) range).
// There 4q exceeds 2^32, so a lazy [0, 4q) butterfly cannot hold its
// operands in 32-bit lanes; shoup_mul reduces fully on every call.
TEST(ShoupMul, EdgeOperandsMatchMulModAtTheLargestModulus) {
  constexpr std::uint32_t q = (1u << 31) - 1;
  EXPECT_GT(4 * std::uint64_t{q}, std::uint64_t{1} << 32);
  const std::uint32_t edges[] = {0, 1, q - 1};
  for (const std::uint32_t w : edges) {
    const ShoupMul ws = make_shoup(w, q);
    for (const std::uint32_t a : edges)
      EXPECT_EQ(shoup_mul(a, ws, q), mul_mod(a, w, q))
          << "a=" << a << " w=" << w;
    // Exact for any 32-bit a, not just residues.
    EXPECT_EQ(shoup_mul(~0u, ws, q), mul_mod(~0u, w, q)) << "w=" << w;
  }
}

TEST(ShoupMul, RandomOperandsMatchMulMod) {
  Rng rng(33);
  for (const std::uint32_t q :
       {3u, 12289u, 998244353u, 2013265921u, (1u << 31) - 1}) {
    for (int i = 0; i < 2000; ++i) {
      const std::uint32_t w = rng.next_mod(q);
      const auto a = static_cast<std::uint32_t>(rng.next_u64());
      EXPECT_EQ(shoup_mul(a, make_shoup(w, q), q), mul_mod(a, w, q))
          << "q=" << q << " a=" << a << " w=" << w;
    }
  }
}

}  // namespace
}  // namespace nttpim::ntt
