// RNS polynomial product with a different NTT per bank.
//
// The paper's row-centric design supports "running different NTT functions
// in each bank" — exactly how RNS-decomposed FHE workloads behave: a wide
// modulus Q = q1*q2*q3*q4 splits into four limb primes, every limb runs
// its own independent negacyclic NTT, and the limbs map one-to-one onto
// banks. This demo multiplies two polynomials of R_Q = Z_Q[X]/(X^256 + 1)
// on a 4-bank device:
//   wave 1: all 8 forward transforms (4 limbs x 2 operands, limb i of both
//           operands stacked in bank i) — ONE engine pass;
//   host:   pointwise limb products;
//   wave 2: all 4 inverse transforms — one more pass;
//   CRT:    recombine limbs into [0, Q).
// The result is checked bit-for-bit against a 128-bit CPU schoolbook
// negacyclic product.
#include <cstdlib>
#include <iostream>
#include <set>

#include "common/random.h"
#include "common/table.h"
#include "fhe/pim_backend.h"
#include "fhe/rns.h"
#include "fhe/rns_poly.h"
#include "ntt/poly.h"

int main() {
  using namespace nttpim;

  constexpr std::size_t kN = 256;
  constexpr std::size_t kLimbs = 4;
  const fhe::RnsBasis basis(kN, kLimbs, 30);

  Rng rng(2026);
  const auto a = rng.wide_coeffs(kN, basis.modulus_product());
  const auto b = rng.wide_coeffs(kN, basis.modulus_product());

  fhe::PimBackend backend(/*num_buffers=*/4, 1200.0,
                          dram::hbm2e_geometry(kLimbs));
  backend.set_record_waves(true);
  const auto product = fhe::rns_negacyclic_multiply(basis, a, b, backend);

  // 128-bit CPU schoolbook reference: per-limb O(N^2) negacyclic products,
  // CRT-recombined.
  const auto ra = basis.to_rns(a);
  const auto rb = basis.to_rns(b);
  std::vector<std::vector<std::uint32_t>> limbs(kLimbs);
  for (std::size_t i = 0; i < kLimbs; ++i)
    limbs[i] = ntt::negacyclic_convolution_schoolbook(ra[i], rb[i],
                                                      basis.prime(i));
  const bool ok = product == basis.from_rns(limbs);

  std::cout << "RNS negacyclic product in R_Q, N = " << kN << ", "
            << kLimbs << " limbs (Q ~ 2^120) on a " << backend.num_banks()
            << "-bank device:\n\n";
  TablePrinter table({"limb", "prime q_i", "banks used", "transforms"});
  for (std::size_t i = 0; i < kLimbs; ++i) {
    std::size_t count = 0;
    std::set<std::uint16_t> banks;
    for (const auto& wave : backend.recorded_waves())
      for (const auto& slot : wave.slots)
        if (slot.q == basis.prime(i)) {
          ++count;
          banks.insert(slot.bank);
        }
    std::string bank_list;
    for (const auto bank : banks)
      bank_list += (bank_list.empty() ? "" : ",") + std::to_string(bank);
    table.add_row({std::to_string(i), std::to_string(basis.prime(i)),
                   bank_list, std::to_string(count)});
  }
  table.print(std::cout);

  const auto& fwd = backend.recorded_waves().front();
  std::set<std::uint32_t> fwd_moduli;
  for (const auto& slot : fwd.slots) fwd_moduli.insert(slot.q);
  std::cout << "\nForward stage: " << fwd.slots.size()
            << " transforms, " << fwd_moduli.size()
            << " distinct moduli, one engine pass ("
            << fwd.trace.size() << " commands)\n"
            << "Engine passes total: " << backend.engine_passes()
            << " (forward wave + inverse wave)\n"
            << "Modeled: " << backend.total_cycles() << " cycles, "
            << TablePrinter::num(backend.total_us(), 2) << " us, "
            << TablePrinter::num(backend.total_energy_nj(), 1) << " nJ\n"
            << "Plan cache: " << backend.plan_cache_misses() << " misses, "
            << backend.plan_cache_hits() << " hits\n"
            << "Verified against 128-bit CPU schoolbook: "
            << (ok ? "YES" : "NO") << "\n";
  return ok ? EXIT_SUCCESS : EXIT_FAILURE;
}
