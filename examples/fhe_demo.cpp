// End-to-end FHE demo on NTT-PIM: BFV keygen -> encrypt -> homomorphic
// add & multiply -> decrypt, with every NTT routed through the simulated
// PIM device. This is the application story of the paper's introduction:
// FHE's dominant kernel (NTT) offloaded into memory.
#include <cstdlib>
#include <iostream>

#include "common/random.h"
#include "fhe/bfv.h"
#include "fhe/pim_backend.h"

int main() {
  using namespace nttpim;

  fhe::BfvParams params;
  params.n = 256;
  params.t = 5;
  params.noise_bound = 2;

  fhe::PimBackend pim(/*num_buffers=*/4);
  fhe::Bfv bfv(params, pim, /*seed=*/99);

  std::cout << "Toy BFV on NTT-PIM\n"
            << "  ring          : Z_" << bfv.ntt_params().q() << "[X]/(X^"
            << params.n << " + 1)\n"
            << "  plaintext mod : " << params.t << "\n"
            << "  Delta (q/t)   : " << bfv.delta() << "\n\n";

  Rng rng(123);
  const auto m1 = rng.residues(params.n, params.t);
  const auto m2 = rng.residues(params.n, params.t);

  const auto ct1 = bfv.encrypt(m1);
  const auto ct2 = bfv.encrypt(m2);

  const bool fresh_ok = bfv.decrypt(ct1) == m1;

  // Homomorphic addition.
  const auto sum = bfv.add(ct1, ct2);
  auto expected_sum = m1;
  for (std::size_t i = 0; i < params.n; ++i)
    expected_sum[i] = (m1[i] + m2[i]) % params.t;
  const bool add_ok = bfv.decrypt(sum) == expected_sum;

  // Homomorphic multiplication (degree-2 ciphertext, no relinearization).
  const auto product = bfv.multiply(ct1, ct2);
  const bool mul_ok = bfv.decrypt(product) == bfv.plaintext_multiply(m1, m2);

  std::cout << "  decrypt(ct1)        == m1       : "
            << (fresh_ok ? "YES" : "NO") << "\n"
            << "  decrypt(ct1 + ct2)  == m1 + m2  : "
            << (add_ok ? "YES" : "NO") << "\n"
            << "  decrypt(ct1 * ct2)  == m1 * m2  : "
            << (mul_ok ? "YES" : "NO") << "\n"
            << "  fresh-ct noise magnitude        : "
            << bfv.noise_magnitude(ct1, m1) << " (budget limit "
            << bfv.ntt_params().q() / (2 * params.t) << ")\n\n"
            << "PIM work performed:\n"
            << "  NTT invocations  : " << pim.transform_count() << "\n"
            << "  simulated cycles : " << pim.total_cycles() << "\n"
            << "  simulated time   : " << pim.total_us() << " us\n"
            << "  simulated energy : " << pim.total_energy_nj() / 1e3
            << " uJ\n";

  return fresh_ok && add_ok && mul_ok ? EXIT_SUCCESS : EXIT_FAILURE;
}
