// Bank-level parallelism (paper Sec. VI.A / VII): an RNS-decomposed FHE
// workload runs one limb's NTT in each DRAM bank concurrently, sharing only
// the command bus. Prints the measured throughput speedup per bank count.
#include <iostream>

#include "common/random.h"
#include "common/table.h"
#include "dram/config.h"
#include "fhe/pim_backend.h"
#include "fhe/rns.h"
#include "ntt/negacyclic.h"

int main(int argc, char** argv) {
  using namespace nttpim;
  const std::size_t n = argc > 1 ? std::stoul(argv[1]) : 2048;

  // The FHE framing: a 4-limb RNS ciphertext needs 4 independent NTTs —
  // one per bank. (A wave's item j takes limb j % 4 at any bank count.)
  const fhe::RnsBasis basis(n, 4, 30);
  std::cout << "RNS basis for N=" << n << ": ";
  for (std::size_t i = 0; i < basis.limb_count(); ++i)
    std::cout << basis.prime(i) << (i + 1 < basis.limb_count() ? ", " : "\n");
  std::cout << "Each limb's NTT maps to its own bank.\n\n";

  TablePrinter table(
      {"banks (limbs)", "makespan (us)", "speedup", "efficiency"});
  Rng rng(42);
  double single_bank_cycles = 0;
  for (const std::size_t banks : {1, 2, 4, 8}) {
    fhe::PimBackend pim(4, 1200.0, dram::hbm2e_geometry(banks));
    std::vector<std::vector<std::uint32_t>> polys(banks);
    std::vector<fhe::BatchItem> items;
    for (std::size_t j = 0; j < banks; ++j) {
      const ntt::NttParams& params = basis.params(j % basis.limb_count());
      polys[j] = rng.residues(n, params.q());
      items.push_back({&polys[j], &params, false});
    }
    auto expected = polys;
    for (std::size_t j = 0; j < banks; ++j)
      ntt::forward_negacyclic_ntt(expected[j], *items[j].params);
    pim.transform_batch_mixed(items);  // one engine pass, one item per bank
    if (polys != expected) {
      std::cerr << "verification FAILED\n";
      return 1;
    }
    const auto cycles = static_cast<double>(pim.total_cycles());
    if (banks == 1) single_bank_cycles = cycles;
    const double speedup =
        static_cast<double>(banks) * single_bank_cycles / cycles;
    table.add_row(
        {std::to_string(banks), TablePrinter::num(pim.total_us()),
         TablePrinter::num(speedup),
         TablePrinter::num(speedup / static_cast<double>(banks) * 100.0, 1) +
             "%"});
  }
  table.print(std::cout);
  std::cout << "\nAll banks' results verified against the reference NTT.\n";
  return 0;
}
