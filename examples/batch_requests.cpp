// Batched NTT requests, two ways:
//  1. Mixed moduli in one bank: three polynomials with *different sizes
//     and moduli* go to a 1-bank device as one heterogeneous wave
//     (PimBackend::transform_batch_mixed). The backend stacks them at
//     disjoint base rows and runs them back-to-back in a single engine
//     pass; each item's PARAM prologue re-parameterizes the CU between
//     calls (the flexibility MeNTT/CryptoPIM lack, Sec. VI.E).
//  2. Through the throughput-shaped FHE backend: PimBackend::transform_batch
//     runs a pile of same-parameter polynomials as one wave on a
//     multi-bank device: items rotate across the banks, a bank's further
//     items stack at disjoint base rows, and the whole pile is one stacked
//     engine pass — bank-level parallelism end-to-end.
#include <cstdlib>
#include <iostream>

#include "common/random.h"
#include "common/table.h"
#include "fhe/pim_backend.h"
#include "ntt/negacyclic.h"

namespace {

// Part 2: batched same-parameter transforms, one stacked pass on 4 banks.
int run_backend_batch() {
  using namespace nttpim;

  const ntt::NttParams params = ntt::NttParams::create(1024, 30);
  fhe::PimBackend backend(/*num_buffers=*/4, 1200.0,
                          dram::hbm2e_geometry(4));

  Rng rng(11);
  std::vector<std::vector<std::uint32_t>> polys(10);
  std::vector<std::vector<std::uint32_t>> expected(10);
  for (std::size_t i = 0; i < polys.size(); ++i) {
    polys[i] = rng.residues(1024, params.q());
    expected[i] = polys[i];
    ntt::forward_negacyclic_ntt(expected[i], params);
  }

  backend.transform_batch(polys, params);

  const bool ok = polys == expected;
  std::cout << "\nBatched backend: 10 forward negacyclic NTTs (N = 1024) "
               "over 4 banks:\n  "
            << backend.engine_passes() << " stacked engine pass, "
            << backend.total_cycles() << " modeled cycles total, plan cache "
            << backend.plan_cache_misses() << " misses / "
            << backend.plan_cache_hits() << " hits, verified: "
            << (ok ? "YES" : "NO") << "\n";
  return ok ? EXIT_SUCCESS : EXIT_FAILURE;
}

}  // namespace

int main() {
  using namespace nttpim;

  // Part 1: three items, different sizes and moduli, one bank, one pass.
  fhe::PimBackend backend(/*num_buffers=*/4, 1200.0, dram::hbm2e_geometry(1));
  const ntt::NttParams params[] = {ntt::NttParams::create(512, 31),
                                   ntt::NttParams::create(1024, 30),
                                   ntt::NttParams::create(256, 29)};

  Rng rng(7);
  std::vector<std::vector<std::uint32_t>> polys;
  std::vector<std::vector<std::uint32_t>> expected;
  for (const auto& p : params) {
    polys.push_back(rng.residues(p.n(), p.q()));
    expected.push_back(polys.back());
    ntt::forward_negacyclic_ntt(expected.back(), p);
  }
  std::vector<fhe::BatchItem> items;
  for (std::size_t i = 0; i < polys.size(); ++i)
    items.push_back({&polys[i], &params[i], false});
  backend.transform_batch_mixed(items);

  TablePrinter table({"N", "q", "base row", "verified"});
  bool all_ok = true;
  for (std::size_t i = 0; i < polys.size(); ++i) {
    const bool ok = polys[i] == expected[i];
    all_ok = all_ok && ok;
    table.add_row({std::to_string(params[i].n()),
                   std::to_string(params[i].q()),
                   std::to_string(backend.last_wave()[i].base_row),
                   ok ? "YES" : "NO"});
  }

  std::cout << "Batched NTT requests on one bank (one engine pass):\n\n";
  table.print(std::cout);
  std::cout << "\nTotal: " << backend.engine_passes() << " engine pass, "
            << backend.total_cycles() << " cycles (" << backend.total_us()
            << " us)\n";
  if (!all_ok) return EXIT_FAILURE;
  return run_backend_batch();
}
