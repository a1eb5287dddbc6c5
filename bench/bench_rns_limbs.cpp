// Multi-limb RNS scaling: heterogeneous NTT waves, one limb prime per bank.
//
// The RNS counterpart of bench_bank_parallel's homogeneous sweep: a full
// negacyclic product in R_Q with limbs in {1,2,3,4} on a device with one
// bank per limb. Each product is two heterogeneous engine passes (all
// forward transforms of both operands, then all inverse transforms), so
// multi-limb waves should scale like multi-bank waves — modeled cycles per
// product grow far slower than the limb count, while every bank runs a
// *different* NTT function (the paper's bank-heterogeneity claim).
//
// Like bench_bank_parallel, every figure is deterministic engine output,
// byte-identical on every run. `--json <path>` appends an
// "rns_limb_scaling" section to an existing BENCH_host.json-style object
// at <path> (or writes a standalone report).
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/random.h"
#include "common/table.h"
#include "fhe/cpu_backend.h"
#include "fhe/pim_backend.h"
#include "fhe/rns.h"
#include "fhe/rns_poly.h"

namespace {

using namespace nttpim;

constexpr std::size_t kN = 1024;
constexpr std::size_t kNumBuffers = 4;
constexpr std::size_t kProducts = 8;

struct LimbPoint {
  std::size_t limbs = 0;
  std::size_t products = 0;
  std::size_t transforms = 0;         ///< 3 * limbs per product
  std::uint64_t engine_passes = 0;    ///< 2 per product
  std::uint64_t modeled_cycles = 0;   ///< summed makespans of the waves
  double modeled_cycles_per_limb = 0; ///< cycles / (products * limbs)
  bool verified = false;
};


/// One sweep point: kProducts RNS products with `limbs` limbs on a device
/// with one bank per limb, verified against the CPU backend's result.
LimbPoint run_limbs(std::size_t limbs) {
  const fhe::RnsBasis basis(kN, limbs, 30);
  fhe::PimBackend backend(kNumBuffers, 1200.0, dram::hbm2e_geometry(limbs));
  fhe::CpuBackend cpu;

  LimbPoint p;
  p.limbs = limbs;
  p.products = kProducts;
  Rng rng(1000 + limbs);
  std::vector<std::vector<unsigned __int128>> as, bs, results;
  for (std::size_t i = 0; i < kProducts; ++i) {
    as.push_back(rng.wide_coeffs(kN, basis.modulus_product()));
    bs.push_back(rng.wide_coeffs(kN, basis.modulus_product()));
  }

  for (std::size_t i = 0; i < kProducts; ++i)
    results.push_back(fhe::rns_negacyclic_multiply(basis, as[i], bs[i],
                                                   backend));

  p.transforms = backend.transform_count();
  p.engine_passes = backend.engine_passes();
  p.modeled_cycles = backend.total_cycles();
  p.modeled_cycles_per_limb =
      static_cast<double>(p.modeled_cycles) /
      static_cast<double>(kProducts * limbs);

  p.verified = true;
  for (std::size_t i = 0; i < kProducts && p.verified; ++i)
    p.verified = results[i] ==
                 fhe::rns_negacyclic_multiply(basis, as[i], bs[i], cpu);
  return p;
}

std::vector<LimbPoint> sweep(bool& all_verified) {
  std::vector<LimbPoint> points;
  for (const std::size_t limbs : {1, 2, 3, 4}) {
    points.push_back(run_limbs(limbs));
    all_verified = all_verified && points.back().verified;
  }
  return points;
}

void write_section(bench::JsonWriter& json,
                   const std::vector<LimbPoint>& points) {
  json.begin_array("rns_limb_scaling");
  for (const auto& p : points) {
    json.begin_object();
    json.field("limbs", p.limbs);
    json.field("banks", p.limbs);
    json.field("n", kN);
    json.field("num_buffers", kNumBuffers);
    json.field("products", p.products);
    json.field("transforms", p.transforms);
    json.field("engine_passes", p.engine_passes);
    json.field("modeled_cycles_total", p.modeled_cycles);
    json.field("modeled_cycles_per_limb", p.modeled_cycles_per_limb);
    json.field("verified", p.verified);
    json.end_object();
  }
  json.end_array();
}

int run_json(const std::string& path) {
  bool all_verified = true;
  const auto points = sweep(all_verified);
  if (!all_verified) {
    std::cerr << "bench aborted: an RNS product failed verification "
                 "against the CPU backend\n";
    return 1;
  }
  // Append mode (shared with the other host benches): splice the section
  // into an existing BENCH_host.json-style object, or write standalone.
  return bench::write_host_sections(
      path, "bench_rns_limbs", {"rns_limb_scaling"},
      [&](bench::JsonWriter& json) { write_section(json, points); });
}

}  // namespace

constexpr const char* kUsage =
    "usage: bench_rns_limbs [--json [path]]\n"
    "  RNS multi-limb scaling: negacyclic products with limbs in {1,2,3,4},\n"
    "  one limb prime per bank, two heterogeneous engine passes per product.\n"
    "  --json [path]  append an rns_limb_scaling section to the\n"
    "                 BENCH_host.json-style object at path (or write a\n"
    "                 standalone report; \"-\"/no path = stdout)\n";

int main(int argc, char** argv) {
  const auto json_path = bench::consume_json_flag(argc, argv);
  bench::finish_flags(argc, argv, kUsage);
  if (json_path) return run_json(*json_path);

  bench::print_table1_header(
      "RNS multi-limb scaling (N = 1024, Nb = 4, one limb prime per bank)");

  bool all_verified = true;
  const auto points = sweep(all_verified);
  TablePrinter table({"limbs (=banks)", "products", "engine passes",
                      "modeled cycles", "cycles/limb", "verified"});
  for (const auto& p : points)
    table.add_row({std::to_string(p.limbs), std::to_string(p.products),
                   std::to_string(p.engine_passes),
                   std::to_string(p.modeled_cycles),
                   TablePrinter::num(p.modeled_cycles_per_limb, 1),
                   p.verified ? "YES" : "NO"});
  table.print(std::cout);
  std::cout << "\nEach product is two heterogeneous engine passes (all "
               "forward NTTs of both operands, then all inverse NTTs) with "
               "a different limb prime in every bank; cycles/limb falling "
               "with the limb count is bank-level parallelism applied to "
               "an RNS workload.\n";
  return all_verified ? EXIT_SUCCESS : EXIT_FAILURE;
}
