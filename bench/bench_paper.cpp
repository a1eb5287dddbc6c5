// The paper's tables, figures and ablations as one checked record, and
// BENCH_host.json's only writer.
//
// Each group below is one claim: a quantity over a set of parameter points,
// the paper's value or stated claim, and one band. Each row is one point:
// the simulated value, the paper's value where the paper gives one, and the
// checked value, which is simulated / paper, or the simulated value itself
// where the paper states only a claim. A row outside its group's band, or a
// simulation whose result differs from the reference transform, fails the
// run (exit 1).
//
// Band rule. Where the paper states a band, the group checks that band.
// Otherwise the band is the group's minimum and maximum checked value when
// the band was committed, widened by 3% each way and rounded outward to two
// decimals. A change that drifts from the paper fails; a change that moves
// closer to it updates the band on purpose.
//
// Two modeled sweeps extend the paper's single-bank figures to several
// banks sharing one command bus (Sec. VI.A and the future-work note in
// Sec. VII). They carry no band; every result in them is verified:
//  - modeled_bank_scaling: one wave of independent N = 1024 forward
//    transforms, one per bank, on 1-16 banks;
//  - rns_limb_scaling: RNS negacyclic products with 1-4 limbs, one limb
//    prime per bank, each two heterogeneous engine passes (every bank runs
//    a different NTT function).
//
// `--json <path>` also writes the whole record (architecture, the two
// sweeps and paper_record) as BENCH_host.json. The path must be a file: the
// tables use stdout, so `-` is refused. Every value is modeled, so two runs
// write the same bytes; ctest `paper_record` regenerates the file and
// compares it byte for byte with the committed one.
//
// The model stands in for the paper's tools: the energy constants
// (dram/energy.h) are calibrated, and the area model (model/area.h) is
// analytical. The related-work rows are the paper's quoted numbers
// (model/baselines.h); no hardware exists to re-run them.
#include <algorithm>
#include <compare>
#include <cstdlib>
#include <iomanip>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/random.h"
#include "common/table.h"
#include "dram/config.h"
#include "fhe/cpu_backend.h"
#include "fhe/pim_backend.h"
#include "fhe/rns.h"
#include "fhe/rns_poly.h"
#include "model/area.h"
#include "model/baselines.h"
#include "ntt/negacyclic.h"
#include "sim/runner.h"

namespace {

using namespace nttpim;

/// The knobs the record turns; everything else is sim::NttRunConfig's
/// default (Table I timing, seed 42, the largest 31-bit NTT prime).
struct Point {
  std::size_t n = 0;
  std::size_t nb = 0;
  double mhz = 1200.0;
  bool pipelined = true;
  bool in_place = true;
  bool row_centric = true;
  bool refresh = true;
  bool inverse_negacyclic = false;
  auto operator<=>(const Point&) const = default;
};

/// Simulates each distinct point once and remembers whether every run
/// matched the reference transform.
class Simulator {
 public:
  const sim::NttRunResult& run(const Point& p) {
    auto it = runs_.find(p);
    if (it != runs_.end()) return it->second;
    sim::NttRunConfig config;
    config.n = p.n;
    config.num_buffers = p.nb;
    config.freq_mhz = p.mhz;
    config.pipelined = p.pipelined;
    config.in_place = p.in_place;
    config.row_centric = p.row_centric;
    config.enable_refresh = p.refresh;
    if (p.inverse_negacyclic) {
      config.direction = mapping::Direction::kInverse;
      config.negacyclic = true;
    }
    it = runs_.emplace(p, sim::run_ntt_on_pim(config)).first;
    if (!it->second.verified) {
      std::cerr << "verification FAILED for N=" << p.n << " Nb=" << p.nb
                << "\n";
      all_verified_ = false;
    }
    return it->second;
  }

  double us(const Point& p) { return run(p).latency_us; }
  double cycles(const Point& p) {
    return static_cast<double>(run(p).stats.cycles);
  }
  double acts(const Point& p) {
    return static_cast<double>(run(p).stats.activations);
  }
  bool all_verified() const { return all_verified_; }

 private:
  std::map<Point, sim::NttRunResult> runs_;
  bool all_verified_ = true;
};

/// One row's values; `paper` is absent where the paper gives none.
struct Value {
  double simulated = 0;
  std::optional<double> paper = std::nullopt;
};

/// One claim: a row per (N, Nb) point, each checked against [lo, hi].
struct Group {
  const char* quantity;  ///< figure and what `simulated` measures
  const char* claim;     ///< the paper's value or stated claim
  double lo = 0;
  double hi = 0;
  std::vector<std::size_t> sizes;  ///< N; {0} where N does not apply
  std::vector<std::size_t> nbs;
  Value (*value)(Simulator&, std::size_t n, std::size_t nb) = nullptr;
};

// table3_designs() order: MeNTT, CryptoPIM, x86 CPU (paper), FPGA.
const model::ReferenceDesign& design(std::size_t i) {
  return model::table3_designs()[i];
}

const std::vector<std::size_t> kTable3Sizes = {256, 512, 1024, 2048, 4096};
const std::vector<std::size_t> kFig7Sizes = {256,  512,  1024,
                                             2048, 4096, 8192};
const std::vector<std::size_t> kAblationSizes = {256, 1024, 4096};

Value pipelining_speedup(Simulator& sim, std::size_t n, std::size_t nb) {
  return {sim.cycles({.n = n, .nb = nb, .pipelined = false}) /
          sim.cycles({.n = n, .nb = nb})};
}

const Group kGroups[] = {
    {"Table II: NTT-PIM area (mm^2), model / paper", "Table II", 0.96, 1.03,
     {0}, {1, 2, 4, 6},
     [](Simulator&, std::size_t, std::size_t nb) -> Value {
       const std::map<std::size_t, double> paper = {
           {1, 0.0213}, {2, 0.0232}, {4, 0.0263}, {6, 0.0285}};
       return {model::AreaModel().nttpim_area(nb).total_mm2, paper.at(nb)};
     }},
    {"Table III: latency (us), simulated / paper", "Table III, NTT-PIM rows",
     0.78, 0.97, kTable3Sizes, {2, 4, 6},
     [](Simulator& sim, std::size_t n, std::size_t nb) -> Value {
       return {sim.us({.n = n, .nb = nb}),
               model::paper_nttpim(nb).latency_at(n)};
     }},
    {"Table III: energy (uJ), simulated / paper", "Table III, NTT-PIM rows",
     0.63, 1.33, kTable3Sizes, {2, 4},
     [](Simulator& sim, std::size_t n, std::size_t nb) -> Value {
       return {sim.run({.n = n, .nb = nb}).energy_nj / 1e3,
               model::paper_nttpim(nb).energy_at(n)};
     }},
    {"Table III: speedup over the best previous PIM, by reported latency",
     "1.7x-17x over MeNTT and CryptoPIM (abstract)", 1.7, 17.0,
     kTable3Sizes, {6},
     [](Simulator& sim, std::size_t n, std::size_t nb) -> Value {
       // CryptoPIM reports every N; MeNTT stops at 1024.
       const double best = std::min(design(1).latency_at(n).value(),
                                    design(0).latency_at(n).value_or(1e300));
       return {best / sim.us({.n = n, .nb = nb})};
     }},
    {"Fig. 7: Nb=1 / Nb=2 latency",
     "one auxiliary buffer buys an order of magnitude", 9.67, 14.72,
     kFig7Sizes, {2},
     [](Simulator& sim, std::size_t n, std::size_t nb) -> Value {
       return {sim.us({.n = n, .nb = 1}) / sim.us({.n = n, .nb = nb})};
     }},
    {"Fig. 7: Nb=1 latency (us) / the paper's x86 row",
     "Nb=1 is no better than software", 0.59, 1.40, kTable3Sizes, {1},
     [](Simulator& sim, std::size_t n, std::size_t nb) -> Value {
       return {sim.us({.n = n, .nb = nb}), design(2).latency_at(n)};
     }},
    {"Fig. 7: Nb=2 / Nb=6 latency", "extra buffers give 1.5x-2.5x", 1.5, 2.5,
     kFig7Sizes, {6},
     [](Simulator& sim, std::size_t n, std::size_t nb) -> Value {
       return {sim.us({.n = n, .nb = 2}) / sim.us({.n = n, .nb = nb})};
     }},
    {"Fig. 8: 300 / 1200 MHz latency, simulated / paper",
     "~1.65x at a 4x slower clock for long polynomials", 0.89, 0.98,
     {4096, 8192}, {2},
     [](Simulator& sim, std::size_t n, std::size_t nb) -> Value {
       return {sim.us({.n = n, .nb = nb, .mhz = 300}) /
                   sim.us({.n = n, .nb = nb}),
               1.65};
     }},
    {"Fig. 8: 300 / 1200 MHz latency below N = 4096",
     "none; the paper quotes long polynomials only", 1.56, 2.35,
     {256, 512, 1024, 2048}, {2},
     [](Simulator& sim, std::size_t n, std::size_t nb) -> Value {
       return {sim.us({.n = n, .nb = nb, .mhz = 300}) /
               sim.us({.n = n, .nb = nb})};
     }},
    {"Fig. 6: pipelining speedup (cycles w/o / w/) at Nb=2",
     "one buffer pair leaves C2 phases nothing to overlap", 1.00, 1.25,
     kAblationSizes, {2}, pipelining_speedup},
    {"Fig. 6: pipelining speedup (cycles w/o / w/) at Nb=4 and 6",
     "pipelining over all Nb buffers overlaps transfers with compute", 1.77,
     2.63, kAblationSizes, {4, 6}, pipelining_speedup},
    {"Fig. 6: pipelining ACT reduction (ACTs w/o / w/) at Nb=4 and 6",
     "grouping same-row accesses removes activations (inter-row regime)",
     1.88, 2.88, {1024, 4096}, {4, 6},
     [](Simulator& sim, std::size_t n, std::size_t nb) -> Value {
       return {sim.acts({.n = n, .nb = nb, .pipelined = false}) /
               sim.acts({.n = n, .nb = nb})};
     }},
    {"Sec. III.C: shadow / in-place cycles",
     "in-place update removes the need for an output region", 1.54, 2.11,
     kTable3Sizes, {4},
     [](Simulator& sim, std::size_t n, std::size_t nb) -> Value {
       return {sim.cycles({.n = n, .nb = nb, .in_place = false}) /
               sim.cycles({.n = n, .nb = nb})};
     }},
    {"Sec. IV.B: stage-wise / row-block cycles",
     "vertical row blocks avoid re-activating rows per intra-row stage",
     1.00, 1.10, {512, 1024, 2048, 4096, 8192}, {4},
     [](Simulator& sim, std::size_t n, std::size_t nb) -> Value {
       return {sim.cycles({.n = n, .nb = nb, .row_centric = false}) /
               sim.cycles({.n = n, .nb = nb})};
     }},
    {"Refresh on / off cycles (tREFI 3.9 us, tRFC 350 ns)",
     "none; refresh is a simulation-fidelity term", 1.06, 1.14,
     {1024, 4096, 8192}, {2},
     [](Simulator& sim, std::size_t n, std::size_t nb) -> Value {
       return {sim.cycles({.n = n, .nb = nb}) /
               sim.cycles({.n = n, .nb = nb, .refresh = false})};
     }},
    {"Extension: inverse negacyclic / forward latency",
     "none; the paper evaluates the forward NTT only", 1.08, 1.35,
     kAblationSizes, {4},
     [](Simulator& sim, std::size_t n, std::size_t nb) -> Value {
       return {sim.us({.n = n, .nb = nb, .inverse_negacyclic = true}) /
               sim.us({.n = n, .nb = nb})};
     }},
};

/// Six significant digits: every paper value prints as quoted, from
/// 0.0213 mm^2 to 1503.31 us.
std::string sig6(double v) {
  std::ostringstream os;
  os << std::setprecision(6) << v;
  return os.str();
}

/// One evaluated row of a group.
struct Row {
  std::string point;  ///< "N=1024 Nb=4", or "Nb=4" where N does not apply
  Value value;
  double checked = 0;
  bool ok = false;
};

std::vector<Row> evaluate(const Group& g, Simulator& sim) {
  std::vector<Row> rows;
  for (const std::size_t n : g.sizes) {
    for (const std::size_t nb : g.nbs) {
      const Value v = g.value(sim, n, nb);
      const double c = v.paper ? v.simulated / *v.paper : v.simulated;
      rows.push_back({(n != 0 ? "N=" + std::to_string(n) + " " : "") +
                          "Nb=" + std::to_string(nb),
                      v, c, c >= g.lo && c <= g.hi});
    }
  }
  return rows;
}

/// Prints every group's rows, then one summary line per group. Returns the
/// number of rows outside their band.
std::size_t print_record(const std::vector<std::vector<Row>>& record) {
  TablePrinter summary(
      {"group", "rows", "checked min", "checked max", "band", "status"});
  std::size_t outside = 0;
  for (std::size_t i = 0; i < record.size(); ++i) {
    const Group& g = kGroups[i];
    const std::string band =
        "[" + TablePrinter::num(g.lo) + ", " + TablePrinter::num(g.hi) + "]";
    std::cout << g.quantity << "\n  paper: " << g.claim << "\n  band: " << band
              << "\n";
    TablePrinter table({"point", "simulated", "paper", "checked", "status"});
    for (const Row& r : record[i]) {
      outside += r.ok ? 0 : 1;
      table.add_row({r.point, sig6(r.value.simulated),
                     r.value.paper ? sig6(*r.value.paper) : "-",
                     TablePrinter::num(r.checked, 3), r.ok ? "ok" : "OUTSIDE"});
    }
    table.print(std::cout);
    std::cout << "\n";
    const auto [lo, hi] = std::minmax_element(
        record[i].begin(), record[i].end(),
        [](const Row& a, const Row& b) { return a.checked < b.checked; });
    const bool group_ok = lo->checked >= g.lo && hi->checked <= g.hi;
    summary.add_row({g.quantity, std::to_string(record[i].size()),
                     TablePrinter::num(lo->checked, 3),
                     TablePrinter::num(hi->checked, 3), band,
                     group_ok ? "ok" : "OUTSIDE"});
  }
  summary.print(std::cout);
  return outside;
}

void write_record(bench::JsonWriter& json,
                  const std::vector<std::vector<Row>>& record) {
  json.begin_array("paper_record");
  for (std::size_t i = 0; i < record.size(); ++i) {
    const Group& g = kGroups[i];
    json.begin_object();
    json.field("quantity", g.quantity);
    json.field("claim", g.claim);
    json.begin_object("band");
    json.field("lo", g.lo);
    json.field("hi", g.hi);
    json.end_object();
    json.begin_array("rows");
    for (const Row& r : record[i]) {
      json.begin_object();
      json.field("point", std::string_view(r.point));
      json.field("simulated", r.value.simulated);
      if (r.value.paper) json.field("paper", *r.value.paper);
      json.field("checked", r.checked);
      json.field("ok", r.ok);
      json.end_object();
    }
    json.end_array();
    json.end_object();
  }
  json.end_array();
}

// ------------------------------------------------------- modeled sweeps

constexpr std::size_t kSweepN = 1024;
constexpr std::size_t kSweepBuffers = 4;

struct BankPoint {
  std::size_t banks = 0;
  std::uint64_t cycles = 0;       ///< makespan of one wave, one item per bank
  double throughput_speedup = 0;  ///< banks * (1-bank makespan) / makespan
  bool verified = false;
};

/// Per point, one wave of `banks` independent forward transforms on a
/// `banks`-bank device, every result checked against the reference
/// transform. The first point is the single bank every speedup is
/// measured against.
std::vector<BankPoint> bank_scaling() {
  const auto params = ntt::NttParams::create(kSweepN);
  Rng rng(42);
  std::vector<BankPoint> points;
  for (const std::size_t banks : {1, 2, 4, 8, 16}) {
    fhe::PimBackend pim(kSweepBuffers, 1200.0, dram::hbm2e_geometry(banks));
    std::vector<std::vector<std::uint32_t>> polys(banks);
    for (auto& poly : polys) poly = rng.residues(kSweepN, params.q());
    auto expected = polys;
    for (auto& poly : expected) ntt::forward_negacyclic_ntt(poly, params);
    pim.transform_batch(polys, params);
    const std::uint64_t cycles = pim.total_cycles();
    const std::uint64_t single = points.empty() ? cycles : points[0].cycles;
    points.push_back({banks, cycles,
                      static_cast<double>(banks) *
                          static_cast<double>(single) /
                          static_cast<double>(cycles),
                      polys == expected});
  }
  return points;
}

struct LimbPoint {
  std::size_t limbs = 0;
  std::size_t products = 0;
  std::size_t transforms = 0;          ///< 3 * limbs per product
  std::uint64_t engine_passes = 0;     ///< 2 per product
  std::uint64_t modeled_cycles = 0;    ///< summed makespans of the waves
  double modeled_cycles_per_limb = 0;  ///< cycles / (products * limbs)
  bool verified = false;
};

/// Per point, 8 RNS products with `limbs` limbs on a device with one bank
/// per limb, each checked against the CPU backend's product.
std::vector<LimbPoint> rns_limb_scaling() {
  constexpr std::size_t kProducts = 8;
  std::vector<LimbPoint> points;
  for (const std::size_t limbs : {1, 2, 3, 4}) {
    const fhe::RnsBasis basis(kSweepN, limbs, 30);
    fhe::PimBackend pim(kSweepBuffers, 1200.0, dram::hbm2e_geometry(limbs));
    fhe::CpuBackend cpu;
    Rng rng(1000 + limbs);
    bool verified = true;
    for (std::size_t i = 0; i < kProducts; ++i) {
      const auto a = rng.wide_coeffs(kSweepN, basis.modulus_product());
      const auto b = rng.wide_coeffs(kSweepN, basis.modulus_product());
      const auto product = fhe::rns_negacyclic_multiply(basis, a, b, pim);
      verified = verified &&
                 product == fhe::rns_negacyclic_multiply(basis, a, b, cpu);
    }
    points.push_back({limbs, kProducts, pim.transform_count(),
                      pim.engine_passes(), pim.total_cycles(),
                      static_cast<double>(pim.total_cycles()) /
                          static_cast<double>(kProducts * limbs),
                      verified});
  }
  return points;
}

void print_sweeps(const std::vector<BankPoint>& banks,
                  const std::vector<LimbPoint>& limbs) {
  std::cout << "Bank-level parallelism (N = 1024, Nb = 4, one NTT per bank)\n";
  TablePrinter bank_table({"banks", "makespan (cycles)", "1-bank (cycles)",
                           "throughput speedup", "efficiency"});
  for (const auto& p : banks)
    bank_table.add_row(
        {std::to_string(p.banks), std::to_string(p.cycles),
         std::to_string(banks[0].cycles),
         TablePrinter::num(p.throughput_speedup),
         TablePrinter::num(p.throughput_speedup /
                           static_cast<double>(p.banks) * 100.0, 1) + "%"});
  bank_table.print(std::cout);
  std::cout << "\nNear-linear until the shared one-command-per-cycle bus "
               "saturates during the command-dense row-block phase — the "
               "system-level effect the paper defers to future work.\n\n"
            << "RNS multi-limb scaling (N = 1024, Nb = 4, one limb prime per "
               "bank)\n";
  TablePrinter limb_table({"limbs (=banks)", "products", "engine passes",
                           "modeled cycles", "cycles/limb", "verified"});
  for (const auto& p : limbs)
    limb_table.add_row({std::to_string(p.limbs), std::to_string(p.products),
                        std::to_string(p.engine_passes),
                        std::to_string(p.modeled_cycles),
                        TablePrinter::num(p.modeled_cycles_per_limb, 1),
                        p.verified ? "YES" : "NO"});
  limb_table.print(std::cout);
  std::cout << "\nEach product is two heterogeneous engine passes (all "
               "forward NTTs of both operands, then all inverse NTTs) with "
               "a different limb prime in every bank; cycles/limb falling "
               "with the limb count is bank-level parallelism applied to "
               "an RNS workload.\n\n";
}

void write_sweeps(bench::JsonWriter& json, const std::vector<BankPoint>& banks,
                  const std::vector<LimbPoint>& limbs) {
  json.begin_array("modeled_bank_scaling");
  for (const auto& p : banks) {
    json.begin_object();
    json.field("banks", p.banks);
    json.field("n", kSweepN);
    json.field("num_buffers", kSweepBuffers);
    json.field("makespan_cycles", p.cycles);
    json.field("single_bank_cycles", banks[0].cycles);
    json.field("throughput_speedup", p.throughput_speedup);
    json.field("verified", p.verified);
    json.end_object();
  }
  json.end_array();
  json.begin_array("rns_limb_scaling");
  for (const auto& p : limbs) {
    json.begin_object();
    json.field("limbs", p.limbs);
    json.field("banks", p.limbs);
    json.field("n", kSweepN);
    json.field("num_buffers", kSweepBuffers);
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

constexpr const char* kUsage =
    "usage: bench_paper [--json <path>]\n"
    "  Simulates the paper's Table II/III, Fig. 6-8 and ablation points and\n"
    "  checks each against its committed band, beside the modeled bank and\n"
    "  RNS limb scaling sweeps; exits 1 if any row is outside its band or\n"
    "  any simulation fails verification.\n"
    "  --json <path>  also write the record as BENCH_host.json to path\n";

}  // namespace

int main(int argc, char** argv) {
  const auto json_path = bench::consume_value_flag(argc, argv, "--json");
  bench::finish_flags(argc, argv, kUsage);
  // The text tables go to stdout, so the record needs a file of its own.
  if (json_path == "-") {
    std::cerr << "--json takes a file path, not - (stdout)\n" << kUsage;
    return 2;
  }
  bench::print_table1_header("Paper record: Tables II-III, Figs. 6-8");

  const auto banks = bank_scaling();
  const auto limbs = rns_limb_scaling();
  print_sweeps(banks, limbs);
  bool verified = true;
  for (const auto& p : banks) verified = verified && p.verified;
  for (const auto& p : limbs) verified = verified && p.verified;

  Simulator sim;
  std::vector<std::vector<Row>> record;
  for (const Group& g : kGroups) record.push_back(evaluate(g, sim));
  const std::size_t outside = print_record(record);

  if (!verified || !sim.all_verified()) {
    std::cerr << "paper record FAILED: a simulated NTT differs from the "
                 "reference transform\n";
    return EXIT_FAILURE;
  }
  if (outside != 0) {
    std::cerr << "paper record FAILED: " << outside
              << " row(s) outside their band\n";
    return EXIT_FAILURE;
  }
  if (!json_path) return EXIT_SUCCESS;
  return bench::write_output(
      *json_path,
      bench::render_report("nttpim-bench-host-v1", "bench_paper",
                           [&](bench::JsonWriter& json) {
                             write_sweeps(json, banks, limbs);
                             write_record(json, record);
                           }));
}
