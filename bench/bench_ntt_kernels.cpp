// google-benchmark microbenchmarks of the NTT kernel library: the
// Cooley-Tukey and Gentleman-Sande dataflows of paper Sec. II.B and the
// modular-reduction strategies of the BU datapath (Montgomery vs Barrett
// vs plain `%`).
#include <benchmark/benchmark.h>

#include <fstream>
#include <sstream>

#include "bench_common.h"
#include "common/bitutil.h"
#include "common/random.h"
#include "ntt/barrett.h"
#include "ntt/montgomery.h"
#include "ntt/params.h"
#include "ntt/poly.h"
#include "ntt/reference.h"
#include "sim/runner.h"

namespace {

using namespace nttpim;

const ntt::NttParams& params_for(std::size_t n) {
  static std::map<std::size_t, ntt::NttParams> cache;
  auto it = cache.find(n);
  if (it == cache.end())
    it = cache.emplace(n, ntt::NttParams::create(n)).first;
  return it->second;
}

std::vector<std::uint32_t> input_for(std::size_t n, std::uint32_t q) {
  Rng rng(n);
  return rng.residues(n, q);
}

void BM_NttCooleyTukey(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto& p = params_for(n);
  const auto input = input_for(n, p.q());
  for (auto _ : state) {
    auto a = input;
    bit_reverse_permute(a);
    ntt::ntt_dit_bitrev_to_natural(a, p);
    benchmark::DoNotOptimize(a.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * n);
}

void BM_NttGentlemanSande(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto& p = params_for(n);
  const auto input = input_for(n, p.q());
  for (auto _ : state) {
    auto a = input;
    ntt::ntt_dif_natural_to_bitrev(a, p);
    benchmark::DoNotOptimize(a.data());
  }
}

void BM_NttPlainMod(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto& p = params_for(n);
  const auto input = input_for(n, p.q());
  for (auto _ : state) {
    auto a = input;
    ntt::forward_ntt_plain_mod(a, p.q(), p.omega());
    benchmark::DoNotOptimize(a.data());
  }
}

void BM_NttMontgomeryCpu(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto& p = params_for(n);
  const auto input = input_for(n, p.q());
  for (auto _ : state) {
    auto a = input;
    ntt::forward_ntt_montgomery(a, p);
    benchmark::DoNotOptimize(a.data());
  }
}

void BM_ReduceMontgomery(benchmark::State& state) {
  const std::uint32_t q = 998244353;
  const ntt::Montgomery32 mont(q);
  Rng rng(1);
  std::vector<std::uint32_t> xs(1024), ys(1024);
  for (auto& x : xs) x = rng.next_mod(q);
  for (auto& y : ys) y = rng.next_mod(q);
  for (auto _ : state) {
    std::uint32_t acc = 1;
    for (std::size_t i = 0; i < xs.size(); ++i)
      acc ^= mont.mul(xs[i], ys[i]);
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) * 1024);
}

void BM_ReduceBarrett(benchmark::State& state) {
  const std::uint32_t q = 998244353;
  const ntt::Barrett32 barrett(q);
  Rng rng(2);
  std::vector<std::uint32_t> xs(1024), ys(1024);
  for (auto& x : xs) x = rng.next_mod(q);
  for (auto& y : ys) y = rng.next_mod(q);
  for (auto _ : state) {
    std::uint32_t acc = 1;
    for (std::size_t i = 0; i < xs.size(); ++i)
      acc ^= barrett.mul(xs[i], ys[i]);
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) * 1024);
}

void BM_ReducePlainMod(benchmark::State& state) {
  const std::uint32_t q = 998244353;
  Rng rng(3);
  std::vector<std::uint32_t> xs(1024), ys(1024);
  for (auto& x : xs) x = rng.next_mod(q);
  for (auto& y : ys) y = rng.next_mod(q);
  for (auto _ : state) {
    std::uint32_t acc = 1;
    for (std::size_t i = 0; i < xs.size(); ++i)
      acc ^= static_cast<std::uint32_t>(
          static_cast<std::uint64_t>(xs[i]) * ys[i] % q);
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) * 1024);
}

void BM_PolymulNttVsSchoolbook(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto& p = params_for(n);
  const auto a = input_for(n, p.q());
  const auto b = input_for(n, p.q() - 1);
  for (auto _ : state) {
    auto c = ntt::negacyclic_convolution_ntt(a, b, p);
    benchmark::DoNotOptimize(c.data());
  }
}

// `--json [path]` perf-baseline mode: instead of wall-clock microbenchmarks,
// run each kernel config through the cycle-accurate PIM simulation and emit
// the cycle / ACT counts that optimization PRs are judged against
// (committed as BENCH_*.json at the repo root).
int run_json_baseline(const std::string& path) {
  using namespace nttpim;

  // Buffer the report and only write the output file once every config has
  // verified, so a broken sim never leaves a plausible-looking baseline on
  // disk for a script that ignores the exit status.
  std::ostringstream os;
  bench::JsonWriter json(os);
  json.begin_object();
  json.field("schema", "nttpim-bench-v1");
  json.field("bench", "bench_ntt_kernels");
  bench::write_architecture(json);
  json.begin_array("kernels");
  bool all_verified = true;
  for (const std::size_t n : {256, 1024, 4096, 16384}) {
    for (const std::size_t num_buffers : {2, 4}) {
      for (const bool negacyclic : {false, true}) {
        sim::NttRunConfig config;
        config.n = n;
        config.num_buffers = num_buffers;
        config.negacyclic = negacyclic;
        const sim::NttRunResult result = sim::run_ntt_on_pim(config);
        all_verified = all_verified && result.verified;

        json.begin_object();
        json.field("n", n);
        json.field("q", result.q);
        json.field("num_buffers", num_buffers);
        json.field("negacyclic", negacyclic);
        json.field("pipelined", config.pipelined);
        json.field("row_centric", config.row_centric);
        json.field("verified", result.verified);
        json.field("cycles", result.stats.cycles);
        json.field("latency_us", result.latency_us);
        json.field("energy_nj", result.energy_nj);
        json.field("activations", result.stats.activations);
        json.field("precharges", result.stats.precharges);
        json.field("column_reads", result.stats.column_reads);
        json.field("column_writes", result.stats.column_writes);
        json.field("compute_ops", result.stats.compute_ops);
        json.field("butterflies", result.stats.butterflies);
        json.field("commands", result.stats.commands);
        json.begin_object("acts_by_regime");
        for (const auto& [regime, acts] : result.trace_counts.acts_by_regime)
          json.field(dram::to_string(regime), acts);
        json.end_object();
        json.end_object();
      }
    }
  }
  json.end_array();
  json.end_object();
  if (!all_verified) {
    std::cerr << "baseline aborted: a simulated NTT failed functional "
                 "verification against the reference transform\n";
    return 1;
  }
  if (path == "-") {
    std::cout << os.str();
  } else {
    std::ofstream file(path);
    if (!(file << os.str())) {
      std::cerr << "cannot write " << path << "\n";
      return 1;
    }
  }
  return 0;
}

}  // namespace

BENCHMARK(BM_NttCooleyTukey)->RangeMultiplier(4)->Range(256, 8192);
BENCHMARK(BM_NttGentlemanSande)->RangeMultiplier(4)->Range(256, 8192);
BENCHMARK(BM_NttPlainMod)->RangeMultiplier(4)->Range(256, 8192);
BENCHMARK(BM_NttMontgomeryCpu)->RangeMultiplier(4)->Range(256, 8192);
BENCHMARK(BM_ReduceMontgomery);
BENCHMARK(BM_ReduceBarrett);
BENCHMARK(BM_ReducePlainMod);
BENCHMARK(BM_PolymulNttVsSchoolbook)->Arg(256)->Arg(1024);

int main(int argc, char** argv) {
  if (const auto json_path = nttpim::bench::consume_json_flag(argc, argv))
    return run_json_baseline(*json_path);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
