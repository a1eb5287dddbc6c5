#include "sim/runner.h"

#include "common/check.h"
#include "common/random.h"
#include "mapping/naive_mapper.h"
#include "ntt/negacyclic.h"
#include "ntt/primes.h"
#include "ntt/reference.h"
#include "pim/host.h"

namespace nttpim::sim {

namespace {

ntt::NttParams make_params(const NttRunConfig& config) {
  const std::uint32_t q =
      config.q != 0 ? config.q
                    : ntt::find_ntt_prime(config.n, /*bits=*/31);
  return ntt::NttParams(config.n, q);
}

/// Reference result for the configured transform, natural order.
std::vector<std::uint32_t> reference_result(
    const NttRunConfig& config, const ntt::NttParams& params,
    const std::vector<std::uint32_t>& input) {
  std::vector<std::uint32_t> expected = input;
  if (config.direction == mapping::Direction::kForward) {
    if (config.negacyclic)
      ntt::forward_negacyclic_ntt(expected, params);
    else
      ntt::forward_ntt(expected, params);
  } else {
    if (config.negacyclic)
      ntt::inverse_negacyclic_ntt(expected, params);
    else
      ntt::inverse_ntt(expected, params);
  }
  return expected;
}

}  // namespace

NttRunResult run_ntt_on_pim(const NttRunConfig& config) {
  NTTPIM_EXPECT(config.n >= 2);
  const ntt::NttParams params = make_params(config);

  Rng rng(config.seed);
  const std::vector<std::uint32_t> input =
      rng.residues(config.n, params.q());

  // Host side: place the polynomial (bit-reversed; for the forward
  // negacyclic transform the host folds the psi^i pre-scaling into this
  // pass, since it touches every word anyway).
  std::vector<std::uint32_t> to_load = input;
  if (config.negacyclic && config.direction == mapping::Direction::kForward)
    ntt::geometric_scale(to_load, params.psi(), 1, params.q());

  const dram::DramGeometry geometry = dram::hbm2e_geometry(1);
  pim::PimDevice device(geometry, config.num_buffers);
  pim::load_polynomial(device.bank(0), /*base_row=*/0, to_load);

  // Memory controller side: build the command trace.
  mapping::NttJob job;
  job.base_row = 0;
  job.direction = config.direction;
  job.negacyclic =
      config.negacyclic && config.direction == mapping::Direction::kInverse;

  mapping::MappedNtt mapped;
  if (config.num_buffers == 1) {
    const mapping::NaiveMapper mapper(geometry, params);
    mapped = mapper.map(job);
  } else {
    mapping::MapperConfig mc;
    mc.num_buffers = config.num_buffers;
    mc.pipelined = config.pipelined;
    mc.in_place = config.in_place;
    mc.row_centric = config.row_centric;
    const mapping::RowCentricMapper mapper(geometry, params, mc);
    mapped = mapper.map(job);
  }

  if (config.validate_trace)
    mapping::validate_trace(mapped.trace, geometry, config.num_buffers);

  EngineConfig ec;
  ec.timing = dram::hbm2e_timing().at_frequency(config.freq_mhz);
  ec.energy = config.energy;
  ec.enable_refresh = config.enable_refresh;
  const Engine engine(ec);
  const RunStats stats = engine.run(device, mapped.trace);

  const auto produced =
      pim::read_result(device.bank(0), mapped.result_base_row, config.n);
  const auto expected = reference_result(config, params, input);

  NttRunResult result;
  result.stats = stats;
  result.trace_counts = mapping::count_commands(mapped.trace);
  result.verified = produced == expected;
  result.latency_us = stats.us();
  result.energy_nj = stats.energy.total_nj();
  result.q = params.q();
  result.trace_length = mapped.trace.size();
  return result;
}

ParallelRunResult run_parallel_ntts(std::size_t banks,
                                    const NttRunConfig& config) {
  NTTPIM_EXPECT(banks >= 1);
  const ntt::NttParams params = make_params(config);

  const dram::DramGeometry geometry = dram::hbm2e_geometry(banks);
  pim::PimDevice device(geometry, config.num_buffers);

  // Independent polynomials per bank (the FHE use case: e.g. one RNS limb
  // or one ciphertext polynomial per bank).
  std::vector<std::vector<std::uint32_t>> inputs(banks);
  std::vector<dram::Command> merged;
  std::vector<std::uint32_t> result_rows(banks);
  for (std::size_t b = 0; b < banks; ++b) {
    Rng rng(config.seed + b);
    inputs[b] = rng.residues(config.n, params.q());
    pim::load_polynomial(device.bank(b), 0, inputs[b]);

    mapping::MapperConfig mc;
    mc.num_buffers = config.num_buffers;
    mc.pipelined = config.pipelined;
    mc.in_place = config.in_place;
    mc.row_centric = config.row_centric;
    mc.bank = static_cast<std::uint16_t>(b);
    const mapping::RowCentricMapper mapper(geometry, params, mc);
    auto mapped = mapper.map(mapping::NttJob{});
    result_rows[b] = mapped.result_base_row;
    merged.insert(merged.end(), mapped.trace.begin(), mapped.trace.end());
  }

  EngineConfig ec;
  ec.timing = dram::hbm2e_timing().at_frequency(config.freq_mhz);
  ec.energy = config.energy;
  ec.enable_refresh = config.enable_refresh;
  const Engine engine(ec);
  const RunStats stats = engine.run(device, merged);

  bool all_ok = true;
  for (std::size_t b = 0; b < banks; ++b) {
    auto expected = inputs[b];
    ntt::forward_ntt(expected, params);
    const auto produced =
        pim::read_result(device.bank(b), result_rows[b], config.n);
    all_ok = all_ok && produced == expected;
  }

  // Single-bank reference run for the speedup metric.
  NttRunConfig single = config;
  single.validate_trace = false;
  const auto single_result = run_ntt_on_pim(single);

  ParallelRunResult out;
  out.cycles = stats.cycles;
  out.single_bank_cycles = single_result.stats.cycles;
  out.all_verified = all_ok && single_result.verified;
  out.throughput_speedup =
      static_cast<double>(banks) *
      static_cast<double>(single_result.stats.cycles) /
      static_cast<double>(stats.cycles);
  return out;
}

}  // namespace nttpim::sim
