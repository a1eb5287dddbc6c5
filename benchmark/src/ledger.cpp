#include "ledger.h"

#include <algorithm>
#include <map>
#include <string>

#include "mapping/mapper.h"
#include "mapping/plan_cache.h"
#include "ntt/negacyclic.h"
#include "ntt/poly.h"
#include "pim/device.h"
#include "pim/host.h"
#include "sim/engine.h"

namespace nttpim::benchmark {

namespace {

mapping::NttJob job_for(bool inverse, std::uint32_t base_row = 0) {
  mapping::NttJob job;
  job.base_row = base_row;
  job.direction =
      inverse ? mapping::Direction::kInverse : mapping::Direction::kForward;
  job.negacyclic = inverse;  // as PimBackend maps it
  return job;
}

mapping::MapperConfig mapper_config(std::uint16_t bank = 0) {
  mapping::MapperConfig config;
  config.num_buffers = kNumBuffers;
  config.bank = bank;
  return config;
}

}  // namespace

std::vector<Wave> probe_waves(const std::vector<KeyPool>& pools,
                              std::size_t items, std::size_t count,
                              std::mt19937_64& rng) {
  std::vector<const KeyPool*> transforms;
  for (const KeyPool& pool : pools)
    if (pool.kind != OpKind::kMultiply) transforms.push_back(&pool);
  std::uniform_int_distribution<std::size_t> pick_pool(0,
                                                       transforms.size() - 1);
  std::uniform_int_distribution<std::size_t> pick_case(0, kCasesPerKey - 1);
  std::vector<Wave> waves(count);
  for (Wave& w : waves)
    for (std::size_t j = 0; j < items; ++j) {
      const KeyPool& pool = *transforms[pick_pool(rng)];
      w.push_back({&pool.cases[pick_case(rng)], pool.params.get(),
                   pool.kind == OpKind::kInverse});
    }
  return waves;
}

void replay_waves(fhe::PimBackend& backend, const std::vector<Wave>& waves,
                  Result& result) {
  if (waves.empty()) {
    result.fail_check("no wave was sampled for the replay");
    return;
  }
  const dram::DramGeometry& geometry = backend.geometry();
  pim::PimDevice device(geometry, kNumBuffers);
  sim::EngineConfig engine_config;
  engine_config.timing = dram::hbm2e_timing().at_frequency(kFreqMhz);
  const sim::Engine engine(engine_config);
  mapping::PlanCache plans;

  std::vector<std::vector<std::uint32_t>> polys;
  std::vector<fhe::BatchItem> batch;
  const auto stage = [&](const Wave& w) {
    polys.resize(w.size());
    batch.resize(w.size());
    for (std::size_t j = 0; j < w.size(); ++j) {
      polys[j] = w[j].c->a;
      batch[j] = {&polys[j], w[j].params, w[j].inverse};
    }
  };
  const auto plan_for = [&](const WaveItem& item,
                            const fhe::PimBackend::WaveSlot& slot) {
    return plans.get_or_map(geometry, *item.params, mapper_config(slot.bank),
                            job_for(item.inverse, slot.base_row));
  };
  // Warm both plan caches, so every timed lookup below is a hit on either
  // side, as in a warmed-up workload.
  for (const Wave& w : waves) {
    stage(w);
    backend.transform_batch_mixed(batch);
    for (std::size_t j = 0; j < w.size(); ++j)
      plan_for(w[j], backend.last_wave()[j]);
  }
  const std::uint64_t hits0 = backend.plan_cache_hits();
  const std::uint64_t misses0 = backend.plan_cache_misses();

  double wave_us = 0, estimate_us = 0, scale_us = 0, load_us = 0;
  double plan_us = 0, engine_us = 0, read_us = 0, imbalance = 0;
  std::uint64_t lookups = 0;
  sim::RunStats total;
  for (const Wave& w : waves) {
    stage(w);
    const auto e0 = Clock::now();
    backend.estimate_wave_cycles(batch);
    const auto e1 = Clock::now();
    const std::uint64_t cycles0 = backend.total_cycles();
    backend.transform_batch_mixed(batch);
    const auto e2 = Clock::now();
    const std::uint64_t cycles = backend.total_cycles() - cycles0;
    const std::vector<fhe::PimBackend::WaveSlot> slots = backend.last_wave();
    estimate_us += us_between(e0, e1);
    wave_us += us_between(e1, e2);
    for (std::size_t j = 0; j < w.size(); ++j)
      if (polys[j] != w[j].c->expected) {
        result.fail_check("sampled wave result differs from the reference");
        ++result.failed;
      }

    std::vector<std::shared_ptr<const mapping::MappedNtt>> mapped(w.size());
    for (std::size_t j = 0; j < w.size(); ++j) {
      std::vector<std::uint32_t> staged = w[j].c->a;
      const auto t0 = Clock::now();
      if (!w[j].inverse)
        ntt::geometric_scale(staged, w[j].params->psi(), 1, w[j].params->q());
      const auto t1 = Clock::now();
      pim::load_polynomial(device.bank(slots[j].bank), slots[j].base_row,
                           staged);
      const auto t2 = Clock::now();
      mapped[j] = plan_for(w[j], slots[j]);
      const auto t3 = Clock::now();
      scale_us += us_between(t0, t1);
      load_us += us_between(t1, t2);
      plan_us += us_between(t2, t3);
      ++lookups;
    }

    // Per-bank concatenation in item order: the engine keeps per-bank
    // order and nothing else, so this is the backend's pass without its
    // merge.
    std::vector<dram::Command> trace;
    for (std::size_t bank = 0; bank < geometry.banks; ++bank)
      for (std::size_t j = 0; j < w.size(); ++j)
        if (slots[j].bank == bank)
          trace.insert(trace.end(), mapped[j]->trace.begin(),
                       mapped[j]->trace.end());
    const auto t0 = Clock::now();
    const sim::RunStats stats = engine.run(device, trace);
    const auto t1 = Clock::now();
    engine_us += us_between(t0, t1);
    if (stats.cycles != cycles) {
      result.fail_check("replayed wave took " + std::to_string(stats.cycles) +
                        " cycles, the backend " + std::to_string(cycles));
      ++result.failed;
    }

    for (std::size_t j = 0; j < w.size(); ++j) {
      const auto r0 = Clock::now();
      const std::vector<std::uint32_t> out =
          pim::read_result(device.bank(slots[j].bank),
                           mapped[j]->result_base_row, w[j].params->n());
      read_us += us_between(r0, Clock::now());
      if (out != w[j].c->expected) {
        result.fail_check("replayed result differs from the reference");
        ++result.failed;
      }
    }

    total.cycles += stats.cycles;
    total.commands += stats.commands;
    total.activations += stats.activations;
    total.column_reads += stats.column_reads;
    total.column_writes += stats.column_writes;
    total.compute_ops += stats.compute_ops;
    total.refreshes += stats.refreshes;
    total.bus_busy_cycles += stats.bus_busy_cycles;
    const auto& spans = stats.channel_makespans;
    const std::uint64_t busiest = *std::max_element(spans.begin(), spans.end());
    std::uint64_t sum = 0;
    for (const std::uint64_t c : spans) sum += c;
    imbalance += static_cast<double>(busiest) *
                 static_cast<double>(spans.size()) / static_cast<double>(sum);
  }

  const auto hits = static_cast<double>(backend.plan_cache_hits() - hits0);
  const auto misses =
      static_cast<double>(backend.plan_cache_misses() - misses0);
  const auto per_wave = [&](double v) {
    return v / static_cast<double>(waves.size());
  };
  const auto per_wave_count = [&](std::uint64_t v) {
    return per_wave(static_cast<double>(v));
  };
  result.set("fhe.plan_hit_ratio", hits / (hits + misses));
  result.set("fhe.pim.wave_us", per_wave(wave_us));
  result.set("fhe.pim.estimate_us", per_wave(estimate_us));
  result.set("fhe.pim.residual_us",
             per_wave(wave_us - scale_us - load_us - plan_us - engine_us -
                      read_us));
  result.set("sim.engine_us_per_wave", per_wave(engine_us));
  result.set("sim.engine_ns_per_command",
             engine_us * 1e3 / static_cast<double>(total.commands));
  result.set("sim.commands_per_wave", per_wave_count(total.commands));
  result.set("sim.cycles_per_wave", per_wave_count(total.cycles));
  result.set("sim.activations", per_wave_count(total.activations));
  result.set("sim.column_accesses_per_act",
             total.column_accesses_per_activation());
  result.set("sim.compute_ops", per_wave_count(total.compute_ops));
  result.set("sim.refreshes", per_wave_count(total.refreshes));
  result.set("sim.bus_utilization", total.bus_utilization());
  result.set("sim.channel_imbalance", per_wave(imbalance));
  result.set("pim.load_us", per_wave(load_us));
  result.set("pim.read_us", per_wave(read_us));
  result.set("ntt.scale_us", per_wave(scale_us));
  result.set("mapping.plan_hit_us", plan_us / static_cast<double>(lookups));
}

void probe_host_kernels(const dram::DramGeometry& geometry,
                        const std::vector<KeyPool>& pools, Result& result) {
  constexpr int kReps = 64;
  double transform_us = 0, pointwise_us = 0;
  for (int i = 0; i < kReps; ++i) {
    const KeyPool& pool = pools[static_cast<std::size_t>(i) % pools.size()];
    const Case& c = pool.cases[static_cast<std::size_t>(i) % kCasesPerKey];
    std::vector<std::uint32_t> a = c.a;
    const auto t0 = Clock::now();
    ntt::forward_negacyclic_ntt(a, *pool.params);
    const auto t1 = Clock::now();
    const std::vector<std::uint32_t> product =
        ntt::pointwise_mul(a, c.expected, pool.params->q());
    const auto t2 = Clock::now();
    transform_us += us_between(t0, t1);
    pointwise_us += us_between(t1, t2);
  }
  result.set("ntt.pointwise_us", pointwise_us / kReps);
  result.set("ntt.cpu_transform_us", transform_us / kReps);

  // Every (modulus, direction) the workload maps; a multiply maps both.
  std::map<std::pair<std::uint32_t, bool>, const ntt::NttParams*> keys;
  for (const KeyPool& pool : pools) {
    const std::uint32_t q = pool.params->q();
    if (pool.kind != OpKind::kInverse) keys[{q, false}] = pool.params.get();
    if (pool.kind != OpKind::kForward) keys[{q, true}] = pool.params.get();
  }
  constexpr int kMapReps = 3;
  double map_us = 0;
  for (int rep = 0; rep < kMapReps; ++rep)
    for (const auto& [key, params] : keys) {
      const auto t0 = Clock::now();
      const mapping::RowCentricMapper mapper(geometry, *params,
                                             mapper_config());
      const mapping::MappedNtt mapped = mapper.map(job_for(key.second));
      map_us += us_between(t0, Clock::now());
    }
  result.set("mapping.map_cold_us",
             map_us / static_cast<double>(kMapReps * keys.size()));
}

}  // namespace nttpim::benchmark
