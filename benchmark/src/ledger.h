// The per-layer ledger below the service: an outside-in replay of sampled
// PIM waves through the public mapping, pim and sim entry points, plus
// probes of the host kernels a wave's results depend on.
#pragma once

#include <random>
#include <vector>

#include "fhe/pim_backend.h"
#include "harness.h"

namespace nttpim::benchmark {

/// One item of a sampled wave: its case (input `a` and the reference
/// output), parameter set and direction.
struct WaveItem {
  const Case* c = nullptr;
  const ntt::NttParams* params = nullptr;
  bool inverse = false;
};
using Wave = std::vector<WaveItem>;

/// `count` seeded waves of `items` items drawn from the transform pools of
/// `pools`: a workload's wave shape, for a backend the benchmark owns.
std::vector<Wave> probe_waves(const std::vector<KeyPool>& pools,
                              std::size_t items, std::size_t count,
                              std::mt19937_64& rng);

/// Splits each wave's host time into layers from outside the backend.
/// Every wave runs once on `backend` to warm its plans. Then, wave by wave
/// so both halves see the same host: the wave runs on `backend`
/// (estimate_wave_cycles and transform_batch_mixed timed, placement read
/// from last_wave(), cycles from total_cycles()), and is replayed on a
/// private device of the backend's geometry: ntt::geometric_scale and
/// pim::load_polynomial per item, a warm mapping::PlanCache::get_or_map per
/// item, the per-bank concatenated traces through sim::Engine::run, and
/// pim::read_result per item. The replay must take exactly the wave's
/// cycles and every result must equal its reference, else the run fails.
/// Sets the fhe.*, sim.*, pim.*, ntt.scale_us and mapping.plan_hit_us
/// metrics; fhe.pim.residual_us is the wave time no replayed layer
/// accounts for (the backend's trace merge and copies).
void replay_waves(fhe::PimBackend& backend, const std::vector<Wave>& waves,
                  Result& result);

/// Host time of the CPU reference transform and pointwise product at the
/// pools' size (the CPU shard's and the multiply's host work), and of a
/// cold RowCentricMapper::map per key (what set-up pays per key).
void probe_host_kernels(const dram::DramGeometry& geometry,
                        const std::vector<KeyPool>& pools, Result& result);

}  // namespace nttpim::benchmark
