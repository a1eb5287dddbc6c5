#include "mapping/plan_cache.h"

namespace nttpim::mapping {

PlanKey PlanKey::make(const dram::DramGeometry& geometry,
                      const ntt::NttParams& params,
                      const MapperConfig& config, const NttJob& job) {
  PlanKey key;
  key.word_bytes = geometry.word_bytes;
  key.atom_bytes = geometry.atom_bytes;
  key.atoms_per_row = geometry.atoms_per_row;
  key.rows_per_bank = geometry.rows_per_bank;
  key.n = params.n();
  key.q = params.q();
  key.num_buffers = config.num_buffers;
  key.pipelined = config.pipelined;
  key.in_place = config.in_place;
  key.row_centric = config.row_centric;
  key.bank = config.bank;
  key.base_row = job.base_row;
  key.direction = job.direction;
  key.scale_output = job.scale_output;
  key.negacyclic = job.negacyclic;
  return key;
}

std::shared_ptr<const MappedNtt> PlanCache::get_or_map(
    const dram::DramGeometry& geometry, const ntt::NttParams& params,
    const MapperConfig& config, const NttJob& job) {
  const PlanKey key = PlanKey::make(geometry, params, config, job);
  auto& plans = plans_->plans;
  if (const auto it = plans.find(key); it != plans.end()) {
    ++hits_;
    return it->second;
  }
  ++misses_;

  std::shared_ptr<const MappedNtt> plan;
  if (config.bank != 0) {
    // The trace is bank-relative apart from the bank field: any non-bank-0
    // miss is served by replicating the bank-0 twin, mapping (and caching)
    // the twin first if this is the key's first sighting. Mapping at the
    // *requested* bank instead would strand the plan under that bank's key
    // and re-run the mapper for every other bank of a wave — and for
    // bank 0 itself.
    PlanKey twin_key = key;
    twin_key.bank = 0;
    auto twin = plans.find(twin_key);
    if (twin == plans.end()) {
      MapperConfig base_config = config;
      base_config.bank = 0;
      const RowCentricMapper mapper(geometry, params, base_config);
      twin = plans
                 .emplace(twin_key,
                          std::make_shared<const MappedNtt>(mapper.map(job)))
                 .first;
      record_counts(twin_key, *twin->second);
    }
    plan = std::make_shared<const MappedNtt>(
        retarget_bank(*twin->second, config.bank));
  } else {
    const RowCentricMapper mapper(geometry, params, config);
    plan = std::make_shared<const MappedNtt>(mapper.map(job));
    record_counts(key, *plan);
  }
  plans.emplace(key, plan);
  return plan;
}

void PlanCache::record_counts(const PlanKey& key, const MappedNtt& plan) {
  plans_->counts.emplace(key.cost_key(), count_commands(plan.trace));
}

std::optional<TraceCounts> PlanCache::peek_counts(const PlanKey& key) const {
  const auto& counts = plans_->counts;
  if (const auto it = counts.find(key.cost_key()); it != counts.end())
    return it->second;
  return std::nullopt;
}

}  // namespace nttpim::mapping
