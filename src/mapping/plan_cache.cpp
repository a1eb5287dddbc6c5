#include "mapping/plan_cache.h"

#include <algorithm>

namespace nttpim::mapping {

namespace {

/// `cmd` without the fields two plans of one shape may differ in.
dram::Command shape_of(dram::Command cmd) {
  cmd.bank = 0;
  cmd.param_value = 0;
  return cmd;
}

bool same_shape(const MappedNtt& a, const MappedNtt& b) {
  return std::equal(a.trace.begin(), a.trace.end(), b.trace.begin(),
                    b.trace.end(), [](const auto& x, const auto& y) {
                      return shape_of(x) == shape_of(y);
                    });
}

/// Candidate finder only: same_shape() decides.
std::size_t shape_hash(const MappedNtt& plan) {
  std::size_t h = plan.trace.size();
  for (const dram::Command& cmd : plan.trace)
    h = (h * 1099511628211u) ^
        (static_cast<std::size_t>(cmd.kind) | std::size_t{cmd.row} << 8 |
         std::size_t{cmd.atom} << 40 | std::size_t{cmd.buf} << 56);
  return h;
}

}  // namespace

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
      twin = plans
                 .emplace(twin_key, map_plan(geometry, params, base_config,
                                             job, twin_key))
                 .first;
    }
    plan = std::make_shared<const MappedNtt>(
        retarget_bank(*twin->second, config.bank));
  } else {
    plan = map_plan(geometry, params, config, job, key);
  }
  plans.emplace(key, plan);
  return plan;
}

std::shared_ptr<const MappedNtt> PlanCache::map_plan(
    const dram::DramGeometry& geometry, const ntt::NttParams& params,
    const MapperConfig& config, const NttJob& job, const PlanKey& key) {
  MappedNtt mapped = RowCentricMapper(geometry, params, config).map(job);
  Plans& state = *plans_;
  const std::size_t hash = shape_hash(mapped);
  const auto [first, last] = state.shapes.equal_range(hash);
  const auto same = std::find_if(first, last, [&](const auto& entry) {
    return same_shape(*entry.second, mapped);
  });
  mapped.shape_id = same != last ? same->second->shape_id
                                 : state.next_shape_id++;
  auto plan = std::make_shared<const MappedNtt>(std::move(mapped));
  if (same == last) state.shapes.emplace(hash, plan);
  state.counts.emplace(key.cost_key(), count_commands(plan->trace));
  return plan;
}

std::optional<TraceCounts> PlanCache::peek_counts(const PlanKey& key) const {
  const auto& counts = plans_->counts;
  if (const auto it = counts.find(key.cost_key()); it != counts.end())
    return it->second;
  return std::nullopt;
}

}  // namespace nttpim::mapping
