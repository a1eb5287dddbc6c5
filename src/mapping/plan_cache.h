// Memoization of mapped NTT command traces.
//
// Mapping is pure: the emitted trace depends only on the DRAM geometry, the
// NTT parameter set (n, q), the mapper configuration and the job descriptor
// — never on the polynomial data. FHE workloads issue dozens of transforms
// with identical keys per homomorphic operation (every limb of every
// ciphertext polynomial), so re-running RowCentricMapper::map per transform
// is pure host-side waste. PlanCache memoizes the MappedNtt per key; plans
// are immutable and handed out as shared_ptr so callers can hold them across
// cache mutations.
//
// Bank replication: a mapped trace is bank-relative except for the bank id
// stamped on each command, so a miss that differs from a cached plan only in
// the bank field is served by retarget_bank() (an O(trace) copy) instead of
// a fresh mapper run — the building block of the batched multi-bank backend.
//
// Shape ids: every mapper run gives its plan a MappedNtt::shape_id, shared
// with any earlier plan whose trace differs only in bank ids and PARAM
// payloads (a hash finds the candidate, a field-by-field compare confirms
// it), and a retargeted copy inherits its twin's. Today's mapper emits
// one structure for every modulus, so plans of one (n, direction, base
// row) share an id across moduli; a mapper whose structure depended on q
// would split ids by itself. Ids are never reused, so a key built from
// them (fhe::PimBackend's schedule memo) cannot alias a dropped plan's.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <unordered_map>

#include "dram/config.h"
#include "mapping/mapper.h"
#include "mapping/trace.h"
#include "ntt/params.h"
#include "sync/thread_confined.h"

namespace nttpim::mapping {

/// Value-comparable identity of one mapping invocation.
struct PlanKey {
  // Geometry (everything the layout / emission depends on).
  std::size_t word_bytes = 0;
  std::size_t atom_bytes = 0;
  std::size_t atoms_per_row = 0;
  std::size_t rows_per_bank = 0;
  // NTT parameter set (roots are derived deterministically from n, q).
  std::size_t n = 0;
  std::uint32_t q = 0;
  // MapperConfig.
  std::size_t num_buffers = 0;
  bool pipelined = true;
  bool in_place = true;
  bool row_centric = true;
  std::uint16_t bank = 0;
  // NttJob.
  std::uint32_t base_row = 0;
  Direction direction = Direction::kForward;
  bool scale_output = true;
  bool negacyclic = false;

  friend auto operator<=>(const PlanKey&, const PlanKey&) = default;

  static PlanKey make(const dram::DramGeometry& geometry,
                      const ntt::NttParams& params,
                      const MapperConfig& config, const NttJob& job);

  /// The key under which this plan's *cost* is filed: bank and base row
  /// zeroed, because neither changes a single command count — a trace is
  /// bank-relative apart from the stamped bank id, and base_row only
  /// shifts row addresses. One mapper run therefore prices the plan for
  /// every placement.
  PlanKey cost_key() const {
    PlanKey key = *this;
    key.bank = 0;
    key.base_row = 0;
    return key;
  }
};

class PlanCache {
 public:
  /// Return the memoized plan for (geometry, params, config, job), mapping
  /// it on first use. The mapper only ever runs for bank 0: a non-bank-0
  /// miss maps and caches the bank-0 twin if absent, then serves the
  /// requested bank by rewriting bank ids — so a wave touching banks in any
  /// order costs exactly one mapper run per distinct non-bank key.
  std::shared_ptr<const MappedNtt> get_or_map(
      const dram::DramGeometry& geometry, const ntt::NttParams& params,
      const MapperConfig& config, const NttJob& job);

  /// Command counts of the cached plan for `key`, or nullopt when no plan
  /// with that cost_key() has been mapped yet. Unlike get_or_map this
  /// never runs the mapper, so a wave can be priced without mapping it.
  /// Returns counts, never cycles — pricing them against a clock is
  /// ActModel::estimate_pass_cycles's job.
  std::optional<TraceCounts> peek_counts(const PlanKey& key) const;

  std::uint64_t hits() const noexcept { return hits_; }
  std::uint64_t misses() const noexcept { return misses_; }
  std::size_t size() const noexcept { return plans_->plans.size(); }

 private:
  /// Everything a lookup reads or writes: the plans, the command counts
  /// filed under each mapped plan's cost_key(), and one representative
  /// plan per shape id, filed under its structural hash.
  struct Plans {
    std::map<PlanKey, std::shared_ptr<const MappedNtt>> plans;
    std::map<PlanKey, TraceCounts> counts;
    std::unordered_multimap<std::size_t, std::shared_ptr<const MappedNtt>>
        shapes;
    std::uint64_t next_shape_id = 1;
  };

  /// Run the mapper for `key` (a bank-0 key), give the plan its shape id
  /// and file its counts.
  std::shared_ptr<const MappedNtt> map_plan(const dram::DramGeometry& geometry,
                                            const ntt::NttParams& params,
                                            const MapperConfig& config,
                                            const NttJob& job,
                                            const PlanKey& key);

  /// The cache is single-driver, every member included: debug builds
  /// assert that each access to this state comes from the owning thread.
  sync::ThreadConfined<Plans> plans_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

}  // namespace nttpim::mapping
