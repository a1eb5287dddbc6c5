// The simulated NTT-PIM execution backend (see ntt_backend.h for the
// NttBackend interface it implements and cpu_backend.h for its host-CPU
// peer in the heterogeneous serving tier).
//
// PimBackend is throughput-shaped: it owns one persistent simulated device
// (constructed once, not per transform), memoizes mapped command traces in
// a mapping::PlanCache keyed by (geometry, params, config, job), and offers
// two batch entry points:
//  - transform_batch(): a pile of same-parameter polynomials sharded across
//    the device's banks, one engine pass per wave of num_banks();
//  - transform_batch_mixed(): a *heterogeneous* wave in which every
//    polynomial carries its own parameter set (modulus) and direction —
//    the paper's "running different NTT functions in each bank" — executed
//    as a single engine pass; items beyond num_banks() are stacked at
//    disjoint base rows of the same bank and run back-to-back within the
//    pass (parallel across banks, sequential within one).
// Simulated *hardware* numbers are unchanged by any of this — only host
// wall-clock drops.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "dram/command.h"
#include "dram/config.h"
#include "fhe/ntt_backend.h"
#include "mapping/plan_cache.h"
#include "ntt/params.h"
#include "pim/device.h"
#include "sim/engine.h"
#include "sync/thread_confined.h"

namespace nttpim::fhe {

/// Backend that executes every transform on the simulated NTT-PIM device
/// and accumulates the simulated cycle/energy cost.
class PimBackend final : public NttBackend {
 public:
  /// Placement of one batch item within an executed wave (introspection
  /// for tests / reporting: which bank ran which modulus in which
  /// direction at which base row).
  struct WaveSlot {
    std::uint16_t bank = 0;
    std::uint32_t base_row = 0;
    std::size_t n = 0;
    std::uint32_t q = 0;
    bool inverse = false;
    std::uint16_t channel = 0;  ///< command bus serving `bank`
  };

  /// `geometry` fixes the simulated device for the backend's lifetime; the
  /// default is the paper's single-bank Table-I configuration. Use
  /// dram::hbm2e_geometry(B) to enable B-way transform_batch sharding.
  explicit PimBackend(std::size_t num_buffers = 4, double freq_mhz = 1200.0,
                      const dram::DramGeometry& geometry =
                          dram::hbm2e_geometry(1));

  void forward(std::vector<std::uint32_t>& a,
               const ntt::NttParams& params) override;
  void inverse(std::vector<std::uint32_t>& a,
               const ntt::NttParams& params) override;

  /// Batched transform: shard `polys` across the device's banks, one
  /// polynomial per bank, and simulate each wave of num_banks() transforms
  /// in a single engine pass (per-bank traces are cached plans replicated
  /// with rewritten bank ids). Semantics per polynomial are identical to
  /// forward()/inverse(); total_cycles() advances by the *makespan* of each
  /// shared pass, which is what makes this a throughput API.
  void transform_batch(std::span<std::vector<std::uint32_t>> polys,
                       const ntt::NttParams& params,
                       bool inverse = false) override;

  /// Heterogeneous wave: ONE engine pass for the whole span. Items are
  /// placed channel-major: an unhinted item goes to the next channel
  /// round-robin, a hinted item (BatchItem::channel) to its pinned
  /// channel, and within a channel items rotate across that channel's
  /// banks_per_channel() banks; when a bank receives several items they
  /// are placed at disjoint base rows and execute back-to-back within the
  /// pass. (A single-channel device reduces to the classic item j -> bank
  /// j % num_banks() placement.) Per-bank command traces come from the
  /// plan cache (one plan per (params, direction, bank, base_row),
  /// bank-retargeted from the bank-0 twin); each bank's cached traces, in
  /// item order, are that bank's engine program, passed without copying.
  /// Rejects aliased items (see BatchItem).
  void transform_batch_mixed(std::span<const BatchItem> items) override;

  /// Price the wave `items` in modeled device cycles WITHOUT touching the
  /// device: items are placed exactly as transform_batch_mixed would place
  /// them (channel-major round-robin, hints honored); an item whose plan
  /// is already in the plan cache costs its exact command counts priced
  /// through ActModel::estimate_pass_cycles, an unmapped item costs a
  /// deliberately conservative default (so unknown work repels further
  /// load until a shard has actually mapped it). Each channel's makespan
  /// is the busier of its busiest bank's back-to-back total and its
  /// command bus's total occupancy (mapped counts only — the bus is the
  /// resource banks of one channel share); the wave's estimate is the
  /// busiest *channel's* makespan, since channels run on independent
  /// buses. Unlike the transform methods this is safe to call from
  /// another thread while this backend executes (PlanCache::peek_counts
  /// contract) — it is what a cost-aware dispatcher compares per shard.
  std::uint64_t estimate_wave_cycles(
      std::span<const BatchItem> items) const override;

  const dram::DramGeometry& geometry() const noexcept { return geometry_; }
  std::size_t num_banks() const noexcept { return device_.num_banks(); }
  std::size_t num_channels() const noexcept { return geometry_.num_channels; }
  std::size_t banks_per_channel() const noexcept {
    return geometry_.banks_per_channel();
  }

  /// Counter accessors (total_cycles/engine_passes/plan_cache_*,
  /// transform_count) follow the NttBackend contract: safe to read while
  /// another thread drives the backend. Everything else — transforms,
  /// total_energy_nj(), last_wave(), recorded_waves() — requires the
  /// backend to be quiescent or externally synchronized.
  std::uint64_t total_cycles() const noexcept {
    return cycles_.load(std::memory_order_relaxed);
  }
  /// The simulated engine cycles ARE this backend's modeled account.
  std::uint64_t modeled_cycles() const noexcept override {
    return total_cycles();
  }
  double total_energy_nj() const noexcept { return energy_nj_; }
  double total_us() const;
  /// Engine passes executed (one per single transform or batch wave).
  std::uint64_t engine_passes() const noexcept {
    return engine_passes_.load(std::memory_order_relaxed);
  }
  std::uint64_t plan_cache_hits() const noexcept { return plans_.hits(); }
  std::uint64_t plan_cache_misses() const noexcept { return plans_.misses(); }

  /// One recorded engine pass: where every item ran, and the commands the
  /// engine executed as the per-bank concatenation of its programs (bank 0's
  /// items in item order, then bank 1's, ...) — the trace a timeline's
  /// TimelineEvent::trace_index indexes.
  struct RecordedWave {
    std::vector<WaveSlot> slots;
    std::vector<dram::Command> trace;
  };

  /// Item placements of the most recent engine pass (always tracked).
  const std::vector<WaveSlot>& last_wave() const noexcept {
    return wave_log_->last_wave;
  }
  /// Record every subsequent pass's placements + trace (off by
  /// default: costs memory proportional to the traces). Toggling clears
  /// the log.
  void set_record_waves(bool record) {
    wave_log_->record = record;
    wave_log_->recorded.clear();
  }
  const std::vector<RecordedWave>& recorded_waves() const noexcept {
    return wave_log_->recorded;
  }

 private:
  void transform(std::vector<std::uint32_t>& a, const ntt::NttParams& params,
                 bool inverse_direction);
  /// One engine pass over `wave` (any item count; banks assigned
  /// round-robin, rows packed per bank).
  void run_wave(std::span<const BatchItem> wave);
  std::shared_ptr<const mapping::MappedNtt> plan_for(
      const ntt::NttParams& params, bool inverse_direction,
      std::uint16_t bank, std::uint32_t base_row);

  dram::DramGeometry geometry_;
  std::size_t num_buffers_;
  double freq_mhz_;
  pim::PimDevice device_;
  sim::Engine engine_;
  mapping::PlanCache plans_;
  /// Single-driver written, share-readable (NttBackend counter contract):
  /// relaxed suffices because readers sample monotone totals for stats and
  /// never derive synchronization from them.
  std::atomic<std::uint64_t> cycles_{0};
  double energy_nj_ = 0;  ///< single-driver, quiescent-read (see accessors)
  std::atomic<std::uint64_t> engine_passes_{0};

  /// Wave capture state mutated by every engine pass. Confined to the
  /// driving thread like the transform methods themselves; the wrapper
  /// asserts that contract on every access in debug builds (the accessors
  /// above therefore require quiescence *or the owner thread*, as the
  /// counter-contract comment documents).
  struct WaveLog {
    std::vector<WaveSlot> last_wave;
    std::vector<RecordedWave> recorded;
    bool record = false;
  };
  sync::ThreadConfined<WaveLog> wave_log_;
};

}  // namespace nttpim::fhe
