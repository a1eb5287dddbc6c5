// The simulated NTT-PIM execution backend (see ntt_backend.h for the
// NttBackend interface it implements and cpu_backend.h for its host-CPU
// peer in the heterogeneous serving tier).
//
// PimBackend is throughput-shaped: it owns one persistent simulated device
// (constructed once, not per transform), memoizes mapped command traces in
// a mapping::PlanCache keyed by (geometry, params, config, job), and runs
// every wave — a *heterogeneous* one, in which each polynomial carries its
// own parameter set (modulus) and direction, the paper's "running
// different NTT functions in each bank" — as a single engine pass; items
// beyond num_banks() are stacked at disjoint base rows of the same bank
// and run back-to-back within the pass (parallel across banks, sequential
// within one). A pass's schedule depends only on which plan shapes sit in
// which bank, in which order, so a bounded schedule memo keyed on exactly
// that skips the engine's timing pass for a wave shape already scheduled
// and runs only its functional pass. Simulated *hardware* numbers are
// unchanged by any of this — only host wall-clock drops.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/lru_cache.h"
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
  /// dram::hbm2e_geometry(B) to run a wave's items on B banks in parallel.
  explicit PimBackend(std::size_t num_buffers = 4, double freq_mhz = 1200.0,
                      const dram::DramGeometry& geometry =
                          dram::hbm2e_geometry(1));

  /// Price the wave `items` in modeled device cycles WITHOUT touching the
  /// device: items are placed exactly as a wave would place them
  /// (channel-major round-robin); an item whose plan is already in the
  /// plan cache costs its exact command counts priced through
  /// ActModel::estimate_pass_cycles, an unmapped item costs a deliberately
  /// conservative 4 * n * (log2 n + 2) cycles. Each channel's makespan is
  /// the busier of its busiest bank's back-to-back total and its command
  /// bus's total occupancy (mapped counts only — the bus is the resource
  /// banks of one channel share); the wave's estimate is the busiest
  /// *channel's* makespan, since channels run on independent buses.
  /// Nothing in the library calls it; it stays for the repo benchmark
  /// (benchmark/src), which times it. Single-driver, like every member.
  std::uint64_t estimate_wave_cycles(std::span<const BatchItem> items) const;

  const dram::DramGeometry& geometry() const noexcept { return geometry_; }
  std::size_t num_banks() const noexcept { return device_.num_banks(); }
  std::size_t num_channels() const noexcept { return geometry_.num_channels; }
  std::size_t banks_per_channel() const noexcept {
    return geometry_.banks_per_channel();
  }

  /// Simulated engine cycles of every pass so far: the modeled account.
  std::uint64_t total_cycles() const noexcept { return modeled_cycles(); }
  double total_energy_nj() const noexcept { return energy_nj_; }
  double total_us() const;
  /// Engine passes executed (one per wave, memoized schedule or not).
  std::uint64_t engine_passes() const noexcept { return engine_passes_; }
  std::uint64_t plan_cache_hits() const noexcept { return plans_.hits(); }
  std::uint64_t plan_cache_misses() const noexcept { return plans_.misses(); }
  /// Waves whose schedule came from the memo (functional pass only), and
  /// waves the engine scheduled (both passes).
  std::uint64_t schedule_hits() const noexcept { return schedules_.hits(); }
  std::uint64_t schedule_misses() const noexcept {
    return schedules_.misses();
  }

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
  /// ONE engine pass for the whole wave; returns its makespan. Items are
  /// placed channel-major: item j goes to channel j % num_channels(), and
  /// within a channel items rotate across that channel's
  /// banks_per_channel() banks; when a bank receives several items they
  /// are placed at disjoint base rows and execute back-to-back within the
  /// pass. (A single-channel device reduces to the classic item j -> bank
  /// j % num_banks() placement.) Per-bank command traces come from the
  /// plan cache (one plan per (params, direction, bank, base_row),
  /// bank-retargeted from the bank-0 twin); each bank's cached traces, in
  /// item order, are that bank's engine program, passed without copying.
  /// A schedule memo hit runs only the engine's functional pass and books
  /// the memoized makespan and energy.
  std::uint64_t run_wave(std::span<const BatchItem> wave) override;
  std::shared_ptr<const mapping::MappedNtt> plan_for(
      const ntt::NttParams& params, bool inverse_direction,
      std::uint16_t bank, std::uint32_t base_row);

  dram::DramGeometry geometry_;
  std::size_t num_buffers_;
  double freq_mhz_;
  pim::PimDevice device_;
  sim::Engine engine_;
  mapping::PlanCache plans_;

  /// What a pass books: its makespan and its energy.
  struct Schedule {
    std::uint64_t cycles = 0;
    double energy_nj = 0;
  };
  /// Memo entries: 8x the 510 shapes of all waves of 1-8 items at one n,
  /// each item forward or inverse.
  static constexpr std::size_t kScheduleMemoEntries = 4096;
  /// Keyed on every bank's plan shape ids in program order, each bank's
  /// list closed by a 0 (no plan has shape id 0): a pass's schedule and
  /// energy depend on nothing else, since the geometry and the engine
  /// configuration are fixed for the backend's lifetime.
  LruCache<std::vector<std::uint64_t>, Schedule> schedules_{
      kScheduleMemoEntries};

  double energy_nj_ = 0;
  std::uint64_t engine_passes_ = 0;
  /// A forward item's psi-scaled copy, reused across items and waves.
  std::vector<std::uint32_t> staged_;

  /// Wave capture state mutated by every engine pass. Confined to the
  /// driving thread like the backend itself; the wrapper asserts that
  /// contract on every access in debug builds.
  struct WaveLog {
    std::vector<WaveSlot> last_wave;
    std::vector<RecordedWave> recorded;
    bool record = false;
  };
  sync::ThreadConfined<WaveLog> wave_log_;
};

}  // namespace nttpim::fhe
