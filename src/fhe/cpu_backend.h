// Host-CPU serving backend.
//
// CpuBackend serves the table-driven negacyclic kernels of ntt/tables.h:
// each item reads its parameter set's precomputed twiddle, psi and
// bit-reversal tables, every multiply a Shoup multiply, bit-identical to
// the plain transforms that stay the golden model (ntt/negacyclic.h). A
// CPU shard pulls waves next to the PIM shards: the deployment model
// NTT-PIM (and MeNTT/BP-NTT) assume, where the host CPU path coexists with
// the in-memory accelerator, absorbing overflow traffic while the PIM
// shards are busy.
//
// Two things make it production-shaped rather than a loop around the
// golden model:
//  - run_wave() dispatches the wave's items over a small worker pool
//    (Config::threads lanes, item j on lane j % lanes; the calling thread
//    drives lane 0), preserving the distinct-vector contract — lanes touch
//    disjoint polynomials and no counter. threads <= 1 degrades to the
//    tight serial loop.
//  - its modeled account is elapsed time in the PIM backend's
//    modeled-cycle unit (see NttBackend::modeled_cycles): one item costs
//    cycles_per_point_stage * n * log2(n) modeled cycles — the classic
//    n log n fit of the served kernel — and a wave costs its busiest
//    lane's total, computed once on the calling thread after the lanes
//    finish. It is deterministic for a fixed Config.
#pragma once

#include <cstdint>
#include <exception>
#include <thread>
#include <vector>

#include "fhe/ntt_backend.h"
#include "sync/mutex.h"

namespace nttpim::fhe {

class CpuBackend final : public NttBackend {
 public:
  struct Config {
    /// Worker-pool lanes for a wave (the calling thread drives lane 0, so
    /// `threads` lanes spawn threads-1 pool threads). <= 1 means the
    /// serial tight loop.
    std::size_t threads = 1;
    /// Modeled device clock the cost model normalizes to, in MHz. Keep it
    /// equal to the PIM shards' freq_mhz so every shard's modeled cycles
    /// share one unit.
    double freq_mhz = 1200.0;
    /// Fitted cost constant: one n-point transform is priced at
    /// cycles_per_point_stage * n * log2(n) modeled cycles. The default is
    /// the fit of the served table kernel by this rule: the lowest value
    /// measure_cycles_per_point_stage() (n = 1024, best of 9, 1200 MHz)
    /// returned over 105 calls in five processes, rounded to a quarter
    /// cycle. A RelWithDebInfo gcc 12 build on a shared 4-core x86-64 VM
    /// read 1.253 (contended calls read up to 3.8), so an n = 1024 item is
    /// priced at 10.7 us. Calibrate on the deployment host with
    /// measure_cycles_per_point_stage() for a host-fitted constant.
    double cycles_per_point_stage = 1.25;
  };

  CpuBackend() : CpuBackend(Config{}) {}
  explicit CpuBackend(const Config& config);
  ~CpuBackend() override;  ///< joins the worker pool

  CpuBackend(const CpuBackend&) = delete;
  CpuBackend& operator=(const CpuBackend&) = delete;

  std::size_t lanes() const noexcept { return lanes_; }

  /// Microbenchmark the served forward kernel (ntt/tables.h) on this host
  /// and return the fitted cycles_per_point_stage at `freq_mhz`: the best
  /// of `reps` timed n-point forward transforms, as modeled cycles per
  /// n*log2(n). Takes ~reps transforms of wall-clock; call it once at
  /// deployment and reuse the constant.
  static double measure_cycles_per_point_stage(double freq_mhz = 1200.0,
                                               std::size_t n = 1024,
                                               int reps = 9);

 private:
  /// One wave, item j executed on lane j % threads; returns the busiest
  /// lane's modeled cycles. The wave fails as a unit: if any item's
  /// transform throws, the first error is rethrown after every lane
  /// finished and the wave's output state is unspecified (same contract as
  /// a mid-pass PIM failure).
  std::uint64_t run_wave(std::span<const BatchItem> items) override;
  /// Price of one n-point transform in modeled cycles (Config's fit).
  std::uint64_t item_cycles(std::size_t n) const;
  /// Execute every item of batch_ whose index % lanes_ == lane.
  void run_lane(std::size_t lane) noexcept;
  void pool_main(std::size_t lane);

  const Config cfg_;
  const std::size_t lanes_;

  // Batch rendezvous: run_wave publishes the wave under mu_,
  // bumps the epoch, runs lane 0 itself, and waits for the pool lanes.
  sync::Mutex mu_;
  sync::CondVar work_cv_;  ///< pool: new epoch / stop
  sync::CondVar done_cv_;  ///< caller: all pool lanes finished
  /// Deliberately NOT guarded_by(mu_): the span is published under mu_
  /// (with the epoch bump) but *read lock-free* by run_lane between the
  /// two rendezvous — the epoch handshake through mu_ provides the
  /// happens-before for both the publication and the caller's teardown
  /// (which only clears it after lanes_running_ drained to 0).
  std::span<const BatchItem> batch_{};
  std::uint64_t epoch_ NTTPIM_GUARDED_BY(mu_) = 0;
  std::size_t lanes_running_ NTTPIM_GUARDED_BY(mu_) = 0;
  /// First failing item's error.
  std::exception_ptr batch_error_ NTTPIM_GUARDED_BY(mu_);
  bool stop_ NTTPIM_GUARDED_BY(mu_) = false;
  std::vector<std::thread> pool_;  ///< lanes 1..lanes_-1
};

}  // namespace nttpim::fhe
