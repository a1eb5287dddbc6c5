// Host-CPU serving backend.
//
// The CPU reference kernels (ntt/reference + the per-(n,q) twiddle cache)
// started life as validation golden models; CpuBackend promotes them to a
// first-class *serving* backend so the dispatcher can route traffic to
// whichever backend — PIM shard or CPU worker — clears it soonest. That is
// the deployment model NTT-PIM (and MeNTT/BP-NTT) assume: the host CPU
// path coexists with the in-memory accelerator, absorbing small transforms
// and overflow traffic while bulk RNS waves stay on the PIM.
//
// Two things make it production-shaped rather than a loop around the
// golden model:
//  - transform_batch_mixed() dispatches the wave's items over a small
//    worker pool (Config::threads lanes, item j on lane j % lanes; the
//    calling thread drives lane 0), preserving the distinct-vector
//    contract — lanes touch disjoint polynomials, so the only shared state
//    is the relaxed transform counter. threads <= 1 degrades to the tight
//    serial loop.
//  - estimate_wave_cycles() is a calibrated cost model in the same
//    modeled-cycle unit as the PIM backend's (see NttBackend): one item
//    costs cycles_per_point_stage * n * log2(n) modeled cycles — the
//    classic n log n fit. The constant starts from the documented default
//    fit of the reference kernel (or a measure_cycles_per_point_stage()
//    boot measurement) and then *tightens with traffic*: every executed
//    wave's measured wall time feeds a rolling EWMA
//    (kCalibrationAlpha), so routing estimates converge on the
//    deployment host's real speed instead of trusting a boot-time
//    constant. A wave's price replays the pool's lane placement and
//    returns the busiest lane's total, mirroring how PimBackend prices
//    its bank placement. The modeled_cycles() *account* deliberately
//    keeps the boot constant — it is the deterministic cross-backend
//    bookkeeping unit, not a routing estimate.
//
// Thread-safety follows the NttBackend contract: single driver for the
// transform methods (the pool is internal), share-readable monotone
// counters, and estimate_wave_cycles safe from any thread (pure arithmetic
// on immutable config).
#pragma once

#include <atomic>
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
    /// Worker-pool lanes for transform_batch_mixed (the calling thread
    /// drives lane 0, so `threads` lanes spawn threads-1 pool threads).
    /// <= 1 means the serial tight loop.
    std::size_t threads = 1;
    /// Modeled device clock the cost model normalizes to, in MHz. Keep it
    /// equal to the PIM shards' freq_mhz so estimates share one unit.
    double freq_mhz = 1200.0;
    /// Fitted cost constant: one n-point transform is priced at
    /// cycles_per_point_stage * n * log2(n) modeled cycles. The default is
    /// the documented fit of the reference negacyclic kernel (measured
    /// ns/(n log2 n) * freq); calibrate on the deployment host with
    /// measure_cycles_per_point_stage() for a tighter starting point.
    double cycles_per_point_stage = 6.0;
  };

  /// EWMA weight of each executed wave's measured calibration sample:
  /// after a wave, calibrated <- (1 - alpha) * calibrated + alpha *
  /// measured cycles-per-point-stage of that wave's busiest lane.
  static constexpr double kCalibrationAlpha = 0.25;

  CpuBackend() : CpuBackend(Config{}) {}
  explicit CpuBackend(const Config& config);
  ~CpuBackend() override;  ///< joins the worker pool

  CpuBackend(const CpuBackend&) = delete;
  CpuBackend& operator=(const CpuBackend&) = delete;

  void forward(std::vector<std::uint32_t>& a,
               const ntt::NttParams& params) override;
  void inverse(std::vector<std::uint32_t>& a,
               const ntt::NttParams& params) override;

  /// One wave, item j executed on lane j % threads. The wave fails as a
  /// unit: if any item's transform throws, the first error is rethrown
  /// after every lane finished and the wave's output state is unspecified
  /// (same contract as a mid-pass PIM failure).
  void transform_batch_mixed(std::span<const BatchItem> items) override;

  /// Busiest-lane makespan of the fitted per-item prices, using the
  /// *rolling* calibration constant (see Config). Items may carry a null
  /// poly; safe from any thread at any time (the constant is an atomic).
  std::uint64_t estimate_wave_cycles(
      std::span<const BatchItem> items) const override;

  /// Cost-model price of everything executed so far — the CPU has no cycle
  /// simulator, so its modeled-hardware account *is* the calibrated model
  /// (deterministic for a fixed Config, unlike wall-clock).
  std::uint64_t modeled_cycles() const noexcept override {
    return modeled_cycles_.load(std::memory_order_relaxed);
  }

  const Config& config() const noexcept { return cfg_; }
  std::size_t lanes() const noexcept { return lanes_; }

  /// The rolling cost constant estimate_wave_cycles prices with: the boot
  /// Config value until the first executed wave, then the EWMA of
  /// measured samples. Safe from any thread.
  double calibrated_cycles_per_point_stage() const noexcept {
    return calibrated_.load(std::memory_order_relaxed);
  }
  /// Fold one measured cycles-per-point-stage sample into the rolling
  /// constant with weight kCalibrationAlpha.
  /// Called internally after each executed wave; public so tests and
  /// operators can inject deterministic samples. Single-driver like the
  /// transform methods.
  void record_calibration_sample(double cycles_per_point_stage);

  /// Microbenchmark the reference negacyclic kernel on this host and
  /// return the fitted cycles_per_point_stage at `freq_mhz`: the best of
  /// `reps` timed n-point forward transforms, as modeled cycles per
  /// n*log2(n). Takes ~reps transforms of wall-clock; call it once at
  /// deployment and reuse the constant.
  static double measure_cycles_per_point_stage(double freq_mhz = 1200.0,
                                               std::size_t n = 1024,
                                               int reps = 9);

 private:
  /// Price of one n-point transform in modeled cycles at the boot
  /// constant (the modeled_cycles() accounting unit).
  std::uint64_t item_cycles(std::size_t n) const;
  /// Same price at the rolling calibrated constant (the routing unit).
  std::uint64_t estimated_item_cycles(std::size_t n) const;
  /// Measure one executed wave (wall nanoseconds, busiest-lane weight)
  /// and feed the EWMA.
  void feed_calibration(std::span<const BatchItem> items, double wall_ns);
  /// Execute every item of batch_ whose index % lanes_ == lane.
  void run_lane(std::size_t lane) noexcept;
  void pool_main(std::size_t lane);

  const Config cfg_;
  const std::size_t lanes_;
  std::atomic<std::uint64_t> modeled_cycles_{0};
  std::atomic<double> calibrated_;  ///< rolling cycles-per-point-stage

  // Batch rendezvous: transform_batch_mixed publishes the wave under mu_,
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
