#include "fhe/cpu_backend.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <utility>

#include "common/bitutil.h"
#include "common/check.h"
#include "common/random.h"
#include "ntt/negacyclic.h"

namespace nttpim::fhe {

CpuBackend::CpuBackend(const Config& config)
    : cfg_(config),
      lanes_(std::max<std::size_t>(1, config.threads)),
      calibrated_(config.cycles_per_point_stage) {
  NTTPIM_EXPECT_MSG(cfg_.freq_mhz > 0, "the modeled clock must be positive");
  NTTPIM_EXPECT_MSG(cfg_.cycles_per_point_stage > 0,
                    "the fitted cost constant must be positive");
  pool_.reserve(lanes_ - 1);
  for (std::size_t lane = 1; lane < lanes_; ++lane)
    pool_.emplace_back([this, lane] { pool_main(lane); });
}

CpuBackend::~CpuBackend() {
  {
    const sync::MutexLock lk(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : pool_) t.join();
}

void CpuBackend::forward(std::vector<std::uint32_t>& a,
                         const ntt::NttParams& params) {
  ntt::forward_negacyclic_ntt(a, params);
  modeled_cycles_.fetch_add(item_cycles(params.n()),
                            std::memory_order_relaxed);
  transforms_.fetch_add(1, std::memory_order_relaxed);
}

void CpuBackend::inverse(std::vector<std::uint32_t>& a,
                         const ntt::NttParams& params) {
  ntt::inverse_negacyclic_ntt(a, params);
  modeled_cycles_.fetch_add(item_cycles(params.n()),
                            std::memory_order_relaxed);
  transforms_.fetch_add(1, std::memory_order_relaxed);
}

void CpuBackend::run_lane(std::size_t lane) noexcept {
  // Lanes touch disjoint polynomials (validated), so the only shared
  // writes are the relaxed counters and the mutex-guarded first error.
  for (std::size_t j = lane; j < batch_.size(); j += lanes_) {
    const BatchItem& item = batch_[j];
    try {
      if (item.inverse)
        ntt::inverse_negacyclic_ntt(*item.poly, *item.params);
      else
        ntt::forward_negacyclic_ntt(*item.poly, *item.params);
      modeled_cycles_.fetch_add(item_cycles(item.params->n()),
                                std::memory_order_relaxed);
      transforms_.fetch_add(1, std::memory_order_relaxed);
    } catch (...) {
      const sync::MutexLock lk(mu_);
      if (!batch_error_) batch_error_ = std::current_exception();
    }
  }
}

void CpuBackend::pool_main(std::size_t lane) {
  std::uint64_t seen_epoch = 0;
  for (;;) {
    {
      sync::MutexLock lk(mu_);
      while (!stop_ && epoch_ == seen_epoch) work_cv_.wait(lk);
      if (stop_) return;
      seen_epoch = epoch_;
    }
    run_lane(lane);
    {
      const sync::MutexLock lk(mu_);
      --lanes_running_;
    }
    done_cv_.notify_all();
  }
}

void CpuBackend::transform_batch_mixed(std::span<const BatchItem> items) {
  validate_batch_items(items);
  if (items.empty()) return;
  const auto t0 = std::chrono::steady_clock::now();
  if (lanes_ == 1 || items.size() == 1) {
    // Serial tight loop; let a single item's error propagate directly.
    for (const auto& item : items) {
      if (item.inverse)
        inverse(*item.poly, *item.params);
      else
        forward(*item.poly, *item.params);
    }
  } else {
    {
      const sync::MutexLock lk(mu_);
      batch_ = items;
      batch_error_ = nullptr;
      lanes_running_ = lanes_ - 1;
      ++epoch_;
    }
    work_cv_.notify_all();
    run_lane(0);  // the caller is lane 0
    std::exception_ptr error;
    {
      sync::MutexLock lk(mu_);
      while (lanes_running_ != 0) done_cv_.wait(lk);
      batch_ = {};
      error = std::exchange(batch_error_, nullptr);
    }
    if (error) std::rethrow_exception(error);
  }
  const auto t1 = std::chrono::steady_clock::now();
  feed_calibration(items,
                   std::chrono::duration<double, std::nano>(t1 - t0).count());
}

void CpuBackend::feed_calibration(std::span<const BatchItem> items,
                                  double wall_ns) {
  // Normalize the wave's wall time by its busiest lane's n*log2(n) weight:
  // the lanes ran concurrently, so the wave's duration is the busiest
  // lane's duration — the same placement replay the estimate performs.
  std::vector<double> lane_weight(std::min(lanes_, items.size()), 0.0);
  for (std::size_t j = 0; j < items.size(); ++j) {
    const auto n = static_cast<double>(items[j].params->n());
    lane_weight[j % lanes_] +=
        n * static_cast<double>(exact_log2(items[j].params->n()));
  }
  double busiest = 0;
  for (const double w : lane_weight) busiest = std::max(busiest, w);
  if (busiest <= 0 || wall_ns <= 0) return;  // timer glitch: skip the sample
  const double measured_cycles = wall_ns * cfg_.freq_mhz / 1000.0;
  record_calibration_sample(measured_cycles / busiest);
}

void CpuBackend::record_calibration_sample(double cycles_per_point_stage) {
  // A glitched sample must never drive the constant to zero or below.
  const double sample = std::max(cycles_per_point_stage, 1e-3);
  const double prev = calibrated_.load(std::memory_order_relaxed);
  calibrated_.store(
      (1.0 - kCalibrationAlpha) * prev + kCalibrationAlpha * sample,
      std::memory_order_relaxed);
}

std::uint64_t CpuBackend::item_cycles(std::size_t n) const {
  const auto log2n = static_cast<double>(exact_log2(n));
  return static_cast<std::uint64_t>(cfg_.cycles_per_point_stage *
                                    static_cast<double>(n) * log2n);
}

std::uint64_t CpuBackend::estimated_item_cycles(std::size_t n) const {
  const auto log2n = static_cast<double>(exact_log2(n));
  return static_cast<std::uint64_t>(
      calibrated_.load(std::memory_order_relaxed) * static_cast<double>(n) *
      log2n);
}

std::uint64_t CpuBackend::estimate_wave_cycles(
    std::span<const BatchItem> items) const {
  if (items.empty()) return 0;
  std::vector<std::uint64_t> lane_cycles(std::min(lanes_, items.size()), 0);
  for (std::size_t j = 0; j < items.size(); ++j) {
    NTTPIM_EXPECT_MSG(items[j].params != nullptr,
                      "estimating a wave needs each item's parameter set");
    lane_cycles[j % lanes_] += estimated_item_cycles(items[j].params->n());
  }
  std::uint64_t makespan = 0;
  for (const std::uint64_t c : lane_cycles) makespan = std::max(makespan, c);
  return makespan;
}

double CpuBackend::measure_cycles_per_point_stage(double freq_mhz,
                                                  std::size_t n, int reps) {
  NTTPIM_EXPECT_MSG(freq_mhz > 0, "the modeled clock must be positive");
  NTTPIM_EXPECT_MSG(reps >= 1, "calibration needs at least one rep");
  const auto params = ntt::NttParams::create(n, 29);
  Rng rng(17);
  const auto poly = rng.residues(n, params.q());
  double best_ns = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < reps; ++rep) {
    auto p = poly;
    const auto t0 = std::chrono::steady_clock::now();
    ntt::forward_negacyclic_ntt(p, params);
    const auto t1 = std::chrono::steady_clock::now();
    best_ns = std::min(
        best_ns, std::chrono::duration<double, std::nano>(t1 - t0).count());
  }
  // ns -> modeled cycles: one cycle is 1000/freq_mhz ns.
  const double cycles = best_ns * freq_mhz / 1000.0;
  const double fit =
      cycles / (static_cast<double>(n) * static_cast<double>(exact_log2(n)));
  // A timer glitch must never produce a zero/negative constant.
  return std::max(fit, 1e-3);
}

}  // namespace nttpim::fhe
