#include "fhe/cpu_backend.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <utility>

#include "common/bitutil.h"
#include "common/check.h"
#include "common/random.h"
#include "ntt/tables.h"

namespace nttpim::fhe {

namespace {

void transform(const BatchItem& item) {
  const ntt::NttTables& tables = item.params->tables();
  if (item.inverse)
    tables.inverse_negacyclic(*item.poly);
  else
    tables.forward_negacyclic(*item.poly);
}

}  // namespace

CpuBackend::CpuBackend(const Config& config)
    : cfg_(config), lanes_(std::max<std::size_t>(1, config.threads)) {
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

void CpuBackend::run_lane(std::size_t lane) noexcept {
  // Lanes touch disjoint polynomials (validated), so the only shared
  // write is the mutex-guarded first error.
  for (std::size_t j = lane; j < batch_.size(); j += lanes_) {
    try {
      transform(batch_[j]);
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

std::uint64_t CpuBackend::run_wave(std::span<const BatchItem> items) {
  if (lanes_ == 1 || items.size() == 1) {
    // Serial tight loop; let a single item's error propagate directly.
    for (const auto& item : items) transform(item);
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
  // Elapsed time: the busiest lane's total, item j having run on lane
  // j % lanes_.
  std::vector<std::uint64_t> lane_cycles(std::min(lanes_, items.size()), 0);
  for (std::size_t j = 0; j < items.size(); ++j)
    lane_cycles[j % lanes_] += item_cycles(items[j].params->n());
  return *std::max_element(lane_cycles.begin(), lane_cycles.end());
}

std::uint64_t CpuBackend::item_cycles(std::size_t n) const {
  const auto log2n = static_cast<double>(exact_log2(n));
  return static_cast<std::uint64_t>(cfg_.cycles_per_point_stage *
                                    static_cast<double>(n) * log2n);
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
    const BatchItem item{&p, &params, /*inverse=*/false};
    const auto t0 = std::chrono::steady_clock::now();
    transform(item);
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
