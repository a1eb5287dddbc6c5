// CpuBackend as a first-class serving backend: pool-vs-serial equivalence,
// the shared batch-validation contract (including the NttBackend default
// path a minimal backend inherits), the calibrated n log n cost model, and
// a CPU-only NttService round trip. Labeled `service` alongside `unit` so
// the TSan CI job exercises the worker-pool rendezvous.
#include <cmath>
#include <memory>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "fhe/cpu_backend.h"
#include "ntt/negacyclic.h"
#include "ntt/params.h"
#include "ntt/poly.h"
#include "service/backend.h"
#include "service/ntt_service.h"

namespace {

using namespace nttpim;
using fhe::BatchItem;
using fhe::CpuBackend;

ntt::NttParams make_params(std::size_t n = 256, unsigned bits = 30) {
  return ntt::NttParams::create(n, bits);
}

fhe::CpuBackend::Config pool_config(std::size_t threads) {
  CpuBackend::Config cfg;
  cfg.threads = threads;
  return cfg;
}

// A backend that implements nothing beyond the pure virtuals, so every
// batch entry point runs through the NttBackend defaults.
class MinimalBackend final : public fhe::NttBackend {
 public:
  void forward(std::vector<std::uint32_t>& a,
               const ntt::NttParams& params) override {
    ntt::forward_negacyclic_ntt(a, params);
    transforms_.fetch_add(1, std::memory_order_relaxed);
  }
  void inverse(std::vector<std::uint32_t>& a,
               const ntt::NttParams& params) override {
    ntt::inverse_negacyclic_ntt(a, params);
    transforms_.fetch_add(1, std::memory_order_relaxed);
  }
};

// One mixed wave: three parameter sets, both directions, enough items that
// a 3-lane pool wraps around. Returns {polys, items-into-polys}.
struct MixedWave {
  std::vector<ntt::NttParams> params;
  std::vector<std::vector<std::uint32_t>> polys;
  std::vector<BatchItem> items;
};

MixedWave make_mixed_wave(std::uint64_t seed) {
  MixedWave w;
  w.params.push_back(make_params(256));
  w.params.push_back(make_params(512, 29));
  w.params.push_back(make_params(1024, 29));
  Rng rng(seed);
  for (std::size_t j = 0; j < 8; ++j) {
    const auto& p = w.params[j % w.params.size()];
    w.polys.push_back(rng.residues(p.n(), p.q()));
  }
  for (std::size_t j = 0; j < w.polys.size(); ++j)
    w.items.push_back({&w.polys[j], &w.params[j % w.params.size()],
                       /*inverse=*/j % 3 == 0});
  return w;
}

// -------------------------------------------------------- pool execution

TEST(CpuBackendUnit, PoolMatchesSerialMixedBatch) {
  auto serial_wave = make_mixed_wave(41);
  auto pool_wave = make_mixed_wave(41);
  ASSERT_EQ(serial_wave.polys, pool_wave.polys);

  CpuBackend serial;  // threads = 1: the tight loop
  CpuBackend pool(pool_config(3));
  EXPECT_EQ(serial.lanes(), 1u);
  EXPECT_EQ(pool.lanes(), 3u);

  serial.transform_batch_mixed(serial_wave.items);
  pool.transform_batch_mixed(pool_wave.items);

  EXPECT_EQ(serial_wave.polys, pool_wave.polys);
  EXPECT_EQ(serial.transform_count(), pool.transform_count());
  EXPECT_EQ(serial.modeled_cycles(), pool.modeled_cycles());
}

TEST(CpuBackendUnit, PoolMatchesSingleTransforms) {
  const auto params = make_params(256);
  Rng rng(7);
  auto reference = rng.residues(params.n(), params.q());
  auto batched = reference;

  CpuBackend one_by_one;
  one_by_one.forward(reference, params);

  CpuBackend pool(pool_config(2));
  std::vector<BatchItem> items{{&batched, &params, false}};
  pool.transform_batch_mixed(items);
  EXPECT_EQ(batched, reference);

  // Round trip through the pool path restores the input.
  auto restored = batched;
  std::vector<BatchItem> back{{&restored, &params, true}};
  pool.transform_batch_mixed(back);
  one_by_one.inverse(reference, params);
  EXPECT_EQ(restored, reference);
}

TEST(CpuBackendUnit, PoolSurfacesItemError) {
  const auto params = make_params(256);
  Rng rng(9);
  std::vector<std::vector<std::uint32_t>> polys;
  for (int j = 0; j < 4; ++j) polys.push_back(rng.residues(params.n(), params.q()));
  polys[2].resize(100);  // wrong length: that item's transform throws

  CpuBackend pool(pool_config(2));
  std::vector<BatchItem> items;
  for (auto& p : polys) items.push_back({&p, &params, false});
  EXPECT_THROW(pool.transform_batch_mixed(items), std::invalid_argument);

  // The backend stays usable after a failed wave.
  auto poly = rng.residues(params.n(), params.q());
  std::vector<BatchItem> retry{{&poly, &params, false}};
  EXPECT_NO_THROW(pool.transform_batch_mixed(retry));
}

// ------------------------------------------------ batch-item validation

TEST(CpuBackendUnit, RejectsAliasedAndIncompleteItems) {
  const auto params = make_params(256);
  Rng rng(11);
  auto poly = rng.residues(params.n(), params.q());

  CpuBackend pool(pool_config(2));
  std::vector<BatchItem> aliased{{&poly, &params, false},
                                 {&poly, &params, true}};
  EXPECT_THROW(pool.transform_batch_mixed(aliased), std::invalid_argument);

  std::vector<BatchItem> null_poly{{nullptr, &params, false}};
  EXPECT_THROW(pool.transform_batch_mixed(null_poly), std::invalid_argument);

  std::vector<BatchItem> null_params{{&poly, nullptr, false}};
  EXPECT_THROW(pool.transform_batch_mixed(null_params), std::invalid_argument);
}

// Regression for the distinct-vector precondition on the *base* default
// path: a minimal backend that never overrides transform_batch_mixed must
// reject aliased items too, not silently double-transform the vector.
TEST(CpuBackendUnit, BaseDefaultBatchValidatesAndLoops) {
  const auto params = make_params(256);
  Rng rng(13);
  auto poly = rng.residues(params.n(), params.q());

  MinimalBackend minimal;
  std::vector<BatchItem> aliased{{&poly, &params, false},
                                 {&poly, &params, false}};
  EXPECT_THROW(minimal.transform_batch_mixed(aliased), std::invalid_argument);
  EXPECT_EQ(minimal.transform_count(), 0u);

  // The default path itself serves correctly: same outputs as CpuBackend.
  auto base_wave = make_mixed_wave(17);
  auto cpu_wave = make_mixed_wave(17);
  minimal.transform_batch_mixed(base_wave.items);
  CpuBackend cpu;
  cpu.transform_batch_mixed(cpu_wave.items);
  EXPECT_EQ(base_wave.polys, cpu_wave.polys);
  EXPECT_EQ(minimal.transform_count(), base_wave.items.size());

  // And the same-parameter convenience funnels into the mixed default.
  std::vector<std::vector<std::uint32_t>> polys;
  for (int j = 0; j < 3; ++j) polys.push_back(rng.residues(params.n(), params.q()));
  auto expected = polys;
  minimal.transform_batch(polys, params);
  for (auto& p : expected) cpu.forward(p, params);
  EXPECT_EQ(polys, expected);
}

// ------------------------------------------------------------ cost model

TEST(CpuBackendUnit, EstimateReplaysLanePlacement) {
  const auto p1024 = make_params(1024, 29);
  const auto p256 = make_params(256);
  // item_cycles(n) = 6.0 * n * log2(n) with the default fit.
  constexpr std::uint64_t kBig = 6 * 1024 * 10;   // 61440
  constexpr std::uint64_t kSmall = 6 * 256 * 8;   // 12288
  std::vector<BatchItem> items{{nullptr, &p1024, false},
                               {nullptr, &p256, false},
                               {nullptr, &p256, true}};

  // Two lanes: lane 0 gets items 0 and 2, lane 1 gets item 1.
  CpuBackend two_lanes(pool_config(2));
  EXPECT_EQ(two_lanes.estimate_wave_cycles(items), kBig + kSmall);

  // Serial: the plain sum.
  CpuBackend serial;
  EXPECT_EQ(serial.estimate_wave_cycles(items), kBig + 2 * kSmall);

  // More lanes than items: the single biggest item dominates.
  CpuBackend four_lanes(pool_config(4));
  EXPECT_EQ(four_lanes.estimate_wave_cycles(items), kBig);

  EXPECT_EQ(serial.estimate_wave_cycles({}), 0u);
}

TEST(CpuBackendUnit, ModeledCyclesAccrueCostModelPrice) {
  const auto params = make_params(256);
  constexpr std::uint64_t kItem = 6 * 256 * 8;
  Rng rng(19);

  CpuBackend cpu(pool_config(2));
  EXPECT_EQ(cpu.modeled_cycles(), 0u);

  auto poly = rng.residues(params.n(), params.q());
  cpu.forward(poly, params);
  EXPECT_EQ(cpu.modeled_cycles(), kItem);
  EXPECT_EQ(cpu.transform_count(), 1u);

  auto a = rng.residues(params.n(), params.q());
  auto b = rng.residues(params.n(), params.q());
  std::vector<BatchItem> items{{&a, &params, false}, {&b, &params, true}};
  cpu.transform_batch_mixed(items);
  EXPECT_EQ(cpu.modeled_cycles(), 3 * kItem);
  EXPECT_EQ(cpu.transform_count(), 3u);
}

// Rolling calibration: every executed wave's measured wall time feeds an
// EWMA that refines the *routing* estimates, while the modeled-cycle
// account deliberately keeps the boot constant (the hardware account has
// no epochs — see cpu_backend.h).
TEST(CpuBackendUnit, RollingCalibrationRefinesEstimatesOnly) {
  CpuBackend cpu;
  EXPECT_DOUBLE_EQ(cpu.calibrated_cycles_per_point_stage(), 6.0);

  // Injected samples follow the exact EWMA arithmetic (alpha 0.25).
  cpu.record_calibration_sample(10.0);
  EXPECT_DOUBLE_EQ(cpu.calibrated_cycles_per_point_stage(), 7.0);
  cpu.record_calibration_sample(3.0);
  EXPECT_DOUBLE_EQ(cpu.calibrated_cycles_per_point_stage(), 6.0);
  cpu.record_calibration_sample(2.0);
  EXPECT_DOUBLE_EQ(cpu.calibrated_cycles_per_point_stage(), 5.0);

  // Estimates price with the rolling constant...
  const auto params = make_params(256);
  std::vector<BatchItem> items{{nullptr, &params, false}};
  EXPECT_EQ(cpu.estimate_wave_cycles(items),
            static_cast<std::uint64_t>(5.0 * 256 * 8));

  // ...while the modeled account still charges the boot constant.
  Rng rng(31);
  auto poly = rng.residues(params.n(), params.q());
  cpu.forward(poly, params);
  EXPECT_EQ(cpu.modeled_cycles(), 6u * 256 * 8);

  // A glitched sample clamps instead of collapsing the constant.
  cpu.record_calibration_sample(-5.0);
  EXPECT_GT(cpu.calibrated_cycles_per_point_stage(), 0.0);

  // Executed batches really do feed the EWMA: the constant moves off its
  // seed after real work.
  CpuBackend live;
  auto a = rng.residues(params.n(), params.q());
  auto b = rng.residues(params.n(), params.q());
  std::vector<BatchItem> batch{{&a, &params, false}, {&b, &params, true}};
  live.transform_batch_mixed(batch);
  EXPECT_NE(live.calibrated_cycles_per_point_stage(), 6.0);
}

TEST(CpuBackendUnit, CalibrationReturnsPositiveFiniteFit) {
  const double fit =
      CpuBackend::measure_cycles_per_point_stage(1200.0, 256, /*reps=*/3);
  EXPECT_TRUE(std::isfinite(fit));
  EXPECT_GT(fit, 0.0);

  CpuBackend::Config cfg;
  cfg.cycles_per_point_stage = fit;
  CpuBackend calibrated(cfg);
  const auto params = make_params(256);
  std::vector<BatchItem> items{{nullptr, &params, false}};
  EXPECT_GT(calibrated.estimate_wave_cycles(items), 0u);

  EXPECT_THROW(CpuBackend::measure_cycles_per_point_stage(-1.0),
               std::invalid_argument);
  EXPECT_THROW(CpuBackend::measure_cycles_per_point_stage(1200.0, 256, 0),
               std::invalid_argument);
}

// ----------------------------------------------------- CPU-only serving

TEST(CpuServiceE2E, CpuOnlyServiceMatchesReference) {
  service::ServiceConfig cfg;
  cfg.backend.descriptors = {service::make_cpu_descriptor(/*threads=*/2)};
  cfg.backend.banks_per_shard = 4;
  cfg.former.flush_window = std::chrono::microseconds(200);
  service::NttService svc(cfg);
  ASSERT_EQ(svc.shards(), 1u);
  EXPECT_EQ(svc.shard_descriptors()[0].kind, service::BackendKind::kCpu);

  const auto p256 = std::make_shared<const ntt::NttParams>(make_params(256));
  const auto p512 =
      std::make_shared<const ntt::NttParams>(make_params(512, 29));
  Rng rng(23);
  CpuBackend reference;

  std::vector<std::future<std::vector<std::uint32_t>>> futures;
  std::vector<std::vector<std::uint32_t>> expected;
  for (std::size_t r = 0; r < 12; ++r) {
    const auto& params = (r % 2 == 0) ? p256 : p512;
    auto poly = rng.residues(params->n(), params->q());
    auto want = poly;
    service::SubmitOptions options;
    options.inverse = r % 3 == 0;
    if (options.inverse)
      reference.inverse(want, *params);
    else
      reference.forward(want, *params);
    expected.push_back(std::move(want));
    futures.push_back(svc.submit(std::move(poly), params, options));
  }

  auto a = rng.residues(p256->n(), p256->q());
  auto b = rng.residues(p256->n(), p256->q());
  auto fa = a;
  auto fb = b;
  reference.forward(fa, *p256);
  reference.forward(fb, *p256);
  auto want_product = ntt::pointwise_mul(fa, fb, p256->q());
  reference.inverse(want_product, *p256);
  auto product = svc.submit_multiply(std::move(a), std::move(b), p256);

  for (std::size_t r = 0; r < futures.size(); ++r)
    EXPECT_EQ(futures[r].get(), expected[r]) << "request " << r;
  EXPECT_EQ(product.get(), want_product);

  svc.drain();
  const auto stats = svc.stats();
  EXPECT_EQ(stats.completed, 13u);
  ASSERT_EQ(stats.shards.size(), 1u);
  EXPECT_EQ(stats.shards[0].kind, service::BackendKind::kCpu);
  EXPECT_GT(stats.shards[0].modeled_cycles, 0u);
  EXPECT_GT(stats.shards[0].estimated_executed_cycles, 0u);
}

}  // namespace
