// CpuBackend as a first-class serving backend: pool-vs-serial equivalence,
// the shared batch-validation contract (enforced by the NttBackend base for
// any backend), the elapsed modeled account on the fitted n log n cost
// model, and a CPU-only NttService round trip. Labeled `service` alongside
// `unit` so the TSan CI job exercises the worker-pool rendezvous.
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

// A backend that implements only run_wave, so validation and booking are
// the NttBackend base's alone. Each wave takes one modeled cycle per item.
class MinimalBackend final : public fhe::NttBackend {
 public:
  std::size_t waves = 0;  ///< run_wave calls

 private:
  std::uint64_t run_wave(std::span<const BatchItem> items) override {
    ++waves;
    for (const BatchItem& item : items) {
      if (item.inverse)
        ntt::inverse_negacyclic_ntt(*item.poly, *item.params);
      else
        ntt::forward_negacyclic_ntt(*item.poly, *item.params);
    }
    return items.size();
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
  // Elapsed time: three lanes finish the wave before one lane does.
  EXPECT_GT(pool.modeled_cycles(), 0u);
  EXPECT_LT(pool.modeled_cycles(), serial.modeled_cycles());
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

// Four lanes read one parameter set's tables at once (the TSan job runs
// this suite): 16 items of one NttParams, both directions, each equal to
// the plain reference transform. Half the items name copies of the
// parameter set, which share its tables rather than rebuilding them.
TEST(CpuBackendUnit, LanesShareOneParameterSetsTables) {
  const auto params = make_params(1024, 30);
  const std::vector<ntt::NttParams> copies(2, params);
  for (const auto& copy : copies) EXPECT_EQ(&copy.tables(), &params.tables());

  Rng rng(31);
  std::vector<std::vector<std::uint32_t>> polys;
  for (std::size_t j = 0; j < 16; ++j)
    polys.push_back(rng.residues(params.n(), params.q()));
  auto expected = polys;
  std::vector<BatchItem> items;
  for (std::size_t j = 0; j < polys.size(); ++j) {
    const bool inverse = j % 2 == 1;
    if (inverse)
      ntt::inverse_negacyclic_ntt(expected[j], params);
    else
      ntt::forward_negacyclic_ntt(expected[j], params);
    items.push_back({&polys[j], j < 8 ? &params : &copies[j % 2], inverse});
  }

  CpuBackend pool(pool_config(4));
  ASSERT_EQ(pool.lanes(), 4u);
  pool.transform_batch_mixed(items);
  EXPECT_EQ(polys, expected);
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

// The base validates every wave before any backend runs it: a minimal
// backend that implements only run_wave rejects aliased and incomplete
// items without running or booking anything, skips an empty wave, and
// books each wave it runs once — forward(), inverse() and transform_batch()
// included.
TEST(CpuBackendUnit, BaseValidatesAndBooksMinimalBackend) {
  const auto params = make_params(256);
  Rng rng(13);
  auto poly = rng.residues(params.n(), params.q());

  MinimalBackend minimal;
  std::vector<BatchItem> aliased{{&poly, &params, false},
                                 {&poly, &params, false}};
  EXPECT_THROW(minimal.transform_batch_mixed(aliased), std::invalid_argument);
  std::vector<BatchItem> null_poly{{nullptr, &params, false}};
  EXPECT_THROW(minimal.transform_batch_mixed(null_poly), std::invalid_argument);
  minimal.transform_batch_mixed({});
  EXPECT_EQ(minimal.waves, 0u);
  EXPECT_EQ(minimal.transform_count(), 0u);
  EXPECT_EQ(minimal.modeled_cycles(), 0u);

  // A wave runs once and is booked whole: same outputs as CpuBackend.
  auto base_wave = make_mixed_wave(17);
  auto cpu_wave = make_mixed_wave(17);
  minimal.transform_batch_mixed(base_wave.items);
  CpuBackend cpu;
  cpu.transform_batch_mixed(cpu_wave.items);
  EXPECT_EQ(base_wave.polys, cpu_wave.polys);
  EXPECT_EQ(minimal.waves, 1u);
  EXPECT_EQ(minimal.transform_count(), base_wave.items.size());
  EXPECT_EQ(minimal.modeled_cycles(), base_wave.items.size());

  // The conveniences are one wave each.
  std::vector<std::vector<std::uint32_t>> polys;
  for (int j = 0; j < 3; ++j) polys.push_back(rng.residues(params.n(), params.q()));
  auto expected = polys;
  minimal.transform_batch(polys, params);
  for (auto& p : expected) cpu.forward(p, params);
  EXPECT_EQ(polys, expected);
  minimal.inverse(polys[0], params);
  cpu.inverse(expected[0], params);
  EXPECT_EQ(polys[0], expected[0]);
  EXPECT_EQ(minimal.waves, 3u);
  EXPECT_EQ(minimal.transform_count(), base_wave.items.size() + 4);
}

// ------------------------------------------------------------ cost model

// The modeled account is elapsed time: a wave books its busiest lane's
// total at the fitted constant, replaying the pool's placement (item j on
// lane j % lanes), and successive waves add up.
TEST(CpuBackendUnit, ModeledCyclesBookBusiestLane) {
  const auto p1024 = make_params(1024, 29);
  const auto p256 = make_params(256);
  // item_cycles(n) = 1.25 * n * log2(n) with the default fit.
  constexpr std::uint64_t kBig = 1024 * 10 * 5 / 4;  // 12800
  constexpr std::uint64_t kSmall = 256 * 8 * 5 / 4;   // 2560
  const auto one_wave = [&](CpuBackend& cpu) {
    Rng rng(19);
    auto big = rng.residues(p1024.n(), p1024.q());
    auto a = rng.residues(p256.n(), p256.q());
    auto b = rng.residues(p256.n(), p256.q());
    const std::vector<BatchItem> items{
        {&big, &p1024, false}, {&a, &p256, false}, {&b, &p256, true}};
    const std::uint64_t before = cpu.modeled_cycles();
    cpu.transform_batch_mixed(items);
    return cpu.modeled_cycles() - before;
  };

  // Two lanes: lane 0 runs items 0 and 2, lane 1 runs item 1.
  CpuBackend two_lanes(pool_config(2));
  EXPECT_EQ(one_wave(two_lanes), kBig + kSmall);

  // Serial: the plain sum.
  CpuBackend serial;
  EXPECT_EQ(one_wave(serial), kBig + 2 * kSmall);

  // More lanes than items: the single biggest item dominates.
  CpuBackend four_lanes(pool_config(4));
  EXPECT_EQ(one_wave(four_lanes), kBig);
  EXPECT_EQ(four_lanes.transform_count(), 3u);

  // Waves add up: a one-item wave, then the mixed wave again.
  auto poly = Rng(23).residues(p256.n(), p256.q());
  four_lanes.forward(poly, p256);
  EXPECT_EQ(four_lanes.modeled_cycles(), kBig + kSmall);
  EXPECT_EQ(one_wave(four_lanes), kBig);
  EXPECT_EQ(four_lanes.modeled_cycles(), 2 * kBig + kSmall);
  EXPECT_EQ(four_lanes.transform_count(), 7u);
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
  auto poly = Rng(29).residues(params.n(), params.q());
  calibrated.forward(poly, params);
  EXPECT_GT(calibrated.modeled_cycles(), 0u);

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
}

}  // namespace
