// kernel: one thread drives fhe::PimBackend::transform_batch_mixed in a
// closed loop on an 8-bank, 1-channel HBM2E device. No service layer runs,
// so engine, staging and trace-merge changes show here and service changes
// must not.
#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <random>
#include <stdexcept>

#include "fhe/pim_backend.h"
#include "ledger.h"
#include "workloads.h"

namespace nttpim::benchmark {

namespace {

constexpr std::size_t kN = 1024;
constexpr std::size_t kModuli = 2;
constexpr std::size_t kBanks = 8;
constexpr std::size_t kWave = 8;  ///< items per wave: one per bank
/// Every kSampleEvery-th traced wave is replayed, at most kMaxSamples.
constexpr std::uint64_t kSampleEvery = 16;
constexpr std::size_t kMaxSamples = 32;

/// Seeded waves of kWave items: half forward and half inverse in a seeded
/// order, each item on a seeded modulus with a seeded case.
class WaveSource {
 public:
  WaveSource(const std::vector<KeyPool>& pools, std::uint64_t seed)
      : pools_(pools), rng_(seed), polys_(kWave), items_(kWave) {}

  /// Fills the next wave's inputs; returns the batch to hand the backend.
  const std::vector<fhe::BatchItem>& next() {
    std::array<bool, kWave> inverse{};
    std::fill(inverse.begin() + kWave / 2, inverse.end(), true);
    std::shuffle(inverse.begin(), inverse.end(), rng_);
    std::uniform_int_distribution<std::size_t> modulus(0, kModuli - 1);
    std::uniform_int_distribution<std::size_t> pick_case(0, kCasesPerKey - 1);
    for (std::size_t j = 0; j < kWave; ++j) {
      // Pools are modulus-major: {forward, inverse} per modulus.
      const KeyPool& pool = pools_[modulus(rng_) * 2 + (inverse[j] ? 1 : 0)];
      wave_[j] = {&pool.cases[pick_case(rng_)], pool.params.get(),
                  inverse[j]};
      polys_[j] = wave_[j].c->a;
      items_[j] = {&polys_[j], pool.params.get(), inverse[j]};
    }
    return items_;
  }

  /// The current wave's outputs that differ from their references.
  std::uint64_t mismatches() const {
    std::uint64_t bad = 0;
    for (std::size_t j = 0; j < kWave; ++j)
      bad += polys_[j] != wave_[j].c->expected;
    return bad;
  }

  /// The current wave, for the replay.
  Wave wave() const { return {wave_.begin(), wave_.end()}; }

 private:
  const std::vector<KeyPool>& pools_;
  std::mt19937_64 rng_;
  std::vector<std::vector<std::uint32_t>> polys_;
  std::vector<fhe::BatchItem> items_;
  std::array<WaveItem, kWave> wave_{};
};

struct KernelPass {
  PassStats stats;
  std::vector<Wave> samples;
  std::uint64_t estimate_cycles = 0;
  std::uint64_t cycles = 0;
};

/// Closed loop for `seconds`. With `spans`, also prices every wave with
/// estimate_wave_cycles and samples waves for the replay.
KernelPass run_pass(fhe::PimBackend& backend, WaveSource& source,
                    double seconds, SpanRecorder* spans) {
  KernelPass pass;
  PassStats& s = pass.stats;
  s.ops_per_sample = kWave;
  const auto start = Clock::now();
  const auto end = start + std::chrono::duration<double>(seconds);
  auto received = start;
  for (std::uint64_t wave = 0; Clock::now() < end; ++wave) {
    const std::vector<fhe::BatchItem>& batch = source.next();
    if (spans) {
      const auto e0 = Clock::now();
      pass.estimate_cycles += backend.estimate_wave_cycles(batch);
      spans->record("estimate_wave_cycles", wave, e0, Clock::now());
    }
    const std::uint64_t cycles0 = backend.total_cycles();
    const auto t0 = Clock::now();
    if (wave > 0) s.lag_us.push_back(us_between(received, t0));
    bool ok = true;
    try {
      backend.transform_batch_mixed(batch);
    } catch (const std::exception&) {
      ok = false;
    }
    received = Clock::now();
    pass.cycles += backend.total_cycles() - cycles0;
    if (spans) spans->record("transform_batch_mixed", wave, t0, received);

    s.attempted += kWave;
    if (ok) {
      s.completed += kWave;
      const std::uint64_t bad = source.mismatches();
      s.mismatches += bad;
      ok = bad == 0;
    } else {
      s.errors += kWave;
    }
    s.latency_us.push_back(ok ? us_between(t0, received)
                              : std::numeric_limits<double>::infinity());
    s.done_s.push_back(us_between(start, received) / 1e6);
    if (spans && wave % kSampleEvery == 0 &&
        pass.samples.size() < kMaxSamples)
      pass.samples.push_back(source.wave());
  }
  s.elapsed_s = us_between(start, received) / 1e6;
  return pass;
}

}  // namespace

void run_kernel(const RunConfig& config, Result& result) {
  const std::vector<KeyPool> pools = make_pools(
      kN, kModuli, {OpKind::kForward, OpKind::kInverse}, config.seed);
  const dram::DramGeometry geometry = dram::hbm2e_geometry(kBanks, 1);

  // Set-up warms every (bank, key) plan: wave w puts key (j + w) % keys on
  // bank j, so len(pools) waves cover every pairing.
  double setup_s = 0;
  auto backend = timed_setup(5, setup_s, [&] {
    auto b = std::make_unique<fhe::PimBackend>(kNumBuffers, kFreqMhz,
                                               geometry);
    std::vector<std::vector<std::uint32_t>> polys(kWave);
    std::vector<fhe::BatchItem> batch(kWave);
    for (std::size_t w = 0; w < pools.size(); ++w) {
      for (std::size_t j = 0; j < kWave; ++j) {
        const KeyPool& pool = pools[(j + w) % pools.size()];
        polys[j] = pool.cases[0].a;
        batch[j] = {&polys[j], pool.params.get(),
                    pool.kind == OpKind::kInverse};
      }
      b->transform_batch_mixed(batch);
      for (std::size_t j = 0; j < kWave; ++j)
        if (polys[j] != pools[(j + w) % pools.size()].cases[0].expected)
          throw std::runtime_error("set-up result differs from the reference");
    }
    return b;
  });

  WaveSource source(pools, config.seed);
  result.count(
      run_pass(*backend, source, std::min(1.0, 0.1 * config.seconds), nullptr)
          .stats);

  if (!config.trace) {
    const KernelPass pass =
        run_pass(*backend, source, config.seconds, nullptr);
    result.count(pass.stats);
    report_end_to_end(pass.stats, setup_s,
                      static_cast<double>(pass.cycles) / kFreqMhz /
                          static_cast<double>(pass.stats.completed),
                      result);
    return;
  }

  const KernelPass untraced =
      run_pass(*backend, source, config.seconds / 2, nullptr);
  SpanRecorder spans(Clock::now());
  const KernelPass traced =
      run_pass(*backend, source, config.seconds / 2, &spans);
  result.count(untraced.stats);
  result.count(traced.stats);

  report_loadgen(untraced.stats, traced.stats,
                 closed_loop_slo_rate(untraced.stats), result);
  // No service runs here: its stage shares and wave movements are zero,
  // and a "wave" is exactly one transform_batch_mixed call.
  for (const char* name :
       {"service.submit_share", "service.stage.admission_share",
        "service.stage.former_share", "service.stage.shard_queue_share",
        "service.stage.execute_share", "service.stage.completion_share",
        "service.stolen_waves", "service.rebalanced_waves",
        "service.cpu_share", "telemetry.dropped"})
    result.set(name, 0);
  result.set("service.occupancy", kWave);
  result.set("service.estimate_ratio",
             static_cast<double>(traced.estimate_cycles) /
                 static_cast<double>(traced.cycles));
  replay_waves(*backend, traced.samples, result);
  probe_host_kernels(geometry, pools, result);
  write_trace(config.trace_path, "", spans);
}

}  // namespace nttpim::benchmark
