// Heterogeneous multi-limb batching: a different NTT per bank.
//
// Covers the mixed-wave backend API (transform_batch_mixed), the RNS
// product built on it (rns_negacyclic_multiply), the plan-cache bank-0
// twin fix and shape ids, the backend's schedule memo and the RNS
// input-validation fixes.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <span>
#include <utility>

#include "common/random.h"
#include "fhe/cpu_backend.h"
#include "fhe/pim_backend.h"
#include "fhe/rns.h"
#include "fhe/rns_poly.h"
#include "fhe/rq.h"
#include "mapping/plan_cache.h"
#include "ntt/negacyclic.h"
#include "ntt/poly.h"
#include "ntt/primes.h"
#include "pim/host.h"
#include "sim/engine.h"

namespace nttpim::fhe {
namespace {

std::vector<unsigned __int128> random_wide(const RnsBasis& basis,
                                           std::uint64_t seed) {
  Rng rng(seed);
  return rng.wide_coeffs(basis.n(), basis.modulus_product());
}

/// Golden model: per-limb u32 schoolbook negacyclic products,
/// CRT-recombined into [0, Q) — the 128-bit CPU reference the PIM result
/// must match bit-for-bit.
std::vector<unsigned __int128> schoolbook_wide_product(
    const RnsBasis& basis, const std::vector<unsigned __int128>& a,
    const std::vector<unsigned __int128>& b) {
  const auto ra = basis.to_rns(a);
  const auto rb = basis.to_rns(b);
  std::vector<std::vector<std::uint32_t>> limbs(basis.limb_count());
  for (std::size_t i = 0; i < basis.limb_count(); ++i)
    limbs[i] = ntt::negacyclic_convolution_schoolbook(ra[i], rb[i],
                                                      basis.prime(i));
  return basis.from_rns(limbs);
}

// ------------------------------------------------------- mixed-wave property

// A mixed heterogeneous wave (4 distinct primes, mixed forward/inverse)
// must be bit-identical per limb to sequential single-bank calls, and its
// one-pass makespan must beat the sum of the sequential runs.
TEST(MixedWave, MatchesSequentialSingleBankAndBeatsItsCycles) {
  const RnsBasis basis(256, 4, 30);
  Rng rng(31);

  std::vector<std::vector<std::uint32_t>> wave_polys(4), seq_polys(4);
  std::vector<bool> inverse = {false, true, false, true};
  for (std::size_t i = 0; i < 4; ++i)
    wave_polys[i] = seq_polys[i] = rng.residues(256, basis.prime(i));

  PimBackend seq(4, 1200.0, dram::hbm2e_geometry(1));
  for (std::size_t i = 0; i < 4; ++i) {
    if (inverse[i])
      seq.inverse(seq_polys[i], basis.params(i));
    else
      seq.forward(seq_polys[i], basis.params(i));
  }
  EXPECT_EQ(seq.engine_passes(), 4u);

  PimBackend wave(4, 1200.0, dram::hbm2e_geometry(4));
  std::vector<BatchItem> items;
  for (std::size_t i = 0; i < 4; ++i)
    items.push_back({&wave_polys[i], &basis.params(i), inverse[i]});
  wave.transform_batch_mixed(items);

  EXPECT_EQ(wave_polys, seq_polys);
  EXPECT_EQ(wave.engine_passes(), 1u);
  EXPECT_EQ(wave.transform_count(), 4u);
  // One bank-parallel pass strictly beats four sequential transforms.
  EXPECT_LT(wave.total_cycles(), seq.total_cycles());

  // Each limb got its own bank and its own modulus.
  ASSERT_EQ(wave.last_wave().size(), 4u);
  std::set<std::uint16_t> banks;
  std::set<std::uint32_t> moduli;
  for (std::size_t i = 0; i < 4; ++i) {
    banks.insert(wave.last_wave()[i].bank);
    moduli.insert(wave.last_wave()[i].q);
    EXPECT_EQ(wave.last_wave()[i].q, basis.prime(i));
    EXPECT_EQ(wave.last_wave()[i].inverse, inverse[i]);
  }
  EXPECT_EQ(banks.size(), 4u);
  EXPECT_EQ(moduli.size(), 4u);
}

// Waves may also mix transform *sizes* and moduli: one item per bank, or
// stacked at disjoint base rows of a single bank, where each item's PARAM
// prologue re-parameterizes the CU between the back-to-back transforms.
TEST(MixedWave, HeterogeneousSizesMatchSequential) {
  const ntt::NttParams small = ntt::NttParams::create(128, 29);
  const ntt::NttParams large = ntt::NttParams::create(256, 30);
  for (const std::size_t banks : {2u, 1u}) {
    Rng rng(32);
    std::vector<std::uint32_t> a = rng.residues(128, small.q());
    std::vector<std::uint32_t> b = rng.residues(256, large.q());
    auto ea = a;
    auto eb = b;

    CpuBackend cpu;
    cpu.forward(ea, small);
    cpu.inverse(eb, large);

    PimBackend pim(4, 1200.0, dram::hbm2e_geometry(banks));
    const BatchItem items[] = {{&a, &small, false}, {&b, &large, true}};
    pim.transform_batch_mixed(items);
    EXPECT_EQ(a, ea) << banks << " bank(s)";
    EXPECT_EQ(b, eb) << banks << " bank(s)";
    EXPECT_EQ(pim.engine_passes(), 1u);
    const auto& slots = pim.last_wave();
    ASSERT_EQ(slots.size(), 2u);
    if (banks == 1) {
      EXPECT_EQ(slots[1].bank, slots[0].bank);
      EXPECT_NE(slots[1].base_row, slots[0].base_row);
    }
  }
}

// The CPU backend's default sequential implementation must agree too.
TEST(MixedWave, CpuBackendDefaultImplementation) {
  const RnsBasis basis(64, 2, 28);
  Rng rng(33);
  std::vector<std::vector<std::uint32_t>> polys(2), expected(2);
  for (std::size_t i = 0; i < 2; ++i)
    polys[i] = expected[i] = rng.residues(64, basis.prime(i));

  CpuBackend batch, plain;
  std::vector<BatchItem> items;
  for (std::size_t i = 0; i < 2; ++i)
    items.push_back({&polys[i], &basis.params(i), false});
  batch.transform_batch_mixed(items);
  for (std::size_t i = 0; i < 2; ++i) plain.forward(expected[i], basis.params(i));
  EXPECT_EQ(polys, expected);
  EXPECT_EQ(batch.transform_count(), 2u);
}

TEST(MixedWave, RejectsAliasedItems) {
  const ntt::NttParams params = ntt::NttParams::create(64, 29);
  Rng rng(34);
  auto poly = rng.residues(64, params.q());
  PimBackend pim(4, 1200.0, dram::hbm2e_geometry(2));
  CpuBackend cpu;
  const BatchItem items[] = {{&poly, &params, false}, {&poly, &params, false}};
  EXPECT_THROW(pim.transform_batch_mixed(items), std::invalid_argument);
  EXPECT_THROW(cpu.transform_batch_mixed(items), std::invalid_argument);
  const BatchItem null_item[] = {{nullptr, &params, false}};
  EXPECT_THROW(pim.transform_batch_mixed(null_item), std::invalid_argument);
  EXPECT_THROW(cpu.transform_batch_mixed(null_item), std::invalid_argument);
}

// ----------------------------------------------------- RNS product (tentpole)

// Acceptance: a 4-limb product round-trips bit-identical to the 128-bit
// CPU schoolbook reference, and its forward stage is ONE engine pass with
// 4 distinct moduli in 4 distinct banks.
TEST(RnsProduct, FourLimbsOneForwardPassFourBanksFourModuli) {
  const RnsBasis basis(256, 4, 30);
  PimBackend pim(4, 1200.0, dram::hbm2e_geometry(4));
  pim.set_record_waves(true);

  const auto a = random_wide(basis, 41);
  const auto b = random_wide(basis, 42);
  const auto product = rns_negacyclic_multiply(basis, a, b, pim);
  EXPECT_EQ(product, schoolbook_wide_product(basis, a, b));

  // Exactly two passes: one forward wave (8 transforms), one inverse wave.
  EXPECT_EQ(pim.engine_passes(), 2u);
  EXPECT_EQ(pim.transform_count(), 12u);
  ASSERT_EQ(pim.recorded_waves().size(), 2u);

  const auto& forward = pim.recorded_waves()[0];
  ASSERT_EQ(forward.slots.size(), 8u);  // 4 limbs x 2 operands
  std::set<std::uint16_t> banks;
  std::set<std::uint32_t> moduli;
  for (const auto& slot : forward.slots) {
    EXPECT_FALSE(slot.inverse);
    banks.insert(slot.bank);
    moduli.insert(slot.q);
    // Limb i of both operands shares bank i: one modulus per bank.
    EXPECT_EQ(slot.q, basis.prime(slot.bank));
  }
  EXPECT_EQ(banks.size(), 4u);
  EXPECT_EQ(moduli.size(), 4u);

  // The recorded trace programs each bank's CU with that bank's limb prime
  // and nothing else: per-bank heterogeneity down at the command level.
  for (std::uint16_t bank = 0; bank < 4; ++bank) {
    std::size_t param_loads = 0;
    for (const auto& cmd : forward.trace) {
      if (cmd.bank != bank || cmd.kind != dram::CmdKind::kParam ||
          cmd.param_reg != dram::ParamReg::kModulus)
        continue;
      ++param_loads;
      EXPECT_EQ(cmd.param_value, basis.prime(bank));
    }
    EXPECT_GT(param_loads, 0u);
  }

  const auto& inverse = pim.recorded_waves()[1];
  ASSERT_EQ(inverse.slots.size(), 4u);
  for (const auto& slot : inverse.slots) EXPECT_TRUE(slot.inverse);
}

TEST(RnsProduct, MatchesSchoolbookAcrossLimbCountsAndBackends) {
  for (const std::size_t limbs : {1u, 2u, 3u}) {
    const RnsBasis basis(128, limbs, 29);
    const auto a = random_wide(basis, 50 + limbs);
    const auto b = random_wide(basis, 60 + limbs);
    const auto expected = schoolbook_wide_product(basis, a, b);

    CpuBackend cpu;
    EXPECT_EQ(rns_negacyclic_multiply(basis, a, b, cpu), expected);
    PimBackend pim(4, 1200.0, dram::hbm2e_geometry(limbs));
    EXPECT_EQ(rns_negacyclic_multiply(basis, a, b, pim), expected);
    // Fewer banks than transforms: items stack at disjoint base rows of
    // the same bank and run back-to-back within the single pass.
    PimBackend narrow(4, 1200.0, dram::hbm2e_geometry(2));
    EXPECT_EQ(rns_negacyclic_multiply(basis, a, b, narrow), expected);
    EXPECT_EQ(narrow.engine_passes(), 2u);
  }
}

// Squaring: the aliased-operand case the batch API rejects must still be
// expressible — the RNS layer dedupes the operand and squares pointwise.
TEST(RnsProduct, SquaringDedupesTheSharedOperand) {
  const RnsBasis basis(128, 3, 29);
  const auto a = random_wide(basis, 71);
  const auto expected = schoolbook_wide_product(basis, a, a);

  PimBackend pim(4, 1200.0, dram::hbm2e_geometry(3));
  EXPECT_EQ(rns_negacyclic_multiply(basis, a, a, pim), expected);
  // One forward wave of 3 (not 6) transforms plus one inverse wave.
  EXPECT_EQ(pim.engine_passes(), 2u);
  EXPECT_EQ(pim.transform_count(), 6u);

  // Same through the ring-element API multiplying a polynomial by itself.
  const auto pa = RnsPoly::from_wide(basis, a);
  CpuBackend cpu;
  EXPECT_EQ(rns_negacyclic_multiply(pa, pa, cpu).to_wide(), expected);
  EXPECT_EQ(cpu.transform_count(), 6u);
}

// ------------------------------------------------------ plan-cache bank fix

// Requesting a bank != 0 first must map once at bank 0, cache the twin and
// retarget — so the rest of the wave (bank 0 included) is all cache hits
// or O(trace) replications, never a second mapper run.
TEST(PlanCache, NonZeroBankMissMapsAtBankZeroAndCachesTheTwin) {
  const dram::DramGeometry geometry = dram::hbm2e_geometry(4);
  const ntt::NttParams params = ntt::NttParams::create(256, 30);
  mapping::MapperConfig config;
  config.num_buffers = 4;
  mapping::NttJob job;

  mapping::PlanCache cache;
  std::vector<std::shared_ptr<const mapping::MappedNtt>> plans(4);
  for (const std::uint16_t bank : {1, 2, 3}) {
    config.bank = bank;
    plans[bank] = cache.get_or_map(geometry, params, config, job);
  }
  EXPECT_EQ(cache.misses(), 3u);
  EXPECT_EQ(cache.hits(), 0u);
  // 3 requested banks + the bank-0 twin mapped on the first miss.
  EXPECT_EQ(cache.size(), 4u);

  // Bank 0 itself is now a pure hit (pre-fix: a fourth miss + mapper run).
  config.bank = 0;
  plans[0] = cache.get_or_map(geometry, params, config, job);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 3u);
  EXPECT_EQ(cache.size(), 4u);

  // Every retargeted plan is the bank-0 plan with rewritten bank ids.
  for (std::uint16_t bank = 1; bank < 4; ++bank) {
    ASSERT_EQ(plans[bank]->trace.size(), plans[0]->trace.size());
    EXPECT_EQ(plans[bank]->result_base_row, plans[0]->result_base_row);
    auto expected = mapping::retarget_bank(*plans[0], bank);
    for (std::size_t i = 0; i < expected.trace.size(); ++i) {
      EXPECT_EQ(plans[bank]->trace[i].bank, bank);
      EXPECT_EQ(plans[bank]->trace[i].kind, expected.trace[i].kind);
      EXPECT_EQ(plans[bank]->trace[i].row, expected.trace[i].row);
    }
  }

  // Repeats of every bank are hits.
  for (const std::uint16_t bank : {0, 1, 2, 3}) {
    config.bank = bank;
    cache.get_or_map(geometry, params, config, job);
  }
  EXPECT_EQ(cache.hits(), 5u);
  EXPECT_EQ(cache.misses(), 3u);
}

// A 4-bank wave through the backend: one mapper-visible miss per bank key,
// all subsequent waves pure hits. Each transform_batch call is one pass.
TEST(PlanCache, FourBankWaveHitsAfterFirstUse) {
  const ntt::NttParams params = ntt::NttParams::create(256, 30);
  PimBackend pim(4, 1200.0, dram::hbm2e_geometry(4));
  Rng rng(81);
  std::vector<std::vector<std::uint32_t>> polys(8);
  for (auto& p : polys) p = rng.residues(256, params.q());
  const std::span<std::vector<std::uint32_t>> all(polys);

  pim.transform_batch(all.first(4), params);
  EXPECT_EQ(pim.engine_passes(), 1u);
  EXPECT_EQ(pim.plan_cache_misses(), 4u);  // banks 0..3, mapped once
  pim.transform_batch(all.last(4), params);
  EXPECT_EQ(pim.engine_passes(), 2u);
  EXPECT_EQ(pim.plan_cache_misses(), 4u);
  EXPECT_EQ(pim.plan_cache_hits(), 4u);  // the second wave
}

// Shape ids follow the trace's structure only: another modulus (PARAM
// payloads) or another bank keeps a plan's id, and another direction or
// base row splits it.
TEST(PlanCache, ShapeIdsIgnoreModulusAndBankOnly) {
  const dram::DramGeometry geometry = dram::hbm2e_geometry(2);
  const std::vector<std::uint32_t> primes = ntt::find_ntt_primes(256, 30, 2);
  const ntt::NttParams p0(256, primes[0]);
  const ntt::NttParams p1(256, primes[1]);
  mapping::PlanCache cache;
  const auto plan = [&](const ntt::NttParams& params, std::uint16_t bank,
                        bool inverse, std::uint32_t base_row) {
    mapping::MapperConfig config;
    config.num_buffers = 4;
    config.bank = bank;
    mapping::NttJob job;
    job.base_row = base_row;
    job.direction = inverse ? mapping::Direction::kInverse
                            : mapping::Direction::kForward;
    job.negacyclic = inverse;
    return cache.get_or_map(geometry, params, config, job);
  };
  const auto forward = plan(p0, 0, false, 0);
  EXPECT_NE(forward->shape_id, 0u);
  const auto other_modulus = plan(p1, 0, false, 0);
  EXPECT_NE(other_modulus->trace, forward->trace);  // PARAM payloads differ
  EXPECT_EQ(other_modulus->shape_id, forward->shape_id);
  EXPECT_EQ(plan(p0, 1, false, 0)->shape_id, forward->shape_id);
  EXPECT_EQ(plan(p1, 1, false, 0)->shape_id, forward->shape_id);

  const std::uint64_t inverse = plan(p0, 0, true, 0)->shape_id;
  const std::uint64_t stacked = plan(p0, 0, false, 1)->shape_id;
  EXPECT_NE(inverse, forward->shape_id);
  EXPECT_NE(stacked, forward->shape_id);
  EXPECT_NE(stacked, inverse);
  EXPECT_EQ(plan(p1, 1, true, 0)->shape_id, inverse);
  EXPECT_EQ(plan(p1, 1, false, 1)->shape_id, stacked);
}

// ------------------------------------------------------------ schedule memo

// Seeded property: the schedule memo is exact. On 8-bank backends with 1, 2
// and 4 channels, waves of n in {256, 1024} with random directions and up
// to 2x banks items (so items stack) run with moduli from
// find_ntt_primes. Each drawn wave also runs permuted and with its last
// item's direction flipped, so shapes that share every item, or all but
// one, must not share a schedule. Every shape runs twice with the moduli
// redrawn, and the second run must be a memo hit. For every pass, the
// cycles and energy the backend books must equal Engine::run_reference
// over the recorded trace, run on a private device with the same staged
// inputs, and every result must equal the CPU reference.
TEST(ScheduleMemo, HitsBookTheReferenceScheduleExactly) {
  constexpr std::size_t kBanks = 8;
  constexpr std::size_t kNumBuffers = 4;
  constexpr double kFreqMhz = 1200.0;
  std::map<std::size_t, std::vector<ntt::NttParams>> moduli;
  for (const std::size_t n : {256, 1024})
    for (const std::uint32_t q : ntt::find_ntt_primes(n, 30, 4))
      moduli[n].emplace_back(n, q);
  sim::EngineConfig engine_config;
  engine_config.timing = dram::hbm2e_timing().at_frequency(kFreqMhz);
  const sim::Engine reference(engine_config);
  CpuBackend cpu;
  Rng rng(131);

  /// (n, inverse) per item, in wave order.
  using Shape = std::vector<std::pair<std::size_t, bool>>;
  for (const std::size_t channels : {1, 2, 4}) {
    SCOPED_TRACE(::testing::Message() << "channels=" << channels);
    const dram::DramGeometry geometry =
        dram::hbm2e_geometry(kBanks, channels);
    PimBackend pim(kNumBuffers, kFreqMhz, geometry);
    pim.set_record_waves(true);
    // Reused across passes, as the backend reuses its own: staging
    // overwrites every row a pass reads.
    pim::PimDevice device(geometry, kNumBuffers);
    std::uint64_t booked_cycles = 0;
    double booked_energy = 0;  // summed in pass order, as the backend does
    std::set<Shape> scheduled;

    const auto run = [&](const Shape& shape) {
      std::vector<const ntt::NttParams*> params;
      std::vector<std::vector<std::uint32_t>> inputs;
      for (const auto& [n, inverse] : shape) {
        const std::vector<ntt::NttParams>& pool = moduli[n];
        params.push_back(&pool[rng.next_below(pool.size())]);
        inputs.push_back(rng.residues(n, params.back()->q()));
      }
      std::vector<std::vector<std::uint32_t>> polys = inputs;
      std::vector<BatchItem> items;
      for (std::size_t j = 0; j < shape.size(); ++j)
        items.push_back({&polys[j], params[j], shape[j].second});

      const std::uint64_t hits = pim.schedule_hits();
      const bool seen = !scheduled.insert(shape).second;
      pim.transform_batch_mixed(items);
      EXPECT_EQ(pim.schedule_hits() - hits, seen ? 1u : 0u);
      for (std::size_t j = 0; j < shape.size(); ++j) {
        std::vector<std::uint32_t> expected = inputs[j];
        if (shape[j].second)
          cpu.inverse(expected, *params[j]);
        else
          cpu.forward(expected, *params[j]);
        EXPECT_EQ(polys[j], expected) << "item " << j;
      }

      const PimBackend::RecordedWave& wave = pim.recorded_waves().back();
      for (std::size_t j = 0; j < shape.size(); ++j) {
        std::vector<std::uint32_t> staged = inputs[j];
        if (!shape[j].second)
          ntt::geometric_scale(staged, params[j]->psi(), 1, params[j]->q());
        pim::load_polynomial(device.bank(wave.slots[j].bank),
                             wave.slots[j].base_row, staged);
      }
      const sim::RunStats ref = reference.run_reference(device, wave.trace);
      booked_cycles += ref.cycles;
      booked_energy += ref.energy.total_nj();
      EXPECT_EQ(pim.total_cycles(), booked_cycles);
      EXPECT_EQ(pim.total_energy_nj(), booked_energy);
    };

    for (int draw = 0; draw < 4; ++draw) {
      Shape shape(1 + rng.next_below(2 * kBanks));
      for (auto& [n, inverse] : shape) {
        n = rng.next_below(2) == 0 ? 256 : 1024;
        inverse = rng.next_below(2) == 1;
      }
      Shape permuted = shape;
      for (std::size_t i = permuted.size(); i > 1; --i)
        std::swap(permuted[i - 1], permuted[rng.next_below(i)]);
      Shape flipped = shape;
      flipped.back().second = !flipped.back().second;
      for (const Shape* s : {&shape, &permuted, &flipped}) {
        SCOPED_TRACE(::testing::Message() << "draw " << draw << ", "
                                          << s->size() << " items");
        run(*s);
        run(*s);  // moduli redrawn: a memo hit
      }
    }
    EXPECT_EQ(pim.schedule_hits() + pim.schedule_misses(), 24u);
    EXPECT_EQ(pim.schedule_misses(), scheduled.size());
  }
}

// ------------------------------------------------------ RNS input validation

TEST(RnsValidation, ToRnsRejectsCoefficientsOutsideQ) {
  const RnsBasis basis(16, 2, 28);
  std::vector<unsigned __int128> coeffs(16, 0);
  coeffs[3] = basis.modulus_product();  // == Q: out of range
  EXPECT_THROW(basis.to_rns(coeffs), std::invalid_argument);
  coeffs[3] = basis.modulus_product() - 1;
  EXPECT_NO_THROW(basis.to_rns(coeffs));
}

TEST(RnsValidation, EmptyInputsRoundTripCleanly) {
  const RnsBasis basis(16, 3, 28);
  const auto limbs = basis.to_rns({});
  ASSERT_EQ(limbs.size(), 3u);
  for (const auto& limb : limbs) EXPECT_TRUE(limb.empty());
  EXPECT_TRUE(basis.from_rns(limbs).empty());
}

TEST(RnsValidation, FromRnsRejectsMalformedResidues) {
  const RnsBasis basis(16, 2, 28);
  // Wrong limb count (including the empty call).
  EXPECT_THROW(basis.from_rns({}), std::invalid_argument);
  EXPECT_THROW(basis.from_rns({{1, 2, 3}}), std::invalid_argument);
  // Ragged lengths.
  EXPECT_THROW(basis.from_rns({{1, 2}, {1}}), std::invalid_argument);
  // Residue out of range for its limb prime.
  EXPECT_THROW(basis.from_rns({{basis.prime(0)}, {0}}),
               std::invalid_argument);
}

}  // namespace
}  // namespace nttpim::fhe
