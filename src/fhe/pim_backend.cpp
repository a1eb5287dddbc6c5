#include "fhe/pim_backend.h"

#include <algorithm>

#include "common/bitutil.h"
#include "common/check.h"
#include "mapping/act_model.h"
#include "ntt/negacyclic.h"
#include "pim/host.h"

namespace nttpim::fhe {

namespace {

sim::EngineConfig engine_config(double freq_mhz) {
  sim::EngineConfig ec;
  ec.timing = dram::hbm2e_timing().at_frequency(freq_mhz);
  return ec;
}

/// Conservative price of one never-mapped n-point transform:
/// 4 * n * (log2 n + 2) modeled cycles, well above what a mapped plan
/// prices at, so unknown work prices as heavy.
std::uint64_t unmapped_item_cycles(std::size_t n) {
  const auto log2n = static_cast<std::uint64_t>(exact_log2(n));
  return 4 * static_cast<std::uint64_t>(n) * (log2n + 2);
}

/// Replays the channel-major wave placement shared by run_wave and
/// estimate_wave_cycles: each item takes the next channel round-robin, and
/// each channel rotates across its own banks. With one channel this is
/// exactly the classic item j -> bank j % banks rule.
class WavePlacer {
 public:
  explicit WavePlacer(const dram::DramGeometry& g)
      : channels_(g.num_channels),
        bpc_(g.banks_per_channel()),
        in_channel_(g.num_channels, 0) {}

  std::uint16_t place() {
    const std::size_t ch = next_++ % channels_;
    return static_cast<std::uint16_t>(ch * bpc_ + in_channel_[ch]++ % bpc_);
  }

 private:
  std::size_t channels_;
  std::size_t bpc_;
  std::size_t next_ = 0;
  std::vector<std::size_t> in_channel_;
};

}  // namespace

PimBackend::PimBackend(std::size_t num_buffers, double freq_mhz,
                       const dram::DramGeometry& geometry)
    : geometry_(geometry),
      num_buffers_(num_buffers),
      freq_mhz_(freq_mhz),
      device_(geometry, num_buffers),
      engine_(engine_config(freq_mhz)) {
  NTTPIM_EXPECT_MSG(num_buffers >= 2,
                    "the FHE backend needs C2 support (Nb >= 2)");
  NTTPIM_EXPECT_MSG(geometry.banks >= 1, "device needs at least one bank");
  NTTPIM_EXPECT_MSG(geometry.num_channels >= 1 &&
                        geometry.banks % geometry.num_channels == 0,
                    "banks must divide evenly across channels");
}

std::shared_ptr<const mapping::MappedNtt> PimBackend::plan_for(
    const ntt::NttParams& params, bool inverse_direction, std::uint16_t bank,
    std::uint32_t base_row) {
  mapping::MapperConfig config;
  config.num_buffers = num_buffers_;
  config.bank = bank;

  mapping::NttJob job;
  job.base_row = base_row;
  job.direction = inverse_direction ? mapping::Direction::kInverse
                                    : mapping::Direction::kForward;
  job.negacyclic = inverse_direction;  // psi^{-i} post-scale on the PIM
  return plans_.get_or_map(geometry_, params, config, job);
}

std::uint64_t PimBackend::estimate_wave_cycles(
    std::span<const BatchItem> items) const {
  const dram::DramTiming timing = engine_config(freq_mhz_).timing;
  const std::size_t banks = geometry_.banks;
  std::vector<std::uint64_t> bank_cycles(banks, 0);
  // Total command-bus occupancy per channel (mapped counts only): banks of
  // one channel share one bus, so a channel can never finish faster than
  // its commands can issue — the constraint that makes a multi-channel
  // estimate strictly smaller on bus-bound bulk waves.
  std::vector<std::uint64_t> bus_cycles(geometry_.num_channels, 0);
  WavePlacer placer(geometry_);
  for (std::size_t j = 0; j < items.size(); ++j) {
    const BatchItem& item = items[j];
    NTTPIM_EXPECT_MSG(item.params != nullptr,
                      "estimating a wave needs each item's parameter set");
    mapping::MapperConfig config;
    config.num_buffers = num_buffers_;
    mapping::NttJob job;
    job.direction = item.inverse ? mapping::Direction::kInverse
                                 : mapping::Direction::kForward;
    job.negacyclic = item.inverse;
    const auto key =
        mapping::PlanKey::make(geometry_, *item.params, config, job);
    std::uint64_t cycles;
    std::uint64_t item_bus_cycles = 0;
    if (const auto counts = plans_.peek_counts(key)) {
      cycles = mapping::ActModel::estimate_pass_cycles(*counts, timing);
      // Every command holds its bus one cycle; PARAM holds it two.
      item_bus_cycles = counts->total + counts->params;
    } else {
      cycles = unmapped_item_cycles(item.params->n());
    }
    const std::uint16_t bank = placer.place();
    bank_cycles[bank] += cycles;
    bus_cycles[geometry_.channel_of(bank)] += item_bus_cycles;
  }
  std::uint64_t makespan = 0;
  for (std::size_t b = 0; b < banks; ++b) {
    const std::size_t ch = geometry_.channel_of(b);
    makespan = std::max(makespan, std::max(bank_cycles[b], bus_cycles[ch]));
  }
  return makespan;
}

std::uint64_t PimBackend::run_wave(std::span<const BatchItem> wave) {
  const std::size_t banks = device_.num_banks();
  const std::size_t words_per_row = geometry_.words_per_row();

  // Placement: channel-major round-robin (see the header), stacked at each
  // bank's next free row block. Host-side load applies the
  // bit-reversal permutation and (for forward transforms) folds the psi^i
  // negacyclic pre-scale into the data.
  std::vector<std::uint32_t> next_row(banks, 0);
  WaveLog& log = *wave_log_;  // asserts the single-driver contract (debug)
  log.last_wave.clear();
  log.last_wave.reserve(wave.size());
  WavePlacer placer(geometry_);
  std::vector<std::shared_ptr<const mapping::MappedNtt>> plans(wave.size());
  for (std::size_t j = 0; j < wave.size(); ++j) {
    const BatchItem& item = wave[j];
    const ntt::NttParams& params = *item.params;
    NTTPIM_EXPECT(item.poly->size() == params.n());
    const std::uint16_t bank = placer.place();
    const std::uint32_t base_row = next_row[bank];
    const auto rows_used = static_cast<std::uint32_t>(
        div_ceil(params.n(), words_per_row));
    NTTPIM_EXPECT_MSG(base_row + rows_used <= geometry_.rows_per_bank,
                      "wave overflows a bank's row capacity");
    next_row[bank] = base_row + rows_used;

    std::vector<std::uint32_t> staged = *item.poly;
    if (!item.inverse)
      ntt::geometric_scale(staged, params.psi(), 1, params.q());
    pim::load_polynomial(device_.bank(bank), base_row, staged);

    plans[j] = plan_for(params, item.inverse, bank, base_row);
    log.last_wave.push_back(
        {bank, base_row, params.n(), params.q(), item.inverse,
         static_cast<std::uint16_t>(geometry_.channel_of(bank))});
  }

  // Each bank's program is its items' cached plan traces, back to back in
  // item order; the engine walks them in place. Only a recorded wave copies
  // them, as the programs' bank-major concatenation. The memo key spells
  // the same programs in shape ids.
  std::vector<sim::BankProgram> programs(banks);
  std::vector<std::uint64_t> key;
  key.reserve(wave.size() + banks);
  for (std::size_t b = 0; b < banks; ++b) {
    for (std::size_t j = 0; j < wave.size(); ++j)
      if (log.last_wave[j].bank == b) {
        programs[b].push_back(plans[j]->trace);
        key.push_back(plans[j]->shape_id);
      }
    key.push_back(0);
  }
  Schedule booked;
  if (const Schedule* memo = schedules_.find(key)) {
    booked = *memo;
    sim::Engine::apply(device_, programs);
  } else {
    const sim::RunStats stats = engine_.run(device_, programs);
    booked = {stats.cycles, stats.energy.total_nj()};
    schedules_.insert(std::move(key), booked);
  }
  if (log.record) {
    std::vector<dram::Command> trace;
    for (const sim::BankProgram& program : programs)
      for (const std::span<const dram::Command> segment : program)
        trace.insert(trace.end(), segment.begin(), segment.end());
    log.recorded.push_back({log.last_wave, std::move(trace)});
  }

  for (std::size_t j = 0; j < wave.size(); ++j)
    *wave[j].poly = pim::read_result(device_.bank(log.last_wave[j].bank),
                                     plans[j]->result_base_row,
                                     wave[j].params->n());

  energy_nj_ += booked.energy_nj;
  ++engine_passes_;
  return booked.cycles;
}

double PimBackend::total_us() const {
  return static_cast<double>(total_cycles()) * (1e3 / freq_mhz_) / 1e3;
}

}  // namespace nttpim::fhe
