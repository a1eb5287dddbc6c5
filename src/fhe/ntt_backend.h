// The abstract NTT execution backend of the FHE and serving layers.
//
// Ring operations and the serving runtime are expressed against NttBackend
// so the same code can run its transforms on the host CPU (CpuBackend), on
// the full NTT-PIM stack (PimBackend: host interface -> mapper -> cycle
// simulator), or on any future accelerator slot — the deployment model of
// the paper and of MeNTT/BP-NTT, where a host CPU path *coexists* with the
// in-memory accelerator instead of being replaced by it.
//
// The interface is wave-first, because waves are what the serving layer
// executes. Its one entry point, transform_batch_mixed(), takes a
// heterogeneous wave in which every item carries its own parameter set and
// direction; forward(), inverse() and transform_batch() are conveniences
// over it. A backend implements exactly one thing, the private run_wave(),
// which executes a validated wave and returns its modeled elapsed cycles;
// the base validates every wave and books both counters in one place.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "ntt/params.h"

namespace nttpim::fhe {

/// One polynomial of a heterogeneous batch: its own modulus (parameter
/// set) and its own transform direction. `poly` and `params` must outlive
/// the batch call; distinct items must not alias the same vector (the
/// write-back order of aliased outputs would be unspecified — square via
/// fhe::rns_negacyclic_multiply, which transforms shared operands once).
/// transform_batch_mixed rejects an aliased or incomplete item
/// (std::invalid_argument) before anything runs. Placement is the
/// backend's choice: a multi-channel PimBackend spreads a wave's items
/// round-robin over its channels.
struct BatchItem {
  std::vector<std::uint32_t>* poly = nullptr;
  const ntt::NttParams* params = nullptr;
  bool inverse = false;
};

/// A backend is single-driver: every member, the counters included, is
/// called from one thread at a time (in the serving stack, the owning
/// shard's worker).
class NttBackend {
 public:
  virtual ~NttBackend() = default;

  /// In-place forward negacyclic NTT, natural order: a one-item wave.
  void forward(std::vector<std::uint32_t>& a, const ntt::NttParams& params) {
    transform_batch_mixed(std::array{BatchItem{&a, &params, false}});
  }
  /// In-place inverse negacyclic NTT, natural order: a one-item wave.
  void inverse(std::vector<std::uint32_t>& a, const ntt::NttParams& params) {
    transform_batch_mixed(std::array{BatchItem{&a, &params, true}});
  }

  /// Run one heterogeneous wave: reject incomplete or aliased items
  /// (std::invalid_argument), return on an empty wave, run the rest, then
  /// add the wave's modeled cycles to modeled_cycles() and its items to
  /// transform_count(). A wave that throws books nothing, and its output
  /// state is unspecified.
  void transform_batch_mixed(std::span<const BatchItem> items);

  /// Same-parameter batch: one wave over the whole span, every
  /// polynomial in the given direction.
  void transform_batch(std::span<std::vector<std::uint32_t>> polys,
                       const ntt::NttParams& params, bool inverse = false);

  /// Modeled *elapsed* device cycles of every wave executed so far: the
  /// sum of each wave's wall time on the modeled device, in ticks of the
  /// simulated PIM clock (PimBackend's freq_mhz, 1200 MHz by default).
  /// PimBackend books each pass's engine makespan; CpuBackend, which
  /// simulates no hardware, books its busiest lane at a committed cost
  /// constant, converted at the same clock. So a shard's delta over a
  /// wave is that wave's device time, whichever kind ran it.
  std::uint64_t modeled_cycles() const noexcept { return modeled_cycles_; }

  /// Number of transforms executed so far.
  std::uint64_t transform_count() const noexcept { return transforms_; }

 private:
  /// Execute the validated, non-empty wave `items` in place and return its
  /// modeled elapsed cycles (see modeled_cycles()).
  virtual std::uint64_t run_wave(std::span<const BatchItem> items) = 0;

  std::uint64_t transforms_ = 0;
  std::uint64_t modeled_cycles_ = 0;
};

}  // namespace nttpim::fhe
