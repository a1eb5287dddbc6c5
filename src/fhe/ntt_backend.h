// The abstract NTT execution backend of the FHE and serving layers.
//
// Ring operations and the serving runtime are expressed against NttBackend
// so the same code can run its transforms on the host CPU (CpuBackend), on
// the full NTT-PIM stack (PimBackend: host interface -> mapper -> cycle
// simulator), or on any future accelerator slot — the deployment model of
// the paper and of MeNTT/BP-NTT, where a host CPU path *coexists* with the
// in-memory accelerator instead of being replaced by it.
//
// The interface is batch-first, because batches are what the serving layer
// executes:
//  - transform_batch_mixed(): a heterogeneous wave in which every item
//    carries its own parameter set and direction — the unit a serving
//    shard runs;
//  - transform_batch(): a same-parameter pile, a convenience over the
//    mixed form;
//  - estimate_wave_cycles(): the backend's own cost model, pricing a wave
//    in *modeled device cycles* (the PIM device clock is the common
//    currency — see ModeledCycles below) without executing anything, so
//    prices compare directly across backends.
// Every batch entry point has a documented virtual default, so a minimal
// backend only implements forward()/inverse() and still serves.
#pragma once

#include <atomic>
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
/// Every transform_batch_mixed implementation enforces the aliasing
/// precondition (std::invalid_argument), including the base default path.
/// Placement is the backend's choice: a multi-channel PimBackend spreads a
/// wave's items round-robin over its channels.
struct BatchItem {
  std::vector<std::uint32_t>* poly = nullptr;
  const ntt::NttParams* params = nullptr;
  bool inverse = false;
};

class NttBackend {
 public:
  virtual ~NttBackend() = default;

  /// In-place forward negacyclic NTT, natural order.
  virtual void forward(std::vector<std::uint32_t>& a,
                       const ntt::NttParams& params) = 0;
  /// In-place inverse negacyclic NTT, natural order.
  virtual void inverse(std::vector<std::uint32_t>& a,
                       const ntt::NttParams& params) = 0;

  /// Heterogeneous batch: every item carries its own parameter set and
  /// direction. Default: validate the aliasing precondition, then run the
  /// items in order through forward()/inverse(). PimBackend overrides it
  /// with a single bank-parallel engine pass, CpuBackend with a worker
  /// pool; every override must keep the validation (validate_batch_items).
  virtual void transform_batch_mixed(std::span<const BatchItem> items);

  /// Same-parameter batch: transform every polynomial of `polys` in the
  /// given direction. Default: one mixed wave over the whole span (so a
  /// backend with a parallel mixed path parallelizes this for free).
  /// PimBackend overrides it to shard across banks in device-sized waves.
  virtual void transform_batch(std::span<std::vector<std::uint32_t>> polys,
                               const ntt::NttParams& params,
                               bool inverse = false);

  /// Price the wave `items` in modeled device cycles WITHOUT executing it.
  ///
  /// The unit contract ("ModeledCycles"): one modeled cycle is one tick of
  /// the simulated PIM device clock (PimBackend's freq_mhz, 1200 MHz by
  /// default). Backends that do not simulate hardware normalize their own
  /// cost model into this unit (CpuBackend converts measured-or-fitted
  /// nanoseconds at the same freq_mhz), so estimates compare across
  /// heterogeneous backends directly.
  ///
  /// Items may carry a null `poly` — only `params`/`inverse` price a wave.
  /// Thread-safety: unlike the transform methods, estimating is safe to
  /// call from another thread while the backend executes.
  ///
  /// Default: the deliberately conservative serial price — the sum of
  /// default_item_cycles over the items, i.e. no parallelism assumed —
  /// so an unpriced backend's price errs high, never low.
  virtual std::uint64_t estimate_wave_cycles(
      std::span<const BatchItem> items) const;

  /// Cumulative modeled device cycles this backend has executed, in the
  /// same unit as estimate_wave_cycles. PimBackend reports the simulated
  /// engine cycles; CpuBackend accrues its cost model's price for every
  /// executed wave. Default: 0 (no modeled-hardware account). Safe to read
  /// while another thread drives the backend (monotone counter contract).
  virtual std::uint64_t modeled_cycles() const noexcept { return 0; }

  /// Number of transforms executed so far.
  ///
  /// The single-driver counter contract (referenced as such wherever a
  /// backend counter is annotated): a backend is *single-driver* — all
  /// transform methods require external synchronization, in the serving
  /// stack by thread confinement to the owning shard worker — but the
  /// monotone counters (this one, modeled_cycles(), and PimBackend's
  /// engine-pass/plan-cache counters) are *share-readable*: relaxed
  /// atomics written only by the driving thread and safe to read from any
  /// other thread while a transform runs (e.g. a stats scraper sampling a
  /// serving shard). Relaxed suffices because a counter read orders
  /// nothing — a sample may lag in-flight work, but it is never torn.
  /// This is also why these members carry no GUARDED_BY: there is no
  /// mutex in the contract, and annotating one would force readers to
  /// take a lock the hot path must not pay for.
  std::uint64_t transform_count() const noexcept {
    return transforms_.load(std::memory_order_relaxed);
  }

 protected:
  /// Shared contract of every transform_batch_mixed implementation: items
  /// are complete (poly + params) and reference pairwise-distinct
  /// polynomials. Throws std::invalid_argument.
  static void validate_batch_items(std::span<const BatchItem> items);

  /// Conservative price of one never-measured n-point transform:
  /// 4 * n * (log2 n + 2) modeled cycles — a comfortable factor above the
  /// typical priced cost of a mapped PIM transform (see the calibration
  /// test in test_fhe), so unknown work prices as heavy.
  static std::uint64_t default_item_cycles(std::size_t n);

  std::atomic<std::uint64_t> transforms_{0};
};

}  // namespace nttpim::fhe
