// Backend descriptors: how the serving layer names and builds its shards.
//
// A shard is a worker thread owning one fhe::NttBackend; which *kind* of
// backend is a deployment decision, not a service invariant. The NTT-PIM
// deployment model (like MeNTT / BP-NTT) keeps the host CPU path alive
// next to the in-memory accelerator, so a service is configured as a list
// of BackendDescriptors — e.g. two PIM devices plus a CPU worker pool —
// and each shard pulls its next wave from the service's wave former
// whenever it is free, so whichever backend is idle takes the work.
//
// The descriptor carries a *factory*, not a backend: the service runs it
// on the shard's worker thread so every backend stays thread-confined from
// construction (the TSan story of the whole subsystem), and a descriptor
// stays copyable so one config can build many services.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <string>

namespace nttpim::fhe {
class NttBackend;
}

namespace nttpim::service {

/// What executes a shard's waves. Stats and bench reporting use the kind;
/// execution only ever sees the NttBackend interface.
enum class BackendKind {
  kPim,  ///< simulated NTT-PIM device (fhe::PimBackend)
  kCpu,  ///< host-CPU worker pool (fhe::CpuBackend)
};

const char* to_string(BackendKind kind) noexcept;

/// One shard of a service: how to build its backend and how many channels
/// its waves span.
struct BackendDescriptor {
  BackendKind kind = BackendKind::kPim;
  /// Display name for stats and bench output (defaulted by the factory
  /// helpers to e.g. "pim8" / "cpu2").
  std::string label;
  /// Builds the shard's backend. Invoked exactly once per service, on the
  /// shard's own worker thread (thread confinement starts at
  /// construction); a throwing factory fails the service constructor.
  std::function<std::unique_ptr<fhe::NttBackend>()> factory;
  /// Independent command channels of the shard's device (see
  /// dram::DramGeometry::num_channels). The shard pulls waves of up to one
  /// channel's bank set per channel (see FormerConfig::flush_window); the
  /// device spreads each wave's items round-robin over its channels. 1
  /// for backends without a channel hierarchy (CPU).
  std::size_t channels = 1;
};

/// Descriptor for a simulated PIM device shard:
/// fhe::PimBackend(num_buffers, freq_mhz,
///                 hbm2e_geometry(banks_per_shard, channels)).
/// banks_per_shard must divide evenly across channels. The fourth
/// parameter is unused: it stays only so the repo benchmark's positional
/// calls (benchmark/src/serve.cpp) keep compiling.
BackendDescriptor make_pim_descriptor(std::size_t banks_per_shard = 8,
                                      std::size_t num_buffers = 4,
                                      double freq_mhz = 1200.0,
                                      double unused_cost_scale = 1.0,
                                      std::size_t channels = 1);

/// Descriptor for a host-CPU worker-pool shard (fhe::CpuBackend with
/// `threads` lanes). cycles_per_point_stage <= 0 keeps the documented
/// default fit of the reference kernel; pass
/// CpuBackend::measure_cycles_per_point_stage() for a host-calibrated
/// model. freq_mhz must match the PIM shards' clock so every shard's
/// modeled cycles share one unit.
BackendDescriptor make_cpu_descriptor(std::size_t threads = 1,
                                      double freq_mhz = 1200.0,
                                      double cycles_per_point_stage = 0.0);

}  // namespace nttpim::service
