#include "service/backend.h"

#include <algorithm>

#include "common/check.h"
#include "dram/config.h"
#include "fhe/cpu_backend.h"
#include "fhe/pim_backend.h"

namespace nttpim::service {

const char* to_string(BackendKind kind) noexcept {
  switch (kind) {
    case BackendKind::kPim:
      return "pim";
    case BackendKind::kCpu:
      return "cpu";
  }
  return "?";
}

BackendDescriptor make_pim_descriptor(std::size_t banks_per_shard,
                                      std::size_t num_buffers,
                                      double freq_mhz,
                                      double /*unused_cost_scale*/,
                                      std::size_t channels) {
  NTTPIM_EXPECT_MSG(banks_per_shard >= 1,
                    "a PIM shard device needs at least one bank");
  NTTPIM_EXPECT_MSG(num_buffers >= 2,
                    "the PIM backend needs C2 support (Nb >= 2)");
  NTTPIM_EXPECT_MSG(channels >= 1 && banks_per_shard % channels == 0,
                    "banks must divide evenly across channels");
  BackendDescriptor d;
  d.kind = BackendKind::kPim;
  d.label = "pim" + std::to_string(banks_per_shard) +
            (channels > 1 ? "x" + std::to_string(channels) : "");
  d.channels = channels;
  d.factory = [banks_per_shard, num_buffers, freq_mhz, channels] {
    return std::make_unique<fhe::PimBackend>(
        num_buffers, freq_mhz,
        dram::hbm2e_geometry(banks_per_shard, channels));
  };
  return d;
}

BackendDescriptor make_cpu_descriptor(std::size_t threads, double freq_mhz,
                                      double cycles_per_point_stage) {
  fhe::CpuBackend::Config cc;
  cc.threads = threads;
  cc.freq_mhz = freq_mhz;
  if (cycles_per_point_stage > 0)
    cc.cycles_per_point_stage = cycles_per_point_stage;
  NTTPIM_EXPECT_MSG(cc.freq_mhz > 0, "the modeled clock must be positive");
  BackendDescriptor d;
  d.kind = BackendKind::kCpu;
  d.label = "cpu" + std::to_string(std::max<std::size_t>(1, threads));
  d.factory = [cc] { return std::make_unique<fhe::CpuBackend>(cc); };
  return d;
}

}  // namespace nttpim::service
