// The four benchmark workloads (see README.md for why each exists). Each
// fills `result` with the end-to-end metrics, or with the per-layer
// metrics when config.trace is set, and counts every op it attempted.
#pragma once

#include "harness.h"

namespace nttpim::benchmark {

/// The p90 latency limit of the SLO ladder and of loadgen.slo_rate_ops.
inline constexpr double kSloP90Us = 5000;

/// Bare simulator: fhe::PimBackend::transform_batch_mixed, no service.
void run_kernel(const RunConfig& config, Result& result);
/// NttService workloads: serve_small, serve_open and serve_mixed.
void run_serve(const RunConfig& config, Result& result);

/// The end-to-end metrics every workload derives from its measured pass.
void report_end_to_end(const PassStats& pass, double setup_s,
                       double modeled_us_per_op, Result& result);
/// loadgen.slo_rate_ops of a closed loop, which offers one rate: its
/// whole-window rate if its p90 meets kSloP90Us, else 0.
double closed_loop_slo_rate(const PassStats& pass);
/// The loadgen.* and telemetry.overhead_ratio per-layer metrics, from the
/// traced pass and the untraced pass before it.
void report_loadgen(const PassStats& untraced, const PassStats& traced,
                    double slo_rate_ops, Result& result);

}  // namespace nttpim::benchmark
