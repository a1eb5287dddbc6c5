// Serving-runtime statistics: latency percentiles and wave occupancy.
//
// The number the whole subsystem exists to move is *mean wave occupancy* —
// batch items per engine pass. A synchronous caller gets occupancy 1 (every
// transform is its own pass); the wave-former's job is to push it toward
// num_banks(), which is exactly the bank-level parallelism the paper defers
// to future work (Sec. VII) and that MeNTT/BP-NTT identify as the PIM
// utilization lever. ServiceStats reports it next to the latency cost paid
// to get it (queue wait before a wave forms, total service time).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "service/backend.h"

namespace nttpim::service {

/// Summary of one latency population, in microseconds.
struct LatencySummary {
  std::uint64_t count = 0;
  double mean_us = 0;  ///< over every recorded sample
  double p50_us = 0;   ///< percentiles over the retained window (below)
  double p95_us = 0;
  double p99_us = 0;
  double max_us = 0;
};

/// Latency reservoir. The mean/max/count cover every sample ever
/// recorded; percentiles are computed over a bounded ring of the most
/// recent `capacity` samples so memory stays flat under serving workloads
/// that run for days. Not thread-safe: NttService keeps one pair per
/// request class under its stats lock (see NttService::stats()).
class LatencyRecorder {
 public:
  explicit LatencyRecorder(std::size_t capacity = 1 << 16);

  void record(double us);
  LatencySummary summary() const;
  /// Drop every sample (post-warmup steady-state measurement).
  void reset();

 private:
  /// Ring buffer of the last `capacity_` samples.
  std::vector<double> window_;
  std::size_t capacity_;  ///< fixed at construction
  std::size_t next_ = 0;
  std::uint64_t count_ = 0;
  double sum_us_ = 0;
  double max_us_ = 0;
};

/// Mean per-request wall-clock of each serving stage, for one class's
/// *completed* requests — the aggregation half of the telemetry
/// subsystem (src/telemetry/): where a request's latency actually went.
/// The five stages tile a request's life exactly:
///
///   submit() entry -> accepted past admission into the former
///     (admission_wait) -> cut into a wave by the shard that pulls it
///     (former_residency) -> the wave's engine pass starts
///     (shard_queue_wait: the hand-off, near zero) -> passes done
///     (execute) -> this request's result delivered (completion).
///
/// Cross-check against the class's latency summaries: both measure from
/// the former's enqueue stamp and cover the same completed requests, so
/// former_residency + shard_queue_wait equals the queue-latency mean, and
/// adding execute gives the service-latency mean. Always accumulated —
/// stage stamps are booked with the request's completion under the stats
/// lock, so this costs nothing extra and needs no TelemetryConfig gate.
struct StageBreakdown {
  std::uint64_t count = 0;  ///< completed requests averaged below
  double admission_wait_us = 0;    ///< submit() entry -> queued in former
  double former_residency_us = 0;  ///< queued -> cut into a wave
  double shard_queue_wait_us = 0;  ///< cut -> wave's engine pass starts
  double execute_us = 0;    ///< engine passes (incl. host pointwise step)
  double completion_us = 0; ///< passes done -> this result delivered
  double total_us = 0;      ///< submit() entry -> delivered (sum of stages)
};

/// Per-class (per-tenant) slice of the service counters — one entry per
/// configured request class (ServiceConfig::qos.num_classes), keyed by
/// RequestClass::tenant. This is what makes the QoS policies observable:
/// the latency a critical class actually gets, what a flooding tenant was
/// shed, and how many deadlines were honored. Each submitted request is
/// counted, once it settles, in exactly one of completed / failed /
/// rejected / shed; completed, stages.count and both latency counts are
/// the same requests.
struct ClassStats {
  std::uint64_t submitted = 0;  ///< submit() calls from this tenant
  std::uint64_t completed = 0;  ///< delivered successfully
  std::uint64_t failed = 0;     ///< accepted but failed during execution
  /// Backpressure rejections: the queue was full (OverflowPolicy::kReject)
  /// or the service had stopped.
  std::uint64_t rejected = 0;
  /// Shed by per-tenant admission control (AdmissionShedError) — counted
  /// separately from `rejected` backpressure: shedding is a per-tenant
  /// policy verdict, rejection is aggregate queue pressure.
  std::uint64_t shed = 0;
  /// Completed requests whose wave's engine passes ended after their
  /// deadline (judged when the passes end, before delivery).
  /// Deadline-less requests can never miss.
  std::uint64_t deadline_misses = 0;
  /// Requests whose fire-and-forget callback threw, booked once each
  /// with the request's terminal state (the throw is swallowed; see
  /// Callback). Orthogonal to the terminal counters above.
  std::uint64_t callback_errors = 0;
  /// Former enqueue -> wave starts executing. Admission wait is not
  /// included; it is stages.admission_wait_us.
  LatencySummary queue_latency;
  /// Former enqueue -> the wave's passes finish (admission wait excluded,
  /// as above).
  LatencySummary service_latency;
  /// Where this class's completed requests spent their time (means).
  StageBreakdown stages;
};

/// Per-shard slice of the service counters (one shard = one worker thread
/// owning one NttBackend).
struct ShardStats {
  /// What executes this shard's waves (from its BackendDescriptor; always
  /// re-stamped by stats(), so it survives reset_stats()).
  BackendKind kind = BackendKind::kPim;
  std::uint64_t waves = 0;          ///< formed waves executed
  std::uint64_t engine_passes = 0;  ///< 1 per wave + 1 if it had multiplies
  std::uint64_t batch_items = 0;    ///< transforms issued across all passes
  std::uint64_t requests = 0;       ///< requests completed (or failed)
  /// Always 0: a shard pulls its waves from the former and no wave moves
  /// between shards or channels, and no shard prices a wave. Kept only
  /// because the repo benchmark (benchmark/src/serve.cpp) still reads
  /// them.
  std::uint64_t stolen_waves = 0;
  std::uint64_t rebalanced_waves = 0;  ///< always 0 (see stolen_waves)
  std::uint64_t estimated_executed_cycles = 0;  ///< always 0 (see above)
  /// Requests of this shard's waves whose passes ended after their
  /// deadline (the per-shard tile of ClassStats::deadline_misses summed
  /// over classes).
  std::uint64_t deadline_missed_requests = 0;
  /// The shard backend's cumulative modeled elapsed device cycles (engine
  /// makespans for PIM, the busiest lane at the committed cost constant
  /// for CPU — see NttBackend::modeled_cycles), read on the shard's own
  /// thread after each wave — backend lifetime total, deliberately NOT
  /// re-based by NttService::reset_stats() (the modeled-hardware account
  /// has no epochs).
  std::uint64_t modeled_cycles = 0;
};

/// Snapshot of the service, safe to take while requests flow (see
/// NttService::stats() for the exact coherence guarantees). The request
/// counters are the sums of `classes`; the wave counters are the sums of
/// `shards`.
struct ServiceStats {
  std::uint64_t submitted = 0;  ///< submit() calls observed
  std::uint64_t completed = 0;  ///< requests delivered successfully
  std::uint64_t rejected = 0;   ///< backpressure rejections (kReject/stopped)
  std::uint64_t failed = 0;     ///< accepted but failed during execution
  std::uint64_t pending = 0;    ///< accepted, not yet completed or failed
  /// Shed by per-tenant admission control before reaching the queue
  /// (disjoint from `rejected`).
  std::uint64_t shed = 0;
  /// Completed, with the wave's passes ending after their deadline.
  std::uint64_t deadline_misses = 0;
  /// Callbacks that threw (sum of ClassStats::callback_errors).
  std::uint64_t callback_errors = 0;

  std::uint64_t waves = 0;
  std::uint64_t engine_passes = 0;
  std::uint64_t batch_items = 0;
  /// batch_items / engine_passes — the utilization figure of merit.
  double mean_wave_occupancy = 0;

  /// One entry per request class (ServiceConfig::qos.num_classes; always
  /// at least the classless entry 0), with the latency summaries and the
  /// stage breakdown of its completed requests.
  std::vector<ClassStats> classes;

  std::vector<ShardStats> shards;

  /// Telemetry ring counters (src/telemetry/), when lifecycle tracing is
  /// enabled (ServiceConfig::telemetry): events recorded on / dropped
  /// from the per-thread trace rings since the last reset_stats(). Both
  /// stay 0 with tracing disabled.
  std::uint64_t trace_events = 0;
  std::uint64_t trace_dropped_events = 0;
};

}  // namespace nttpim::service
