// NttService: the async serving front end of the NTT-PIM stack.
//
//   client threads                 NttService
//   --------------   submit()   -----------------------------------------
//   poly, params  ------------>  bounded queue --> wave former <-- shard 0
//   future/callback   <-------   (backpressure)    (coalesce to <-- shard 1
//                                                   mixed waves)     ...
//                                                               <-- shard S-1
//                                                          (free shards pull)
//
// Every entry point of the repo so far drives a backend synchronously:
// one caller, one transform, one engine pass — wave occupancy 1. The
// paper's deployment model is the opposite shape: many independent hosts
// issue NTT "write requests" and the PIM executes them bank-parallel.
// NttService closes that gap. Requests from any number of client threads
// are coalesced by a WaveFormer into *mixed waves* (each request keeps its
// own modulus and direction — the heterogeneous batching built in
// transform_batch_mixed), and each wave is executed by one of S shards.
//
// A shard is a worker thread owning a private fhe::NttBackend built from
// its BackendConfig descriptor — a simulated PIM device with its plan
// cache, or a host-CPU worker pool (see service/backend.h). The backend
// lives entirely on its worker thread, so independent backends run in
// parallel while every plan cache stays thread-confined (no locking on
// the hot path, which is also the TSan story: shard state is owned, not
// shared). Mixing kinds is the point: the default config is PIM-only, but
// a descriptor list like {pim8, cpu2} reproduces the paper's deployment
// shape where the host CPU path coexists with the accelerator, absorbing
// small transforms and overflow while bulk waves stay in-memory.
//
// Request kinds:
//  - transform: forward/inverse negacyclic NTT of one polynomial;
//  - multiply: negacyclic product a*b — the shard folds both forward
//    transforms into the wave's engine pass, does the pointwise product on
//    the host, and runs the inverse transforms of the wave's multiplies as
//    one second pass.
//
// Shards pull: whenever a worker is free it asks the former for its next
// wave, capped at its whole device (one channel's bank set per channel),
// and runs it as one engine pass. Nothing is assigned to a shard before
// it is free to run it, so the shards balance by construction — an idle
// shard takes the next wave, a busy one takes nothing — and the former's
// queue is the only place work waits, in (deadline, priority, arrival)
// order. Items travel unpinned: a multi-channel PIM device (one
// independent command bus per dram::DramGeometry channel) spreads them
// round-robin over its channels, so the buses overlap. Every wave executes
// entirely on one thread-confined backend.
//
// Results come back through a std::future or a fire-and-forget Callback.
// Backpressure is a bounded queue with block/reject policies; shutdown()
// drains everything accepted before joining the shards. stats() is safe
// to call at any time from any thread.
#pragma once

#include <chrono>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>  // std::once_flag only; locking goes through sync::Mutex
#include <thread>
#include <vector>

#include "service/admission.h"
#include "service/backend.h"
#include "service/request.h"
#include "service/stats.h"
#include "service/wave_former.h"
#include "sync/mutex.h"
#include "telemetry/trace_collector.h"

namespace nttpim::fhe {
class NttBackend;
}

namespace nttpim::service {

/// Wave-forming / admission half of the service configuration.
struct FormerConfig {
  /// Bounded-queue capacity, in batch items (a multiply counts 2).
  std::size_t queue_capacity = 1024;
  /// A wave is cut when a free shard's cap fills — (banks_per_shard /
  /// channels_per_shard) batch items per channel of its device (see
  /// BackendDescriptor::channels), which fills every bank of a default PIM
  /// shard once; a CPU shard has one channel, so it takes one channel's
  /// bank set per wave and its lanes split whatever arrives — or when the
  /// oldest pending request has waited this long.
  std::chrono::microseconds flush_window{200};
  OverflowPolicy overflow = OverflowPolicy::kBlock;
  /// Start with wave forming gated; call resume() to open the valve.
  /// (Deterministic staging for tests and pre-warmed deployments.)
  bool start_paused = false;
};

/// Execution-tier half of the service configuration: what the shards are.
struct BackendConfig {
  /// When `descriptors` is empty: number of identical PIM shards to build
  /// from the three fields below. Ignored otherwise.
  std::size_t shards = 1;
  /// Banks per default PIM shard device — with channels_per_shard, also
  /// what every shard's wave cap counts in (see FormerConfig::flush_window),
  /// regardless of the descriptor list.
  std::size_t banks_per_shard = 8;
  /// Independent command channels per default PIM shard device; the banks
  /// split evenly across them (banks_per_shard must be a multiple). One
  /// channel's bank set is the unit a shard's wave cap counts in;
  /// PimBackend spreads each pulled wave's items round-robin over the
  /// device's channels.
  std::size_t channels_per_shard = 1;
  /// Per-bank CU buffers (Nb) of each default PIM shard device.
  std::size_t num_buffers = 4;
  /// Device clock for the modeled-cycle accounting (default descriptors
  /// only; explicit descriptors carry their own).
  double freq_mhz = 1200.0;
  /// Explicit shard list: one backend per descriptor, in worker order
  /// (see make_pim_descriptor / make_cpu_descriptor). Non-empty wins over
  /// `shards`; this is how a heterogeneous tier — PIM devices plus CPU
  /// workers — is configured.
  std::vector<BackendDescriptor> descriptors;
};

/// Multi-tenant QoS half of the service configuration.
///
/// Deadlines and priorities act whenever requests carry them: the former
/// cuts waves in (deadline, priority, arrival) order and flushes no later
/// than the earliest pending deadline (wave_former.h), so the next free
/// shard pulls the most urgent work. Classless requests form in arrival
/// order.
struct QosConfig {
  /// Distinct request classes (tenants) the service accepts; sizes the
  /// per-class stats and bounds RequestClass::tenant (enforced at submit).
  std::size_t num_classes = 1;
  /// Per-tenant token buckets, indexed by tenant id (see admission.h).
  /// Empty (the default) admits everything; tenants beyond the vector are
  /// unlimited. A shed request fails with AdmissionShedError *before*
  /// touching the bounded queue and is counted per class.
  std::vector<TokenBucketConfig> admission;
};

/// Observability half of the service configuration: per-request
/// lifecycle tracing (src/telemetry/). The per-class stage breakdown
/// (ClassStats::stages) is always on — it rides the existing stats lock;
/// what this gates is the event stream behind the Chrome/Perfetto trace
/// export (telemetry/chrome_trace.h).
struct TelemetryConfig {
  /// Record lifecycle TraceEvents into per-thread rings, drainable via
  /// NttService::trace_collector(). Off (the default): no ring is ever
  /// allocated and every instrumentation point costs one relaxed atomic
  /// load and a branch.
  bool enabled = false;
  /// Per-thread ring capacity in events (rounded up to a power of two).
  /// Overflow drops the new event and counts it exactly
  /// (ServiceStats::trace_dropped_events) — never blocks a hot path.
  std::size_t ring_capacity = 1 << 14;
};

/// Service configuration, one sub-struct per layer of the pipeline:
/// admission + classing (qos), coalescing (former), execution (backend),
/// observability (telemetry).
struct ServiceConfig {
  BackendConfig backend;
  FormerConfig former;
  QosConfig qos;
  TelemetryConfig telemetry;
};

class NttService {
 public:
  /// Spawns one worker thread per shard and returns once every shard has
  /// finished constructing its backend (a multi-bank PimBackend zeroes
  /// hundreds of MB of simulated DRAM — without the barrier, early traffic
  /// would race S concurrent constructions and measure boot, not serving).
  /// Throws if any shard's backend fails to construct, after closing the
  /// former and joining the other workers.
  explicit NttService(const ServiceConfig& config = {});
  ~NttService();  ///< shutdown(): drains accepted work, joins shards

  NttService(const NttService&) = delete;
  NttService& operator=(const NttService&) = delete;

  /// Async forward/inverse negacyclic NTT of `poly` (moved in). The future
  /// yields the transformed coefficients, or throws QueueFullError /
  /// ServiceStoppedError (backpressure) or the execution error. Direction
  /// and QoS hints travel in `options` (see SubmitOptions).
  std::future<std::vector<std::uint32_t>> submit(
      std::vector<std::uint32_t> poly,
      std::shared_ptr<const ntt::NttParams> params, SubmitOptions options = {});

  /// Fire-and-forget variant: `done` runs on a shard thread (see Callback).
  void submit(std::vector<std::uint32_t> poly,
              std::shared_ptr<const ntt::NttParams> params,
              const SubmitOptions& options, Callback done);

  /// Async negacyclic product a*b in Z_q[X]/(X^N + 1). `options.inverse`
  /// is ignored (the product defines its own directions).
  std::future<std::vector<std::uint32_t>> submit_multiply(
      std::vector<std::uint32_t> a, std::vector<std::uint32_t> b,
      std::shared_ptr<const ntt::NttParams> params, SubmitOptions options = {});

  /// Open wave forming on a service built with `former.start_paused`
  /// (submissions accumulate until then).
  void resume();

  /// Block until every request accepted so far has completed or failed.
  /// The service keeps accepting new work; with concurrent submitters this
  /// is a moving target — it returns at some instant where the backlog hit
  /// zero. Do not call from a Callback (deadlocks the shard on itself).
  void drain();

  /// Graceful stop: no new submissions (they fail with
  /// ServiceStoppedError), every *accepted* request still executes, then
  /// the shard threads are joined. Idempotent and thread-safe; implied by
  /// the destructor. Un-pauses a paused service so the backlog drains.
  void shutdown();

  /// Snapshot, callable at any time from any thread. Counters, stage
  /// means and latency summaries all come from one acquisition of the
  /// stats lock, under which each request is booked once, so every
  /// snapshot tiles (see ClassStats and ServiceStats); trace-ring counters
  /// are sampled alongside. Cost: it copies each class's two latency
  /// windows (up to 2 x 65536 doubles) under the lock that submit() and
  /// every completing wave also take. drain() first for settled numbers.
  ServiceStats stats() const;

  /// Zero the counters and latency windows so a subsequent stats() covers
  /// only traffic from this point on — the post-warmup idiom of a load
  /// test or a fresh deployment. Requests in flight stay pending (the
  /// snapshot's `pending` survives a reset); they complete into the new
  /// counting epoch. ShardStats::modeled_cycles is a backend lifetime
  /// total and carries over.
  void reset_stats();

  /// The lifecycle trace rings (inert unless the service was built with
  /// telemetry enabled). drain() a Snapshot at a quiesce point and hand it
  /// to telemetry::write_chrome_trace for a Perfetto-loadable timeline.
  telemetry::TraceCollector& trace_collector() noexcept { return collector_; }
  const telemetry::TraceCollector& trace_collector() const noexcept {
    return collector_;
  }

  /// Resolved shard descriptors, in worker order (the defaults-expanded
  /// form of ServiceConfig::backend).
  const std::vector<BackendDescriptor>& shard_descriptors() const noexcept {
    return resolved_;
  }
  std::size_t shards() const noexcept { return resolved_.size(); }

 private:
  void enqueue(Request&& request);
  /// Builds the shard's backend, then pulls and executes waves until the
  /// former is closed and drained.
  void worker(std::size_t shard);
  void execute_wave(std::size_t shard, fhe::NttBackend& backend,
                    std::vector<Request>& wave);
  void validate(const Request& request) const;

  const ServiceConfig cfg_;
  /// One descriptor per shard: the configured backend descriptors, or
  /// `shards` copies of the default PIM descriptor.
  const std::vector<BackendDescriptor> resolved_;
  /// Lifecycle trace rings (see TelemetryConfig). Before the worker
  /// threads in declaration order, so it outlives every emitting thread.
  telemetry::TraceCollector collector_;
  /// Engaged iff qos.admission is non-empty:
  /// consulted by enqueue() before the former ever sees the request.
  std::optional<AdmissionController> admission_;
  WaveFormer former_;

  mutable sync::Mutex stats_mu_;
  sync::CondVar idle_cv_;  ///< drain() + constructor barrier
  std::size_t shards_ready_ NTTPIM_GUARDED_BY(stats_mu_) = 0;
  std::exception_ptr construction_error_ NTTPIM_GUARDED_BY(stats_mu_);
  /// One request class's book: `submitted` counts a request at entry, and
  /// its terminal transition -- shed, rejected or stopped in enqueue(),
  /// completed or failed in execute_wave() -- books it exactly once.
  struct ClassLedger {
    /// `totals.stages` holds per-stage *sums* (stats() divides them), and
    /// stats() fills the latency summaries from the windows below.
    ClassStats totals;
    LatencyRecorder queue_latency;
    LatencyRecorder service_latency;
  };
  /// Indexed by tenant (size num_classes).
  std::vector<ClassLedger> ledgers_ NTTPIM_GUARDED_BY(stats_mu_);
  std::vector<ShardStats> shard_stats_ NTTPIM_GUARDED_BY(stats_mu_);

  std::once_flag shutdown_once_;
  // Threads last: joined before any state above tears down.
  std::vector<std::thread> workers_;
};

}  // namespace nttpim::service
