#include "service/ntt_service.h"

#include <algorithm>
#include <exception>
#include <optional>
#include <utility>

#include "common/check.h"
#include "fhe/ntt_backend.h"
#include "ntt/poly.h"

namespace nttpim::service {

namespace {

std::vector<BackendDescriptor> resolve_descriptors(const ServiceConfig& cfg) {
  const BackendConfig& bc = cfg.backend;
  if (!bc.descriptors.empty()) {
    for (const BackendDescriptor& d : bc.descriptors) {
      NTTPIM_EXPECT_MSG(d.factory != nullptr,
                        "every backend descriptor needs a factory");
      NTTPIM_EXPECT_MSG(d.channels >= 1, "a shard needs at least one channel");
    }
    return bc.descriptors;
  }
  NTTPIM_EXPECT_MSG(bc.shards >= 1, "the service needs at least one shard");
  std::vector<BackendDescriptor> resolved;
  resolved.reserve(bc.shards);
  for (std::size_t s = 0; s < bc.shards; ++s)
    resolved.push_back(make_pim_descriptor(
        bc.banks_per_shard, bc.num_buffers, bc.freq_mhz,
        /*unused_cost_scale=*/1.0, bc.channels_per_shard));
  return resolved;
}

WaveFormer::Config former_config(const ServiceConfig& cfg) {
  WaveFormer::Config fc;
  fc.capacity_items = cfg.former.queue_capacity;
  fc.flush_window = cfg.former.flush_window;
  fc.overflow = cfg.former.overflow;
  fc.start_paused = cfg.former.start_paused;
  return fc;
}

double elapsed_us(ServiceClock::time_point from, ServiceClock::time_point to) {
  return std::chrono::duration<double, std::micro>(to - from).count();
}

/// Requests of `c` not yet booked into a terminal state.
std::uint64_t unsettled(const ClassStats& c) {
  return c.submitted - c.completed - c.failed - c.rejected - c.shed;
}

/// Batch items of a wave's engine passes: pass 1 runs every transform in
/// its requested direction plus both operands of every multiply forward;
/// pass 2 runs the multiplies' inverse transforms. Items reference the
/// wave's request buffers (stable addresses — the Request objects live in
/// `wave`).
struct WavePasses {
  std::vector<fhe::BatchItem> forward;
  std::vector<fhe::BatchItem> inverse;
};

WavePasses wave_passes(std::vector<Request>& wave) {
  WavePasses passes;
  passes.forward.reserve(wave.size() * 2);
  for (Request& r : wave) {
    if (r.kind == Request::Kind::kMultiply) {
      passes.forward.push_back({&r.a, r.params.get(), false});
      passes.forward.push_back({&r.b, r.params.get(), false});
      passes.inverse.push_back({&r.a, r.params.get(), true});
    } else {
      passes.forward.push_back({&r.a, r.params.get(), r.inverse});
    }
  }
  return passes;
}

}  // namespace

NttService::NttService(const ServiceConfig& config)
    : cfg_(config),
      resolved_(resolve_descriptors(config)),
      collector_(telemetry::TraceCollector::Config{
          config.telemetry.enabled, config.telemetry.ring_capacity}),
      former_(former_config(config)),
      ledgers_(std::max<std::size_t>(cfg_.qos.num_classes, 1)),
      shard_stats_(resolved_.size()) {
  NTTPIM_EXPECT_MSG(cfg_.qos.num_classes >= 1,
                    "the service needs at least one request class");
  NTTPIM_EXPECT_MSG(
      cfg_.qos.admission.size() <= cfg_.qos.num_classes,
      "admission buckets beyond qos.num_classes can never be consulted");
  if (!cfg_.qos.admission.empty())
    admission_.emplace(cfg_.qos.admission);
  NTTPIM_EXPECT_MSG(cfg_.backend.banks_per_shard >= 1,
                    "wave sizing needs at least one bank per shard");
  NTTPIM_EXPECT_MSG(
      cfg_.backend.channels_per_shard >= 1 &&
          cfg_.backend.banks_per_shard % cfg_.backend.channels_per_shard == 0,
      "banks_per_shard must split evenly across channels_per_shard");
  workers_.reserve(resolved_.size());
  for (std::size_t s = 0; s < resolved_.size(); ++s)
    workers_.emplace_back([this, s] { worker(s); });

  // Readiness barrier: don't hand the service to callers until every shard
  // backend exists. On a failed construction, drain the survivors and
  // rethrow here (the destructor never runs for a throwing constructor).
  {
    sync::MutexLock lk(stats_mu_);
    while (shards_ready_ != resolved_.size()) idle_cv_.wait(lk);
    // Copy the verdict out while still holding the lock — the join path
    // below runs unlocked and must not touch the guarded slot.
    const std::exception_ptr error = construction_error_;
    lk.unlock();
    if (error) {
      former_.close();  // releases the surviving workers' pulls
      for (std::thread& t : workers_) t.join();
      std::rethrow_exception(error);
    }
  }
}

NttService::~NttService() { shutdown(); }

void NttService::validate(const Request& request) const {
  NTTPIM_EXPECT_MSG(request.params != nullptr,
                    "a request needs a parameter set");
  NTTPIM_EXPECT_MSG(request.a.size() == request.params->n(),
                    "polynomial length must equal the parameter set's N");
  if (request.kind == Request::Kind::kMultiply)
    NTTPIM_EXPECT_MSG(request.b.size() == request.params->n(),
                      "second operand length must equal the parameter set's N");
  NTTPIM_EXPECT_MSG(request.qos.tenant < cfg_.qos.num_classes,
                    "request tenant must be < qos.num_classes");
}

std::future<std::vector<std::uint32_t>> NttService::submit(
    std::vector<std::uint32_t> poly,
    std::shared_ptr<const ntt::NttParams> params, SubmitOptions options) {
  Request r;
  r.kind = Request::Kind::kTransform;
  r.a = std::move(poly);
  r.params = std::move(params);
  r.inverse = options.inverse;
  r.qos = options.qos;
  auto future = r.promise.get_future();
  enqueue(std::move(r));
  return future;
}

void NttService::submit(std::vector<std::uint32_t> poly,
                        std::shared_ptr<const ntt::NttParams> params,
                        const SubmitOptions& options, Callback done) {
  NTTPIM_EXPECT_MSG(done != nullptr, "fire-and-forget needs a callback");
  Request r;
  r.kind = Request::Kind::kTransform;
  r.a = std::move(poly);
  r.params = std::move(params);
  r.inverse = options.inverse;
  r.qos = options.qos;
  r.callback = std::move(done);
  enqueue(std::move(r));
}

std::future<std::vector<std::uint32_t>> NttService::submit_multiply(
    std::vector<std::uint32_t> a, std::vector<std::uint32_t> b,
    std::shared_ptr<const ntt::NttParams> params, SubmitOptions options) {
  Request r;
  r.kind = Request::Kind::kMultiply;
  r.a = std::move(a);
  r.b = std::move(b);
  r.params = std::move(params);
  r.qos = options.qos;
  auto future = r.promise.get_future();
  enqueue(std::move(r));
  return future;
}

void NttService::enqueue(Request&& request) {
  validate(request);  // synchronous misuse -> std::invalid_argument here
  request.submitted = ServiceClock::now();
  const std::uint32_t cls = request.qos.tenant;
  const ServiceClock::time_point submitted = request.submitted;
  // Admission runs *before* the bounded queue: a tenant past its token
  // bucket is shed here, so a flooding tenant never consumes queue
  // capacity, coalescing delay, or a wave slot (see admission.h).
  if (admission_ && admission_->admit(cls, submitted) ==
                        AdmissionController::Decision::kShed) {
    if (collector_.enabled()) {
      // A shed request never received a seq; its Submit/Shed pair is
      // joined by adjacency on the client thread's ring instead.
      telemetry::TraceEvent e{};
      e.tenant = cls;
      e.kind = telemetry::EventKind::kSubmit;
      e.ts_ns = collector_.to_ns(submitted);
      collector_.emit(e);
      e.kind = telemetry::EventKind::kShed;
      e.ts_ns = collector_.now_ns();
      collector_.emit(e);
    }
    // The shed books in one step, after its callback ran on this thread:
    // it is never pending, and a throw from the callback lands with it.
    const bool callback_threw =
        request.fail(std::make_exception_ptr(AdmissionShedError()));
    const sync::MutexLock lk(stats_mu_);
    ClassStats& book = ledgers_[cls].totals;
    ++book.submitted;
    ++book.shed;
    book.callback_errors += callback_threw;
    return;
  }
  {
    // Count the submission *before* the queue sees it, so drain() can
    // never observe a settled backlog while a worker is finishing a
    // request whose submit() hasn't returned yet.
    const sync::MutexLock lk(stats_mu_);
    ++ledgers_[cls].totals.submitted;
  }
  WaveFormer::SubmitInfo info;
  const WaveFormer::SubmitResult result =
      former_.submit(std::move(request), &info);
  if (result == WaveFormer::SubmitResult::kAccepted) {
    if (collector_.enabled()) {
      // The former stamped seq/enqueued after the move, so the client
      // thread emits its lifecycle events backdated from SubmitInfo.
      telemetry::TraceEvent e{};
      e.seq = info.seq;
      e.tenant = cls;
      e.kind = telemetry::EventKind::kSubmit;
      e.ts_ns = collector_.to_ns(submitted);
      collector_.emit(e);
      if (admission_) {
        // The admission verdict falls synchronously at submit entry.
        e.kind = telemetry::EventKind::kAdmit;
        collector_.emit(e);
      }
      e.kind = telemetry::EventKind::kFormerEnqueue;
      e.ts_ns = collector_.to_ns(info.enqueued);
      collector_.emit(e);
    }
    return;
  }
  // Only moved from on kAccepted -- the request is still whole here.
  const bool callback_threw =
      request.fail(result == WaveFormer::SubmitResult::kRejected
                       ? std::make_exception_ptr(QueueFullError())
                       : std::make_exception_ptr(ServiceStoppedError()));
  {
    const sync::MutexLock lk(stats_mu_);
    ++ledgers_[cls].totals.rejected;
    ledgers_[cls].totals.callback_errors += callback_threw;
  }
  idle_cv_.notify_all();
}

void NttService::worker(std::size_t shard) {
  // The shard's entire execution state -- backend, and for a PIM shard its
  // simulated device, engine and plan cache -- is built here and lives on
  // this thread. No other thread reads it, so waves on different shards
  // are genuinely parallel host work.
  if (collector_.enabled())
    collector_.set_thread_name("shard-" + std::to_string(shard));
  std::unique_ptr<fhe::NttBackend> backend;
  try {
    backend = resolved_[shard].factory();
    NTTPIM_CHECK_MSG(backend != nullptr,
                     "a backend factory returned null");
  } catch (...) {
    const sync::MutexLock lk(stats_mu_);
    construction_error_ = std::current_exception();
  }
  {
    const sync::MutexLock lk(stats_mu_);
    ++shards_ready_;
  }
  idle_cv_.notify_all();
  if (!backend) return;

  // Pull whenever free: a wave sized to the whole device, one channel's
  // bank set per channel.
  const std::size_t max_items =
      cfg_.backend.banks_per_shard / cfg_.backend.channels_per_shard *
      resolved_[shard].channels;
  for (;;) {
    std::vector<Request> wave = former_.next_wave(max_items);
    if (wave.empty()) return;  // closed and drained
    execute_wave(shard, *backend, wave);
  }
}

void NttService::execute_wave(std::size_t shard, fhe::NttBackend& backend,
                              std::vector<Request>& wave) {
  const auto wave_start = ServiceClock::now();
  // Pass 1: every transform in its requested direction, both operands of
  // every multiply forward -- one heterogeneous engine pass whose unpinned
  // items a multi-channel device spreads over its command buses. Pass 2
  // (only if the wave has multiplies): pointwise products on the host,
  // then the inverse transforms as one more pass. The inverse items
  // already point at each multiply's `a` buffer, which the pointwise
  // product overwrites in place.
  const WavePasses passes = wave_passes(wave);
  const std::uint64_t cycles_before = backend.modeled_cycles();

  const std::uint64_t wave_id = wave.front().wave_id;
  const auto shard_id = static_cast<std::uint16_t>(shard);
  if (collector_.enabled()) {
    // One WaveCut per request, backdated to the former's cut stamp — the
    // flow step that joins each request's seq to its wave_id.
    telemetry::TraceEvent e{};
    e.kind = telemetry::EventKind::kWaveCut;
    e.shard = shard_id;
    for (const Request& r : wave) {
      e.ts_ns = collector_.to_ns(r.cut_at);
      e.seq = r.seq;
      e.wave_id = r.wave_id;
      e.tenant = r.qos.tenant;
      collector_.emit(e);
    }
    telemetry::TraceEvent begin{};
    begin.kind = telemetry::EventKind::kExecuteBegin;
    begin.ts_ns = collector_.to_ns(wave_start);
    begin.wave_id = wave_id;
    begin.shard = shard_id;
    collector_.emit(begin);
  }

  std::uint64_t engine_passes = 0;
  std::uint64_t items = 0;
  std::exception_ptr error;
  try {
    backend.transform_batch_mixed(passes.forward);
    ++engine_passes;
    items += passes.forward.size();

    if (!passes.inverse.empty()) {
      for (Request& r : wave) {
        if (r.kind != Request::Kind::kMultiply) continue;
        r.a = ntt::pointwise_mul(r.a, r.b, r.params->q());
      }
      backend.transform_batch_mixed(passes.inverse);
      ++engine_passes;
      items += passes.inverse.size();
    }
  } catch (...) {
    // A wave fails as a unit: the backend state after a mid-pass throw is
    // unspecified, so every rider sees the same error.
    error = std::current_exception();
  }

  const auto done = ServiceClock::now();
  // The wave's modeled device time: every pass that completed (a pass
  // that throws books nothing), so a multiply wave's two makespans add.
  const std::uint64_t modeled_cycles = backend.modeled_cycles();
  const std::uint64_t wave_cycles = modeled_cycles - cycles_before;
  const auto missed = [done](const Request& r) {
    return r.qos.deadline && done > *r.qos.deadline;
  };
  if (collector_.enabled()) {
    // ExecuteEnd is emitted on failure too, so every ExecuteBegin always
    // has its closing pair in the trace.
    telemetry::TraceEvent e{};
    e.kind = telemetry::EventKind::kExecuteEnd;
    e.ts_ns = collector_.to_ns(done);
    e.wave_id = wave_id;
    e.shard = shard_id;
    e.cycles = wave_cycles;
    collector_.emit(e);
  }

  // Deliveries run outside stats_mu_: a callback may call stats(). Every
  // rider ends in exactly one terminal event, Complete or Fail, which is
  // what closes its flow in the trace. A callback's throw is booked below,
  // with the rider's terminal state.
  std::vector<bool> callback_threw(wave.size());
  for (std::size_t i = 0; i < wave.size(); ++i) {
    Request& r = wave[i];
    callback_threw[i] = error ? r.fail(error) : r.deliver(std::move(r.a));
    r.delivered = ServiceClock::now();
    if (collector_.enabled()) {
      telemetry::TraceEvent e{};
      e.seq = r.seq;
      e.wave_id = r.wave_id;
      e.tenant = r.qos.tenant;
      e.shard = shard_id;
      if (!error && missed(r)) {
        e.kind = telemetry::EventKind::kDeadlineMiss;
        e.ts_ns = collector_.to_ns(done);
        collector_.emit(e);
      }
      e.kind = error ? telemetry::EventKind::kFail
                     : telemetry::EventKind::kComplete;
      e.ts_ns = collector_.to_ns(r.delivered);
      collector_.emit(e);
    }
  }

  // Book the shard, then every rider's terminal transition into its
  // class's ledger. A failed rider books `failed` only -- no latency or
  // stage sample.
  {
    const sync::MutexLock lk(stats_mu_);
    ShardStats& ss = shard_stats_[shard];
    ++ss.waves;
    ss.engine_passes += engine_passes;
    ss.batch_items += items;
    ss.requests += wave.size();
    ss.modeled_cycles = modeled_cycles;
    for (std::size_t i = 0; i < wave.size(); ++i) {
      const Request& r = wave[i];
      ClassLedger& ledger = ledgers_[r.qos.tenant];
      ClassStats& book = ledger.totals;
      book.callback_errors += callback_threw[i];
      if (error) {
        ++book.failed;
        continue;
      }
      ++book.completed;
      if (missed(r)) {
        ++book.deadline_misses;
        ++ss.deadline_missed_requests;
      }
      StageBreakdown& sums = book.stages;
      sums.admission_wait_us += elapsed_us(r.submitted, r.enqueued);
      sums.former_residency_us += elapsed_us(r.enqueued, r.cut_at);
      sums.shard_queue_wait_us += elapsed_us(r.cut_at, wave_start);
      sums.execute_us += elapsed_us(wave_start, done);
      sums.completion_us += elapsed_us(done, r.delivered);
      ledger.queue_latency.record(elapsed_us(r.enqueued, wave_start));
      ledger.service_latency.record(elapsed_us(r.enqueued, done));
    }
  }
  idle_cv_.notify_all();
}

void NttService::resume() { former_.resume(); }

void NttService::drain() {
  sync::MutexLock lk(stats_mu_);
  for (;;) {
    std::uint64_t pending = 0;
    for (const ClassLedger& ledger : ledgers_)
      pending += unsettled(ledger.totals);
    if (pending == 0) return;
    idle_cv_.wait(lk);
  }
}

void NttService::shutdown() {
  std::call_once(shutdown_once_, [&] {
    // The workers pull the former's backlog dry, then see it closed.
    former_.close();
    for (std::thread& t : workers_) t.join();
  });
}

void NttService::reset_stats() {
  {
    const sync::MutexLock lk(stats_mu_);
    // What is still in flight carries over as the new epoch's pending
    // backlog, so drain() keeps waiting for it.
    for (ClassLedger& ledger : ledgers_) {
      const std::uint64_t in_flight = unsettled(ledger.totals);
      ledger.totals = ClassStats{};
      ledger.totals.submitted = in_flight;
      ledger.queue_latency.reset();
      ledger.service_latency.reset();
    }
    // The modeled-hardware account has no epochs: modeled_cycles carries
    // over.
    for (ShardStats& ss : shard_stats_)
      ss = ShardStats{.modeled_cycles = ss.modeled_cycles};
  }
  // Telemetry joins the stats epoch: buffered events and ring counters
  // are dropped so a post-warmup trace covers only the measured window.
  collector_.reset();
}

ServiceStats NttService::stats() const {
  ServiceStats s;
  std::vector<ClassLedger> ledgers;
  {
    const sync::MutexLock lk(stats_mu_);
    ledgers = ledgers_;
    s.shards = shard_stats_;
  }
  // Everything below is derived from that one copy.
  for (const ClassLedger& ledger : ledgers) {
    ClassStats& cs = s.classes.emplace_back(ledger.totals);
    StageBreakdown& sb = cs.stages;
    sb.count = cs.completed;
    if (sb.count > 0) {
      const double n = static_cast<double>(sb.count);
      sb.admission_wait_us /= n;
      sb.former_residency_us /= n;
      sb.shard_queue_wait_us /= n;
      sb.execute_us /= n;
      sb.completion_us /= n;
    }
    sb.total_us = sb.admission_wait_us + sb.former_residency_us +
                  sb.shard_queue_wait_us + sb.execute_us + sb.completion_us;
    cs.queue_latency = ledger.queue_latency.summary();
    cs.service_latency = ledger.service_latency.summary();
    s.submitted += cs.submitted;
    s.completed += cs.completed;
    s.failed += cs.failed;
    s.rejected += cs.rejected;
    s.shed += cs.shed;
    s.deadline_misses += cs.deadline_misses;
    s.callback_errors += cs.callback_errors;
    s.pending += unsettled(cs);
  }
  // The backend kind is re-stamped from the resolved descriptors so it
  // survives reset_stats().
  for (std::size_t i = 0; i < s.shards.size(); ++i) {
    ShardStats& ss = s.shards[i];
    ss.kind = resolved_[i].kind;
    s.waves += ss.waves;
    s.engine_passes += ss.engine_passes;
    s.batch_items += ss.batch_items;
  }
  s.mean_wave_occupancy = s.engine_passes
                              ? static_cast<double>(s.batch_items) /
                                    static_cast<double>(s.engine_passes)
                              : 0;
  // Trace-ring counters are internally synchronized (the collector has
  // its own lock); sampled alongside.
  s.trace_events = collector_.total_events();
  s.trace_dropped_events = collector_.dropped_events();
  return s;
}

}  // namespace nttpim::service
