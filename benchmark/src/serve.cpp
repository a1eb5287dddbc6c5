// The NttService workloads. All load comes from this process: closed-loop
// client threads (serve_small, serve_mixed) or one open-loop generator
// thread (serve_open), never more than the four a 4-core host runs.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <map>
#include <random>
#include <stdexcept>
#include <thread>

#include "ledger.h"
#include "service/ntt_service.h"
#include "telemetry/chrome_trace.h"
#include "workloads.h"

namespace nttpim::benchmark {

namespace {

using service::NttService;
using service::ServiceStats;

/// One service workload: its inputs, its tier and its load.
struct Spec {
  std::size_t n = 0;
  std::size_t moduli = 0;
  std::vector<OpKind> kinds;
  std::vector<double> kind_weights;  ///< share of ops of each kind
  service::ServiceConfig config;
  std::size_t clients = 0;  ///< closed-loop clients; 0 = open loop
  double rate = 0;          ///< open loop: offered op/s of the main pass
};

Spec spec_for(const std::string& workload) {
  Spec s;
  if (workload == "serve_small") {
    // Default ServiceConfig: 1 PIM shard, 8 banks, 200 µs flush window.
    // Four clients cannot fill an 8-bank wave, so the flush window and
    // per-request costs set latency.
    s.n = 256;
    s.moduli = 1;
    s.kinds = {OpKind::kForward};
    s.kind_weights = {1};
    s.clients = 4;
  } else if (workload == "serve_open") {
    // Poisson arrivals the service does not pace: queueing, shard-queue
    // wait and channel assignment show only here.
    s.n = 1024;
    s.moduli = 4;
    s.kinds = {OpKind::kForward, OpKind::kInverse};
    s.kind_weights = {0.5, 0.5};
    s.config.backend.banks_per_shard = 8;
    s.config.backend.channels_per_shard = 2;
    s.rate = 1200;
  } else if (workload == "serve_mixed") {
    // Multiplies, a CPU shard and 8x the plan keys: the same layers used
    // differently (inverse pass, host pointwise, cost-aware routing).
    s.n = 1024;
    s.moduli = 8;
    s.kinds = {OpKind::kForward, OpKind::kMultiply};
    s.kind_weights = {0.7, 0.3};
    s.config.backend.banks_per_shard = 8;
    s.config.backend.channels_per_shard = 2;
    s.config.backend.descriptors = {
        service::make_pim_descriptor(8, kNumBuffers, kFreqMhz, 1.0, 2),
        service::make_cpu_descriptor(2)};
    s.clients = 3;
  } else {
    throw std::invalid_argument("unknown workload " + workload);
  }
  return s;
}

/// Seeded choice of (pool, case) following the spec's kind weights.
class OpSource {
 public:
  OpSource(const Spec& spec, const std::vector<KeyPool>& pools,
           std::uint64_t seed)
      : pools_(pools), rng_(seed) {
    std::vector<double> weights;
    for (std::size_t i = 0; i < pools.size(); ++i)
      weights.push_back(spec.kind_weights[i % spec.kinds.size()]);
    pick_pool_ = std::discrete_distribution<std::size_t>(weights.begin(),
                                                          weights.end());
  }

  std::pair<const KeyPool*, const Case*> next() {
    const KeyPool& pool = pools_[pick_pool_(rng_)];
    return {&pool, &pool.cases[pick_case_(rng_)]};
  }

 private:
  const std::vector<KeyPool>& pools_;
  std::mt19937_64 rng_;
  std::discrete_distribution<std::size_t> pick_pool_;
  std::uniform_int_distribution<std::size_t> pick_case_{0, kCasesPerKey - 1};
};

constexpr double kInf = std::numeric_limits<double>::infinity();

std::uint64_t seed_of(std::uint64_t seed, std::uint64_t stream) {
  return seed * 1000003 + stream;
}

/// Submits one op on copies the caller made (`b` is used by multiplies
/// only); closed-loop clients wait on the future it returns.
std::future<std::vector<std::uint32_t>> submit(NttService& svc,
                                               const KeyPool& pool,
                                               std::vector<std::uint32_t> a,
                                               std::vector<std::uint32_t> b) {
  if (pool.kind == OpKind::kMultiply)
    return svc.submit_multiply(std::move(a), std::move(b), pool.params);
  service::SubmitOptions options;
  options.inverse = pool.kind == OpKind::kInverse;
  return svc.submit(std::move(a), pool.params, options);
}

/// Builds the service and maps every key: a burst of one op per key per
/// bank, waited on and checked. Returns once every op came back.
std::unique_ptr<NttService> build(const Spec& spec,
                                  const std::vector<KeyPool>& pools,
                                  bool telemetry) {
  service::ServiceConfig config = spec.config;
  config.telemetry.enabled = telemetry;
  auto svc = std::make_unique<NttService>(config);
  std::vector<std::future<std::vector<std::uint32_t>>> burst;
  std::vector<const Case*> expected;
  for (std::size_t rep = 0; rep < config.backend.banks_per_shard; ++rep)
    for (const KeyPool& pool : pools) {
      const Case& c = pool.cases[rep % kCasesPerKey];
      burst.push_back(submit(*svc, pool, c.a, c.b));
      expected.push_back(&c);
    }
  for (std::size_t i = 0; i < burst.size(); ++i)
    if (burst[i].get() != expected[i]->expected)
      throw std::runtime_error("set-up result differs from the reference");
  return svc;
}

PassStats merge(const std::vector<PassStats>& parts) {
  PassStats all;
  for (const PassStats& p : parts) {
    all.latency_us.insert(all.latency_us.end(), p.latency_us.begin(),
                          p.latency_us.end());
    all.lag_us.insert(all.lag_us.end(), p.lag_us.begin(), p.lag_us.end());
    all.done_s.insert(all.done_s.end(), p.done_s.begin(), p.done_s.end());
    all.submit_call_us.insert(all.submit_call_us.end(),
                              p.submit_call_us.begin(), p.submit_call_us.end());
    all.attempted += p.attempted;
    all.completed += p.completed;
    all.mismatches += p.mismatches;
    all.errors += p.errors;
    all.elapsed_s = std::max(all.elapsed_s, p.elapsed_s);
  }
  return all;
}

/// `clients` threads, each submitting its next op when the previous one
/// returned, for `seconds`. Latency: submit() call until future.get()
/// returns.
PassStats closed_loop(NttService& svc, const Spec& spec,
                      const std::vector<KeyPool>& pools, double seconds,
                      std::uint64_t seed, SpanRecorder* spans) {
  std::vector<PassStats> parts(spec.clients);
  const auto start = Clock::now();
  const auto end = start + std::chrono::duration<double>(seconds);
  std::vector<std::thread> threads;
  for (std::size_t id = 0; id < spec.clients; ++id)
    threads.emplace_back([&, id] {
      PassStats& s = parts[id];
      OpSource source(spec, pools, seed_of(seed, id));
      auto received = start;
      for (std::uint64_t op = 0; Clock::now() < end; ++op) {
        const auto [pool, c] = source.next();
        const std::uint64_t request = id << 40 | op;
        std::vector<std::uint32_t> a = c->a, b = c->b;
        const auto t0 = Clock::now();
        if (op > 0) s.lag_us.push_back(us_between(received, t0));
        auto future = submit(svc, *pool, std::move(a), std::move(b));
        const auto t1 = Clock::now();
        s.submit_call_us.push_back(us_between(t0, t1));
        std::vector<std::uint32_t> out;
        bool returned = true;
        try {
          out = future.get();
        } catch (const std::exception&) {
          returned = false;
        }
        received = Clock::now();
        const bool ok = returned && out == c->expected;
        ++s.attempted;
        s.completed += returned;
        s.mismatches += returned && !ok;
        s.errors += !returned;
        s.latency_us.push_back(ok ? us_between(t0, received) : kInf);
        s.done_s.push_back(us_between(start, received) / 1e6);
        if (spans) {
          spans->record("submit", request, t0, t1);
          spans->record("await_result", request, t1, received);
        }
      }
      s.elapsed_s = us_between(start, received) / 1e6;
    });
  for (std::thread& t : threads) t.join();
  return merge(parts);
}

/// What one open-loop step observed beyond its PassStats.
struct OpenStep {
  PassStats stats;
  double achieved_ops = 0;       ///< completions within the step, per second
  std::uint64_t pending_at_end = 0;  ///< sent but not completed at its end
};

/// One generator thread sending `rate` op/s for `seconds`: send times are
/// a seeded Poisson process conditioned on rate * seconds arrivals (sorted
/// uniform times), so every seed offers exactly the same load. Requests
/// go through the callback submit(); latency runs from the scheduled send
/// time until the callback runs, so a stalled send delays every later one.
OpenStep open_loop(NttService& svc, const Spec& spec,
                   const std::vector<KeyPool>& pools, double rate,
                   double seconds, std::uint64_t seed, SpanRecorder* spans) {
  const auto count = static_cast<std::size_t>(std::llround(rate * seconds));
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> uniform(0, seconds);
  std::vector<double> due_s(count);
  for (double& t : due_s) t = uniform(rng);
  std::sort(due_s.begin(), due_s.end());
  OpSource source(spec, pools, seed_of(seed, 1));

  struct Slot {
    const Case* c = nullptr;
    Clock::time_point due;
    Clock::time_point done;
    bool returned = false;
    bool ok = false;
  };
  std::vector<Slot> slots(count);
  std::atomic<std::size_t> finished{0};

  OpenStep step;
  PassStats& s = step.stats;
  s.paced = true;
  const auto start = Clock::now() + std::chrono::milliseconds(1);
  for (std::size_t i = 0; i < count; ++i) {
    const auto [pool, c] = source.next();
    std::vector<std::uint32_t> a = c->a;
    Slot& slot = slots[i];
    slot.c = c;
    slot.due = start + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(due_s[i]));
    while (Clock::now() < slot.due) {
    }
    const auto t0 = Clock::now();
    s.lag_us.push_back(us_between(slot.due, t0));
    auto done = [&slot, &finished, spans, i](std::vector<std::uint32_t>&& out,
                                             std::exception_ptr error) {
      slot.done = Clock::now();
      slot.returned = error == nullptr;
      slot.ok = slot.returned && out == slot.c->expected;
      if (spans) spans->record("deliver", i, slot.done, Clock::now());
      finished.fetch_add(1, std::memory_order_release);
    };
    service::SubmitOptions options;
    options.inverse = pool->kind == OpKind::kInverse;
    svc.submit(std::move(a), pool->params, options, std::move(done));
    const auto t1 = Clock::now();
    s.submit_call_us.push_back(us_between(t0, t1));
    if (spans) spans->record("submit", i, t0, t1);
  }
  const auto step_end =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  if (Clock::now() < step_end) std::this_thread::sleep_until(step_end);
  step.pending_at_end =
      count - finished.load(std::memory_order_acquire);
  svc.drain();  // every callback has run once drain() returns
  if (finished.load(std::memory_order_acquire) != count)
    throw std::logic_error("drain() returned before every callback ran");

  auto last = start;
  std::size_t in_window = 0;
  for (const Slot& slot : slots) {
    ++s.attempted;
    s.completed += slot.returned;
    s.mismatches += slot.returned && !slot.ok;
    s.errors += !slot.returned;
    s.latency_us.push_back(slot.ok ? us_between(slot.due, slot.done) : kInf);
    s.done_s.push_back(us_between(start, slot.done) / 1e6);
    last = std::max(last, slot.done);
    in_window += slot.done <= step_end;
  }
  s.elapsed_s = us_between(start, last) / 1e6;
  step.achieved_ops = static_cast<double>(in_window) / seconds;
  return step;
}

/// A measured pass with the service's own view of it.
struct ServicePass {
  OpenStep client;
  ServiceStats stats;        ///< after drain(), covering this pass only
  double pim_cycles = 0;     ///< modeled cycles of the PIM shards
  double all_cycles = 0;     ///< modeled cycles of every shard
};

/// Runs one pass from a quiet, freshly reset service, then checks from
/// outside that every request reached exactly one terminal state and that
/// the service's counts match the client's.
ServicePass run_pass(NttService& svc, const Spec& spec,
                     const std::vector<KeyPool>& pools, double rate,
                     double seconds, std::uint64_t seed, SpanRecorder* spans,
                     Result& result) {
  const auto stats = [&] {
    const auto t0 = Clock::now();
    ServiceStats snapshot = svc.stats();
    if (spans) spans->record("stats", 0, t0, Clock::now());
    return snapshot;
  };
  svc.drain();
  svc.reset_stats();
  const ServiceStats before = stats();
  ServicePass pass;
  if (spec.clients > 0)
    pass.client.stats = closed_loop(svc, spec, pools, seconds, seed, spans);
  else
    pass.client = open_loop(svc, spec, pools, rate, seconds, seed, spans);
  svc.drain();
  pass.stats = stats();
  const ServiceStats& s = pass.stats;
  for (std::size_t i = 0; i < s.shards.size(); ++i) {
    const auto delta = static_cast<double>(s.shards[i].modeled_cycles -
                                           before.shards[i].modeled_cycles);
    pass.all_cycles += delta;
    if (s.shards[i].kind == service::BackendKind::kPim)
      pass.pim_cycles += delta;
  }

  const PassStats& c = pass.client.stats;
  result.count(c);
  const std::uint64_t terminal =
      s.completed + s.failed + s.rejected + s.shed + s.pending;
  const auto violation = [&](bool bad, const std::string& what) {
    if (!bad) return;
    result.fail_check(what);
    ++result.failed;
  };
  violation(s.submitted != terminal,
            "submitted != completed + failed + rejected + shed + pending");
  violation(s.pending != 0, "requests still pending after drain()");
  violation(s.submitted != c.attempted,
            "service counted a different number of submissions");
  violation(s.completed != c.completed,
            "service counted a different number of completions");
  return pass;
}

/// Completed requests on PIM shards, and on all shards.
std::pair<double, double> shard_requests(const ServiceStats& s) {
  double pim = 0, all = 0;
  for (const service::ShardStats& shard : s.shards) {
    all += static_cast<double>(shard.requests);
    if (shard.kind == service::BackendKind::kPim)
      pim += static_cast<double>(shard.requests);
  }
  return {pim, all};
}

/// The rate ladder of serve_open: each step offers a fixed rate and passes
/// when its p90 (failed requests counting as over the limit) is within
/// kSloP90Us, it achieved >= 98% of the offered rate, and at its end at
/// most 2% of its sends were still pending. Returns the achieved rate of
/// the highest passing step, stopping at the first failing one.
double slo_ladder(NttService& svc, const Spec& spec,
                  const std::vector<KeyPool>& pools, double step_seconds,
                  std::uint64_t seed, Result& result) {
  double best = 0;
  std::uint64_t stream = 100;
  for (const double rate : {1000.0, 1500.0, 2000.0, 3000.0, 4000.0, 6000.0}) {
    const ServicePass step = run_pass(svc, spec, pools, rate, step_seconds,
                                      seed_of(seed, ++stream), nullptr, result);
    const OpenStep& o = step.client;
    const bool pass =
        percentile(o.stats.latency_us, 0.9) <= kSloP90Us &&
        o.achieved_ops >= 0.98 * rate &&
        static_cast<double>(o.pending_at_end) <=
            0.02 * static_cast<double>(o.stats.attempted);
    if (!pass) break;
    best = o.achieved_ops;
  }
  return best;
}

/// Drains the trace rings while a traced pass runs, so no ring overflows.
/// It never calls stats(): a snapshot sorts every latency window under the
/// recorders' locks and would stall the shards it observes.
class TraceDrainer {
 public:
  explicit TraceDrainer(NttService& svc)
      : svc_(svc), thread_([this] { loop(); }) {}
  ~TraceDrainer() { stop(); }
  TraceDrainer(const TraceDrainer&) = delete;
  TraceDrainer& operator=(const TraceDrainer&) = delete;

  void stop() {
    stop_.store(true, std::memory_order_relaxed);
    if (thread_.joinable()) thread_.join();
  }

  /// Everything drained so far plus what is still buffered; call after
  /// stop() and after the service's threads stopped emitting.
  telemetry::TraceCollector::Snapshot snapshot() {
    absorb();
    telemetry::TraceCollector::Snapshot all;
    all.dropped_events = svc_.trace_collector().dropped_events();
    for (auto& [tid, thread] : threads_) all.threads.push_back(thread);
    return all;
  }

 private:
  void loop() {
    while (!stop_.load(std::memory_order_relaxed)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      absorb();
    }
  }

  void absorb() {
    for (auto& thread : svc_.trace_collector().drain().threads) {
      auto& into = threads_[thread.tid];
      into.name = thread.name;
      into.tid = thread.tid;
      into.events.insert(into.events.end(), thread.events.begin(),
                         thread.events.end());
    }
  }

  NttService& svc_;
  std::map<std::uint64_t, telemetry::TraceCollector::ThreadTrace> threads_;
  std::atomic<bool> stop_{false};
  std::thread thread_;  // last: started after every member it uses
};

/// The service.* per-layer metrics of a traced pass. Stage shares are the
/// stage means over the client-measured mean latency, so they sum to ~1
/// when the stages tile what the client saw.
void report_service(const ServicePass& pass, Result& result) {
  const ServiceStats& s = pass.stats;
  const service::StageBreakdown& st = s.classes.at(0).stages;
  const double client_us = pass.client.stats.mean_latency_us();
  if (std::abs(st.total_us - client_us) > 0.1 * client_us)
    result.fail_check("service stages sum to " + std::to_string(st.total_us) +
                      " us, clients saw " + std::to_string(client_us) + " us");
  result.set("service.submit_share",
             mean(pass.client.stats.submit_call_us) / client_us);
  result.set("service.stage.admission_share", st.admission_wait_us / client_us);
  result.set("service.stage.former_share", st.former_residency_us / client_us);
  result.set("service.stage.shard_queue_share",
             st.shard_queue_wait_us / client_us);
  result.set("service.stage.execute_share", st.execute_us / client_us);
  result.set("service.stage.completion_share", st.completion_us / client_us);
  result.set("service.occupancy", s.mean_wave_occupancy);
  double stolen = 0, rebalanced = 0, estimated = 0;
  for (const service::ShardStats& shard : s.shards) {
    stolen += static_cast<double>(shard.stolen_waves);
    rebalanced += static_cast<double>(shard.rebalanced_waves);
    estimated += static_cast<double>(shard.estimated_executed_cycles);
  }
  result.set("service.stolen_waves", stolen);
  result.set("service.rebalanced_waves", rebalanced);
  const auto [pim, all] = shard_requests(s);
  result.set("service.cpu_share", (all - pim) / all);
  result.set("service.estimate_ratio", estimated / pass.all_cycles);
  result.set("telemetry.dropped",
             static_cast<double>(s.trace_dropped_events));
}

}  // namespace

void run_serve(const RunConfig& config, Result& result) {
  const Spec spec = spec_for(config.workload);
  const std::vector<KeyPool> pools =
      make_pools(spec.n, spec.moduli, spec.kinds, config.seed);
  const double warmup_s = std::min(1.0, 0.1 * config.seconds);

  if (!config.trace) {
    double setup_s = 0;
    auto svc =
        timed_setup(5, setup_s, [&] { return build(spec, pools, false); });
    run_pass(*svc, spec, pools, spec.rate, warmup_s, seed_of(config.seed, 10),
             nullptr, result);
    const ServicePass pass =
        run_pass(*svc, spec, pools, spec.rate, config.seconds,
                 seed_of(config.seed, 11), nullptr, result);
    report_end_to_end(pass.client.stats, setup_s,
                      pass.pim_cycles / kFreqMhz /
                          shard_requests(pass.stats).first,
                      result);
    return;
  }

  // Untraced half: the reference for the tracing overhead, and the SLO
  // figure (the ladder for the open loop).
  PassStats untraced;
  double slo_rate = 0;
  {
    auto svc = build(spec, pools, false);
    run_pass(*svc, spec, pools, spec.rate, warmup_s, seed_of(config.seed, 10),
             nullptr, result);
    untraced = run_pass(*svc, spec, pools, spec.rate, config.seconds / 2,
                        seed_of(config.seed, 11), nullptr, result)
                   .client.stats;
    if (spec.clients == 0)
      slo_rate = slo_ladder(*svc, spec, pools,
                            std::max(0.5, 0.1 * config.seconds), config.seed,
                            result);
    else
      slo_rate = closed_loop_slo_rate(untraced);
  }

  // Traced half: lifecycle tracing on, plus the benchmark's own spans.
  auto svc = build(spec, pools, true);
  run_pass(*svc, spec, pools, spec.rate, warmup_s, seed_of(config.seed, 10),
           nullptr, result);
  svc->drain();
  svc->trace_collector().reset();
  SpanRecorder spans(Clock::now() - std::chrono::nanoseconds(
                                        svc->trace_collector().now_ns()));
  ServicePass traced;
  std::string service_json;
  {
    TraceDrainer drainer(*svc);
    traced = run_pass(*svc, spec, pools, spec.rate, config.seconds / 2,
                      seed_of(config.seed, 12), &spans, result);
    drainer.stop();
    svc->shutdown();  // joins the shards: no span or event is in flight
    service_json = telemetry::chrome_trace_json(drainer.snapshot());
  }
  report_loadgen(untraced, traced.client.stats, slo_rate, result);
  report_service(traced, result);

  // Below the service: the tier's PIM device, probed with waves of the
  // traced pass's mean occupancy drawn from this workload's keys.
  const std::size_t banks = spec.config.backend.banks_per_shard;
  const dram::DramGeometry geometry =
      dram::hbm2e_geometry(banks, spec.config.backend.channels_per_shard);
  fhe::PimBackend probe(kNumBuffers, kFreqMhz, geometry);
  const auto items = static_cast<std::size_t>(std::clamp<double>(
      std::round(traced.stats.mean_wave_occupancy), 1.0,
      static_cast<double>(banks)));
  std::mt19937_64 rng(seed_of(config.seed, 13));
  replay_waves(probe, probe_waves(pools, items, 32, rng), result);
  probe_host_kernels(geometry, pools, result);
  write_trace(config.trace_path, service_json, spans);
}

}  // namespace nttpim::benchmark
