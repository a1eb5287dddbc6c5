// Load generator for the async NTT serving runtime.
//
// Every scenario is live: an NttService serves real requests, each result
// is checked against the CPU reference, and the scenario reports rows of
// one shape (named fields, in order). One table lists the scenarios, one
// writer emits every section into one JSON document, and one renderer
// prints every section as a text table:
//  - service_throughput: closed-loop clients (submit one forward NTT,
//    block on it, repeat: the worst case for batch occupancy, since no
//    client ever hands the service a pre-formed batch) across client count
//    x shard count x flush window. Reports requests/sec, mean wave
//    occupancy, latency percentiles and the busiest shard's modeled cycles.
//  - service_hetero_backends: a staged bulk (N = 1024) / small (N = 256)
//    wave stream served by a lone PIM shard ("pim_only") and by the same
//    shard next to a host-CPU pool ("mixed"): how many waves the CPU
//    absorbs once the device backs up.
//  - service_multi_channel: a staged bulk burst on one 16-bank, 4-channel
//    shard, and how the (shard, channel) dispatcher spread its waves.
//  - service_qos: a bulk tenant's backlog staged ahead of a critical
//    tenant's requests, without the critical deadline and priority
//    ("fifo"), with them ("qos"), and with a token bucket on the bulk
//    tenant ("qos_overload": exactly half its requests shed).
//  - service_telemetry: identical closed-loop runs with lifecycle tracing
//    off and on, interleaved; CI holds the on/off throughput ratio >= 0.95.
//
// The deterministic modeled comparisons (round-robin replay vs live
// dispatch, the heterogeneous modeled-dispatch replay, a bulk pass on 1 vs
// 4 command buses) are ctest properties: ServiceProperty.* in
// tests/test_service.cpp.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <type_traits>
#include <variant>
#include <vector>

#include "bench_common.h"
#include "common/random.h"
#include "common/stopwatch.h"
#include "common/table.h"
#include "fhe/cpu_backend.h"
#include "ntt/params.h"
#include "service/backend.h"
#include "service/ntt_service.h"
#include "telemetry/chrome_trace.h"

namespace {

using namespace nttpim;

using Poly = std::vector<std::uint32_t>;
using ParamsPtr = std::shared_ptr<const ntt::NttParams>;

constexpr std::size_t kN = 256;  ///< closed-loop transform size

/// One report field: a JSON scalar or a list of counts.
using Value = std::variant<std::uint64_t, double, bool, std::string,
                           std::vector<std::uint64_t>>;
struct Field {
  std::string name;
  Value value;
};
/// One report row: named fields in output order.
using Row = std::vector<Field>;

struct Options {
  std::size_t requests_per_client = 32;
  std::optional<std::string> trace_path;
};

ParamsPtr make_params(std::size_t n, unsigned bits) {
  return std::make_shared<const ntt::NttParams>(
      ntt::NttParams::create(n, bits));
}

/// Wall-clock rows carry the host's core count: shard scaling shows in
/// requests/sec only with at least one idle core per shard.
std::uint64_t host_cores() { return std::thread::hardware_concurrency(); }

// ---------------------------------------------------------- closed loop

struct ClosedLoop {
  double requests_per_sec = 0;
  service::ServiceStats stats;
  bool verified = false;
};

/// `clients` threads, each submitting `requests_per_client` forward
/// N = 256 transforms one at a time and comparing every result with its
/// CPU reference, computed before the timer starts. Warm-up stays outside
/// the timer too: a burst from this thread fills every shard's plan cache
/// and touches the simulated DRAM pages, and each client's first request
/// runs on the client's own thread, which registers its trace ring when
/// tracing is on. The run prices steady-state serving, not boot.
ClosedLoop run_closed_loop(service::ServiceConfig cfg, std::size_t clients,
                           std::size_t requests_per_client,
                           std::uint64_t seed) {
  const ParamsPtr params = make_params(kN, 30);
  cfg.former.queue_capacity = 4096;
  service::NttService svc(cfg);
  {
    Rng rng(7);
    std::vector<std::future<Poly>> warm;
    for (std::size_t i = 0; i < 4 * svc.shards() * cfg.backend.banks_per_shard;
         ++i)
      warm.push_back(svc.submit(rng.residues(kN, params->q()), params));
    for (auto& f : warm) f.get();
  }

  std::atomic<std::size_t> ready{0};
  std::atomic<bool> go{false};
  std::atomic<std::uint64_t> bad_results{0};
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (std::size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      Rng rng(seed + c);
      fhe::CpuBackend cpu;
      std::vector<Poly> inputs;
      std::vector<Poly> expected;
      for (std::size_t r = 0; r < requests_per_client; ++r) {
        inputs.push_back(rng.residues(kN, params->q()));
        expected.push_back(inputs.back());
        cpu.forward(expected.back(), *params);
      }
      svc.submit(rng.residues(kN, params->q()), params).get();
      ready.fetch_add(1, std::memory_order_release);
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      for (std::size_t r = 0; r < requests_per_client; ++r)
        if (svc.submit(std::move(inputs[r]), params).get() != expected[r])
          bad_results.fetch_add(1, std::memory_order_relaxed);
    });
  }
  while (ready.load(std::memory_order_acquire) < clients)
    std::this_thread::yield();
  // A future resolves before its wave's counters land; drain() waits for
  // the bookkeeping too, so the reset starts a clean epoch.
  svc.drain();
  svc.reset_stats();
  Stopwatch timer;
  go.store(true, std::memory_order_release);
  for (auto& t : threads) t.join();
  const double seconds = timer.elapsed_ns() / 1e9;
  svc.drain();  // settle the last wave's counters before the snapshot
  svc.shutdown();

  ClosedLoop run;
  const std::size_t requests = clients * requests_per_client;
  run.requests_per_sec = static_cast<double>(requests) / seconds;
  run.stats = svc.stats();
  run.verified = bad_results.load(std::memory_order_relaxed) == 0 &&
                 run.stats.completed == requests && run.stats.failed == 0;
  return run;
}

std::vector<Row> throughput(const Options& opt) {
  std::vector<Row> rows;
  const auto point = [&](std::size_t clients, std::size_t shards,
                         std::size_t window_us) {
    service::ServiceConfig cfg;
    cfg.backend.shards = shards;
    cfg.former.flush_window = std::chrono::microseconds(window_us);
    const ClosedLoop run =
        run_closed_loop(cfg, clients, opt.requests_per_client, 100);
    const service::ServiceStats& s = run.stats;
    // One request class: its summaries cover every request of the point.
    const service::ClassStats& cls = s.classes.at(0);
    // Shards are independent devices, so the busiest one's modeled cycles
    // are the point's modeled makespan: with 2 shards it falls toward half
    // the 1-shard figure on any host.
    std::uint64_t busiest = 0;
    for (const auto& shard : s.shards)
      busiest = std::max(busiest, shard.modeled_cycles);
    rows.push_back({{"clients", clients},
                    {"shards", shards},
                    {"banks_per_shard", cfg.backend.banks_per_shard},
                    {"n", kN},
                    {"num_buffers", cfg.backend.num_buffers},
                    {"flush_window_us", window_us},
                    {"requests", clients * opt.requests_per_client},
                    {"host_wall_clock", true},
                    {"host_cores", host_cores()},
                    {"requests_per_sec", run.requests_per_sec},
                    {"modeled_max_shard_cycles", busiest},
                    {"waves", s.waves},
                    {"engine_passes", s.engine_passes},
                    {"mean_wave_occupancy", s.mean_wave_occupancy},
                    {"queue_p50_us", cls.queue_latency.p50_us},
                    {"service_p50_us", cls.service_latency.p50_us},
                    {"service_p95_us", cls.service_latency.p95_us},
                    {"service_p99_us", cls.service_latency.p99_us},
                    {"verified", run.verified}});
  };
  // Shard scaling under a fixed coalescing window: does a second simulated
  // device buy aggregate throughput once enough independent clients keep
  // the queue non-empty?
  for (const std::size_t shards : {1u, 2u})
    for (const std::size_t clients : {1u, 4u, 8u, 16u, 32u})
      point(clients, shards, 500);
  // Window sweep at a fixed load: occupancy (and with it modeled
  // efficiency) bought with queueing latency.
  for (const std::size_t window_us : {0u, 100u, 2000u}) point(16, 1, window_us);
  return rows;
}

/// Prices the tracing hot path: identical closed-loop runs with telemetry
/// off and on, interleaved (off, on, off, on, ...) so host noise hits both
/// alike, best-of each. `verified` also checks that the off runs recorded
/// nothing and that the per-class stages tile the latency summaries:
/// former + shard queue = the queue-latency mean, plus execute = the
/// service-latency mean.
std::vector<Row> telemetry(const Options& opt) {
  constexpr std::size_t kClients = 16;
  // CI asserts a 5% bound on this comparison, so the runs must be long
  // enough to average scheduler noise even when --requests shrinks the
  // rest of the bench to smoke size: floor the per-client count.
  const std::size_t per_client =
      std::max<std::size_t>(opt.requests_per_client, 48);
  const std::size_t requests = kClients * per_client;
  service::ServiceConfig cfg;
  cfg.former.flush_window = std::chrono::microseconds(500);

  bool ok = true;
  double off_rps = 0;
  double on_rps = 0;
  service::ServiceStats on;
  for (int repeat = 0; repeat < 3; ++repeat) {
    for (const bool tracing : {false, true}) {
      cfg.telemetry.enabled = tracing;
      const ClosedLoop run = run_closed_loop(cfg, kClients, per_client, 200);
      ok = ok && run.verified &&
           (tracing ? run.stats.trace_events > 0
                    : run.stats.trace_events == 0 &&
                          run.stats.trace_dropped_events == 0);
      if (!tracing) {
        off_rps = std::max(off_rps, run.requests_per_sec);
      } else if (run.requests_per_sec > on_rps) {
        on_rps = run.requests_per_sec;
        on = run.stats;
      }
    }
  }
  const service::ClassStats& cls = on.classes.at(0);
  const service::StageBreakdown& sb = cls.stages;
  const double tol = 1e-3 + 1e-6 * cls.service_latency.mean_us;
  ok = ok && sb.count == requests &&
       std::abs(sb.former_residency_us + sb.shard_queue_wait_us -
                cls.queue_latency.mean_us) <= tol &&
       std::abs(sb.former_residency_us + sb.shard_queue_wait_us +
                sb.execute_us - cls.service_latency.mean_us) <= tol;
  return {Row{{"clients", kClients},
              {"shards", cfg.backend.shards},
              {"banks_per_shard", cfg.backend.banks_per_shard},
              {"n", kN},
              {"requests", requests},
              {"host_wall_clock", true},
              {"host_cores", host_cores()},
              {"requests_per_sec_off", off_rps},
              {"requests_per_sec_on", on_rps},
              {"on_off_ratio", off_rps > 0 ? on_rps / off_rps : 0},
              {"trace_events", on.trace_events},
              {"trace_dropped_events", on.trace_dropped_events},
              {"stage_total_us", sb.total_us},
              {"verified", ok}}};
}

// --------------------------------------------------------- staged burst

/// Submits one request of a staged stream: a fresh random polynomial under
/// `params`, with `options`.
using Submit =
    std::function<void(const ParamsPtr&, const service::SubmitOptions&)>;

struct Burst {
  std::size_t requests = 0;
  double requests_per_sec = 0;  ///< from resume() to the last result
  std::size_t mismatches = 0;   ///< results that differ from the CPU
  std::vector<std::size_t> shed;  ///< stream indices shed at admission
  bool trace_written = true;
  service::ServiceStats stats;

  /// Every delivered result matched its CPU reference, nothing failed,
  /// and exactly the stream indices `expect_shed` were shed.
  bool verified(const std::vector<std::size_t>& expect_shed = {}) const {
    return mismatches == 0 && trace_written && shed == expect_shed &&
           stats.failed == 0 && stats.shed == shed.size() &&
           stats.completed + shed.size() == requests;
  }
};

/// Staged burst: `stage` submits the whole stream behind a paused former,
/// each request with its CPU-reference expectation; then the former opens
/// at once and only size flushes cut waves. Returns after every future
/// resolved and the service drained and shut down. With `trace_path` set,
/// lifecycle tracing is on and the Chrome trace-event JSON is written
/// there after shutdown (one track per service thread, flow arrows
/// stitching each request's submit -> cut -> execute -> complete; open it
/// in Perfetto / chrome://tracing). A failed write fails the run.
Burst run_burst(service::ServiceConfig cfg, std::uint64_t seed,
                const std::function<void(const Submit&)>& stage,
                const std::optional<std::string>& trace_path = {}) {
  cfg.former.queue_capacity = 4096;
  cfg.former.flush_window = std::chrono::hours(1);
  cfg.former.start_paused = true;
  cfg.telemetry.enabled = trace_path.has_value();
  service::NttService svc(cfg);

  Rng rng(seed);
  fhe::CpuBackend cpu;
  std::vector<std::future<Poly>> futures;
  std::vector<Poly> expected;
  stage([&](const ParamsPtr& params, const service::SubmitOptions& options) {
    auto poly = rng.residues(params->n(), params->q());
    expected.push_back(poly);
    cpu.forward(expected.back(), *params);
    futures.push_back(svc.submit(std::move(poly), params, options));
  });

  Burst b;
  Stopwatch timer;
  svc.resume();
  for (std::size_t i = 0; i < futures.size(); ++i) {
    try {
      if (futures[i].get() != expected[i]) ++b.mismatches;
    } catch (const service::AdmissionShedError&) {
      b.shed.push_back(i);
    }
  }
  const double seconds = timer.elapsed_ns() / 1e9;
  svc.drain();  // settle the last wave's counters before the snapshot
  svc.shutdown();

  if (trace_path) {
    std::ofstream out(*trace_path);
    telemetry::write_chrome_trace(out, svc.trace_collector().drain());
    b.trace_written = out.good();
    if (!b.trace_written)
      std::cerr << "cannot write trace to " << *trace_path << "\n";
  }
  b.requests = futures.size();
  b.requests_per_sec = static_cast<double>(b.requests) / seconds;
  b.stats = svc.stats();
  return b;
}

/// 24 alternating bulk / small waves of 4 staged onto a single 4-bank PIM
/// shard ("pim_only") or the same shard next to a 4-lane host-CPU pool
/// ("mixed"). Shallow dispatch queues make the simulated device back up
/// at once: the overflow the CPU tier exists to absorb. Cost-aware
/// dispatch spills a wave to the CPU whenever its price-plus-backlog beats
/// the queued-up PIM's, and an idle shard steals. Steals trigger on
/// wall-clock idleness (the host CPU races a cycle *simulator*), so the
/// modeled makespans are compared by the worker-less dispatch replay in
/// ServiceProperty.HeteroReplayMixedTierBeatsPimOnly, not here.
std::vector<Row> hetero(const Options&) {
  constexpr std::size_t kBanks = 4;
  constexpr std::size_t kWaves = 24;
  constexpr std::size_t kCpuLanes = 4;
  const ParamsPtr bulk = make_params(1024, 29);
  const ParamsPtr small = make_params(256, 30);
  std::vector<Row> rows;
  for (const bool add_cpu : {false, true}) {
    service::ServiceConfig cfg;
    cfg.backend.descriptors = {service::make_pim_descriptor(kBanks)};
    if (add_cpu)
      cfg.backend.descriptors.push_back(
          service::make_cpu_descriptor(kCpuLanes));
    cfg.backend.banks_per_shard = kBanks;
    cfg.dispatch.shard_queue_waves = 2;
    const Burst b = run_burst(cfg, 29, [&](const Submit& submit) {
      for (std::size_t w = 0; w < kWaves; ++w)
        for (std::size_t i = 0; i < kBanks; ++i)
          submit(w % 2 == 0 ? bulk : small, {});
    });
    // The dispatcher's price for every wave a shard finished: under load
    // the live split is wall-clock-shaped.
    std::uint64_t cpu_waves = 0, pim_waves = 0, cpu_requests = 0;
    std::uint64_t busiest = 0, total = 0;
    for (const auto& shard : b.stats.shards) {
      const bool cpu = shard.kind == service::BackendKind::kCpu;
      (cpu ? cpu_waves : pim_waves) += shard.waves;
      if (cpu) cpu_requests += shard.requests;
      busiest = std::max(busiest, shard.estimated_executed_cycles);
      total += shard.estimated_executed_cycles;
    }
    rows.push_back({{"mode", add_cpu ? "mixed" : "pim_only"},
                    {"pim_banks", kBanks},
                    {"cpu_lanes", kCpuLanes},
                    {"waves", kWaves},
                    {"n_bulk", bulk->n()},
                    {"n_small", small->n()},
                    {"requests", b.requests},
                    {"host_wall_clock", true},
                    {"host_cores", host_cores()},
                    {"requests_per_sec", b.requests_per_sec},
                    {"cpu_waves", cpu_waves},
                    {"pim_waves", pim_waves},
                    {"cpu_requests", cpu_requests},
                    {"busiest_backend_est_cycles", busiest},
                    {"total_est_cycles", total},
                    {"verified", b.verified()}});
  }
  return rows;
}

/// 32 bulk transforms staged onto one 16-bank, 4-channel shard. The former
/// sizes waves to one channel's bank set (4 items), so the burst forms 8
/// waves; the (shard, channel) dispatcher spreads them across the four
/// channel queues, and the worker merges one wave per channel into a
/// single engine pass that overlaps the channels' buses.
std::vector<Row> channel(const Options&) {
  constexpr std::size_t kRequests = 32;
  const ParamsPtr params = make_params(1024, 29);
  service::ServiceConfig cfg;
  cfg.backend.banks_per_shard = 16;
  cfg.backend.channels_per_shard = 4;
  cfg.dispatch.shard_queue_waves = 8;  // deep: the burst queues up
  const Burst b = run_burst(cfg, 47, [&](const Submit& submit) {
    for (std::size_t i = 0; i < kRequests; ++i) submit(params, {});
  });
  const service::ShardStats& shard = b.stats.shards.front();
  std::vector<std::uint64_t> channel_waves;
  for (const auto& cs : shard.channels) channel_waves.push_back(cs.waves);
  return {Row{{"mode", "service"},
              {"banks", cfg.backend.banks_per_shard},
              {"channels", cfg.backend.channels_per_shard},
              {"n", params->n()},
              {"requests", b.requests},
              {"host_wall_clock", true},
              {"host_cores", host_cores()},
              {"requests_per_sec", b.requests_per_sec},
              {"waves", shard.waves},
              {"channel_waves", channel_waves},
              {"verified", b.verified()}}};
}

/// 64 bulk N = 1024 transforms (tenant 0) staged *ahead of* 8 critical
/// N = 256 transforms (tenant 1) on a single 4-bank shard: the worst
/// ordering for the latecomer. In "fifo" the critical requests carry no
/// deadline or priority, so they wait out the whole bulk backlog (their
/// p99 ~ the makespan). In "qos" the former cuts them into the first waves
/// and the deadline-ordered lanes keep them ahead, so the critical p99
/// collapses while the device-bound bulk p99 barely moves.
/// "qos_overload" adds a hard token bucket on the bulk tenant: under rate
/// 0 exactly the 32 bulk submits past its burst shed with
/// AdmissionShedError (the staging loop is single-threaded). The exported
/// trace (--trace) covers the "qos" run, the most eventful one: two
/// tenants, EDF cuts, deadline pressure, 72 full lifecycles.
std::vector<Row> qos(const Options& opt) {
  constexpr std::size_t kBanks = 4;
  constexpr std::size_t kBulkRequests = 64;
  constexpr std::size_t kCriticalRequests = 8;
  constexpr std::size_t kOverloadBurst = 32;
  const ParamsPtr bulk_params = make_params(1024, 29);
  const ParamsPtr critical_params = make_params(256, 30);
  struct Mode {
    const char* name;
    bool deadlined;
    bool overload;
  };
  std::vector<Row> rows;
  for (const Mode& m : {Mode{"fifo", false, false}, Mode{"qos", true, false},
                        Mode{"qos_overload", true, true}}) {
    service::ServiceConfig cfg;
    cfg.backend.banks_per_shard = kBanks;
    cfg.qos.num_classes = 2;  // per-class stats in every mode
    std::vector<std::size_t> expect_shed;
    if (m.overload) {
      cfg.qos.admission = {
          {.rate_per_sec = 0.0, .burst = static_cast<double>(kOverloadBurst)}};
      for (std::size_t i = kOverloadBurst; i < kBulkRequests; ++i)
        expect_shed.push_back(i);
    }
    const bool traced = m.deadlined && !m.overload;
    const Burst b = run_burst(
        cfg, 53,
        [&](const Submit& submit) {
          service::SubmitOptions bulk;
          bulk.qos.tenant = 0;
          for (std::size_t i = 0; i < kBulkRequests; ++i)
            submit(bulk_params, bulk);
          service::SubmitOptions critical;
          critical.qos.tenant = 1;
          if (m.deadlined) {
            critical.qos.priority = 10;
            critical.qos.deadline =
                service::ServiceClock::now() + std::chrono::milliseconds(1);
          }
          for (std::size_t i = 0; i < kCriticalRequests; ++i)
            submit(critical_params, critical);
        },
        traced ? opt.trace_path : std::nullopt);
    const service::ClassStats& background = b.stats.classes.at(0);
    const service::ClassStats& critical = b.stats.classes.at(1);
    rows.push_back(
        {{"mode", m.name},
         {"shards", cfg.backend.shards},
         {"banks_per_shard", kBanks},
         {"bulk_requests", kBulkRequests},
         {"critical_requests", kCriticalRequests},
         {"n_bulk", bulk_params->n()},
         {"n_critical", critical_params->n()},
         {"host_wall_clock", true},
         {"host_cores", host_cores()},
         {"shed_requests", b.stats.shed},
         {"critical_deadline_misses", critical.deadline_misses},
         {"background_p50_us", background.service_latency.p50_us},
         {"background_p99_us", background.service_latency.p99_us},
         {"critical_p50_us", critical.service_latency.p50_us},
         {"critical_p99_us", critical.service_latency.p99_us},
         {"verified", b.verified(expect_shed)}});
  }
  return rows;
}

// ------------------------------------------------------ scenario table

struct Scenario {
  const char* key;    ///< JSON section
  const char* title;  ///< text-table heading
  bool one_object;    ///< written as one object, not an array of rows
  std::vector<Row> (*run)(const Options&);
};

constexpr Scenario kScenarios[] = {
    {"service_throughput",
     "Closed-loop throughput (N = 256, waves of 8 banks)", false, throughput},
    {"service_hetero_backends",
     "Heterogeneous tier (PIM-only vs PIM + CPU pool)", false, hetero},
    {"service_multi_channel", "Channel hierarchy (16 banks, 4 buses)", false,
     channel},
    {"service_qos", "Multi-tenant QoS (bulk staged ahead of critical)", false,
     qos},
    {"service_telemetry", "Telemetry overhead (tracing off vs on)", true,
     telemetry},
};

bool verified(const Row& row) {
  for (const Field& f : row)
    if (f.name == "verified") return std::get<bool>(f.value);
  return false;
}

void write_row(bench::JsonWriter& json, const Row& row) {
  for (const Field& f : row) {
    std::visit(
        [&](const auto& v) {
          using T = std::decay_t<decltype(v)>;
          if constexpr (std::is_same_v<T, std::vector<std::uint64_t>>) {
            json.begin_array(f.name);
            for (const std::uint64_t x : v) json.field("", x);
            json.end_array();
          } else if constexpr (std::is_same_v<T, std::string>) {
            json.field(f.name, std::string_view(v));
          } else {
            json.field(f.name, v);
          }
        },
        f.value);
  }
}

void write_section(bench::JsonWriter& json, const Scenario& s,
                   const std::vector<Row>& rows) {
  if (s.one_object) {
    json.begin_object(s.key);
    write_row(json, rows.front());
    json.end_object();
    return;
  }
  json.begin_array(s.key);
  for (const Row& row : rows) {
    json.begin_object();
    write_row(json, row);
    json.end_object();
  }
  json.end_array();
}

std::string cell(const Value& value) {
  return std::visit(
      [](const auto& v) -> std::string {
        using T = std::decay_t<decltype(v)>;
        if constexpr (std::is_same_v<T, std::string>) {
          return v;
        } else if constexpr (std::is_same_v<T, bool>) {
          return v ? "YES" : "NO";
        } else if constexpr (std::is_same_v<T, double>) {
          return TablePrinter::num(v);
        } else if constexpr (std::is_same_v<T, std::uint64_t>) {
          return std::to_string(v);
        } else {
          std::string joined;
          for (const std::uint64_t x : v)
            joined += (joined.empty() ? "" : "/") + std::to_string(x);
          return joined;
        }
      },
      value);
}

/// Renders a section transposed: one line per field, one column per row,
/// headed by each row's first field (mode, or client count).
void print_section(const Scenario& s, const std::vector<Row>& rows) {
  std::cout << "\n==== " << s.title << " ====\n";
  std::vector<std::string> headers = {rows.front().front().name};
  for (const Row& row : rows) headers.push_back(cell(row.front().value));
  TablePrinter table(std::move(headers));
  for (std::size_t f = 1; f < rows.front().size(); ++f) {
    std::vector<std::string> cells = {rows.front()[f].name};
    for (const Row& row : rows) cells.push_back(cell(row[f].value));
    table.add_row(std::move(cells));
  }
  table.print(std::cout);
}

constexpr const char* kUsage =
    "usage: bench_service [--json [path]] [--requests <per-client>]\n"
    "                     [--trace <path>]\n"
    "  Live scenarios of the async NTT serving runtime: a closed-loop\n"
    "  client x shard x flush-window throughput sweep, a heterogeneous\n"
    "  tier (PIM-only vs PIM + CPU pool), a 4-channel shard, multi-tenant\n"
    "  QoS (bulk staged ahead of critical, without vs with deadlines vs\n"
    "  added token-bucket shedding) and tracing off vs on. Every result is\n"
    "  checked against the CPU reference.\n"
    "  --json [path]       write service_throughput,\n"
    "                      service_hetero_backends,\n"
    "                      service_multi_channel, service_qos and\n"
    "                      service_telemetry into the BENCH_host.json-style\n"
    "                      object at path (or write one standalone report;\n"
    "                      \"-\"/no path = stdout)\n"
    "  --requests <count>  requests per client (default 32)\n"
    "  --trace <path>      write a Chrome trace-event JSON of the QoS\n"
    "                      scenario's \"qos\" run to <path> (open it in\n"
    "                      Perfetto / chrome://tracing)\n";

}  // namespace

int main(int argc, char** argv) {
  const auto json_path = bench::consume_json_flag(argc, argv);
  Options opt;
  opt.trace_path = bench::consume_trace_flag(argc, argv);
  if (const auto requests = bench::consume_value_flag(argc, argv,
                                                      "--requests")) {
    const long parsed = std::strtol(requests->c_str(), nullptr, 10);
    if (parsed <= 0) {
      std::cerr << "--requests needs a positive count\n" << kUsage;
      return 2;
    }
    opt.requests_per_client = static_cast<std::size_t>(parsed);
  }
  bench::finish_flags(argc, argv, kUsage);

  if (!json_path) bench::print_table1_header("Async serving runtime");
  bool all_verified = true;
  std::vector<std::vector<Row>> results;
  for (const Scenario& s : kScenarios) {
    results.push_back(s.run(opt));
    for (const Row& row : results.back())
      all_verified = all_verified && verified(row);
    if (!json_path) print_section(s, results.back());
  }
  if (!json_path) {
    if (opt.trace_path)
      std::cout << "\nWrote Chrome trace of the \"qos\" run to "
                << *opt.trace_path << "\n";
    return all_verified ? EXIT_SUCCESS : EXIT_FAILURE;
  }
  if (!all_verified) {
    std::cerr << "bench aborted: a served transform failed verification "
                 "against the CPU backend\n";
    return 1;
  }
  std::vector<std::string_view> keys;
  for (const Scenario& s : kScenarios) keys.push_back(s.key);
  return bench::write_host_sections(
      *json_path, "bench_service", keys, [&](bench::JsonWriter& json) {
        for (std::size_t i = 0; i < keys.size(); ++i)
          write_section(json, kScenarios[i], results[i]);
      });
}
