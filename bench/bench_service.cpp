// Load generator for the async NTT serving runtime: its two wall-clock
// sections.
//
// Both are live: an NttService serves real closed-loop clients (submit one
// forward NTT, block on it, repeat: the worst case for batch occupancy,
// since no client ever hands the service a pre-formed batch), each result
// is checked against the CPU reference, and each section reports rows of
// one shape (named fields, in order). One table lists the sections, one
// renderer prints them as text tables, and `--json` writes them as one
// standalone JSON document (wall-clock single samples, so not part of the
// committed BENCH_host.json record that bench_paper writes):
//  - service_throughput: client count x shard count x flush window.
//    Reports requests/sec, mean wave occupancy, latency percentiles and
//    the busiest shard's modeled cycles; CI checks that a second shard
//    buys requests/sec at >= 8 clients.
//  - service_telemetry: identical runs with lifecycle tracing off and on,
//    interleaved; CI holds the on/off throughput ratio >= 0.95.
//
// The text mode exits 1 on any unverified result; ctest runs it as
// `smoke_bench_service` (`--requests 1`).
//
// Everything that does not need the wall clock is an exact ctest instead
// (tests/test_service.cpp): staged multi-tenant QoS and its trace export
// (ServiceE2E.QosCutsStagedCriticalTenantFirst), the heterogeneous PIM +
// CPU tier (ServiceFault.FreeShardTakesPendingWave,
// ServiceProperty.HeteroReplayMixedTierBeatsPimOnly,
// ServiceE2E.MixedBackendShardsMatchCpuReference), multi-channel shards
// (ServiceE2E.MultiChannelShardServesWholeDeviceWaves,
// ServiceProperty.FourBusesHalveBulkPassMakespan) and the live pull vs a
// round-robin replay (ServiceProperty.SkewedDispatchBeatsRoundRobinReplay).
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <memory>
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

namespace {

using namespace nttpim;

using Poly = std::vector<std::uint32_t>;
using ParamsPtr = std::shared_ptr<const ntt::NttParams>;

constexpr std::size_t kN = 256;  ///< closed-loop transform size

/// One report field: a JSON scalar.
using Value = std::variant<std::uint64_t, double, bool>;
struct Field {
  std::string name;
  Value value;
};
/// One report row: named fields in output order.
using Row = std::vector<Field>;

struct Options {
  std::size_t requests_per_client = 32;
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
    {"service_telemetry", "Telemetry overhead (tracing off vs on)", true,
     telemetry},
};

bool verified(const Row& row) {
  for (const Field& f : row)
    if (f.name == "verified") return std::get<bool>(f.value);
  return false;
}

void write_row(bench::JsonWriter& json, const Row& row) {
  for (const Field& f : row)
    std::visit([&](auto v) { json.field(f.name, v); }, f.value);
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
        if constexpr (std::is_same_v<T, bool>) {
          return v ? "YES" : "NO";
        } else if constexpr (std::is_same_v<T, double>) {
          return TablePrinter::num(v);
        } else {
          return std::to_string(v);
        }
      },
      value);
}

/// Renders a section transposed: one line per field, one column per row,
/// headed by each row's first field.
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
    "  Wall-clock sections of the async NTT serving runtime: a closed-loop\n"
    "  client x shard x flush-window throughput sweep and tracing off vs\n"
    "  on. Every result is checked against the CPU reference.\n"
    "  --json [path]       write service_throughput and service_telemetry\n"
    "                      as one JSON document to path (\"-\"/no path =\n"
    "                      stdout)\n"
    "  --requests <count>  requests per client (default 32)\n";

}  // namespace

int main(int argc, char** argv) {
  const auto json_path = bench::consume_json_flag(argc, argv);
  Options opt;
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
  if (!json_path) return all_verified ? EXIT_SUCCESS : EXIT_FAILURE;
  if (!all_verified) {
    std::cerr << "bench aborted: a served transform failed verification "
                 "against the CPU backend\n";
    return 1;
  }
  return bench::write_output(
      *json_path, bench::render_report(
                      "nttpim-bench-host-v1", "bench_service",
                      [&](bench::JsonWriter& json) {
                        for (std::size_t i = 0; i < results.size(); ++i)
                          write_section(json, kScenarios[i], results[i]);
                      }));
}
