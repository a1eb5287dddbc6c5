// Two tenants against the multi-tenant QoS serving runtime.
//
// A *bulk* tenant (six client threads churning forward transforms, inverse
// transforms and negacyclic products, no deadlines) shares one NttService
// with a *critical* tenant (two client threads, high priority, a real
// deadline on every request) — the classic batch-next-to-interactive mix.
// Two QoS layers keep them apart:
//
//   - admission: the bulk tenant carries a token bucket (rate 0, burst 60
//     here, so exactly 48 of its 108 requests are shed with
//     AdmissionShedError — deterministically, before costing any queue
//     capacity). The critical tenant is unlimited.
//   - EDF forming: a pending critical deadline flushes a wave early and
//     leads the cut, so critical requests never wait out the coalescing
//     window behind bulk traffic, and the next free shard pulls them
//     first.
//
// The interesting output is the per-class stats block: what latency each
// tenant actually got, what the flooder was shed, whether deadlines held —
// and the per-class *stage breakdown*: where each tenant's requests spent
// their time (admission wait, former residency, shard-queue wait, execute,
// completion). Execution still runs on a heterogeneous shard pair (one
// simulated PIM device next to a host-CPU worker pool), and every client
// verifies its results against the host CPU reference.
//
// `--trace <path>` additionally records every request's lifecycle (see
// src/telemetry/) and writes a Chrome trace-event JSON there — open it in
// Perfetto / chrome://tracing to see the two tenants' flows interleave
// across the client and shard tracks.
#include <atomic>
#include <cstdlib>
#include <fstream>
#include <future>
#include <iostream>
#include <latch>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "common/random.h"
#include "common/table.h"
#include "fhe/cpu_backend.h"
#include "fhe/pim_backend.h"
#include "ntt/params.h"
#include "ntt/poly.h"
#include "service/ntt_service.h"
#include "telemetry/chrome_trace.h"

namespace {

using namespace nttpim;

constexpr std::size_t kN = 256;
constexpr std::size_t kBulkClients = 6;
constexpr std::size_t kCriticalClients = 2;
constexpr std::size_t kRoundsPerClient = 6;
constexpr std::uint32_t kBulkTenant = 0;
constexpr std::uint32_t kCriticalTenant = 1;
constexpr double kBulkBurst = 60;  // of 108 bulk submits -> 48 shed

/// CPU reference for a negacyclic product (what submit_multiply computes).
std::vector<std::uint32_t> cpu_multiply(std::vector<std::uint32_t> a,
                                        std::vector<std::uint32_t> b,
                                        const ntt::NttParams& params) {
  fhe::CpuBackend cpu;
  cpu.forward(a, params);
  cpu.forward(b, params);
  auto prod = ntt::pointwise_mul(a, b, params.q());
  cpu.inverse(prod, params);
  return prod;
}

/// get() that tolerates admission shedding: true when the result arrived
/// and matched (or the request was shed — shed, not wrong); sheds counted
/// aside.
bool get_or_shed(std::future<std::vector<std::uint32_t>>& f,
                 const std::vector<std::uint32_t>& expected,
                 std::atomic<std::uint64_t>& sheds) {
  try {
    return f.get() == expected;
  } catch (const service::AdmissionShedError&) {
    sheds.fetch_add(1, std::memory_order_relaxed);
    return true;
  }
}

void print_class(const char* label, const service::ClassStats& cs) {
  std::cout << label << cs.submitted << " submitted, " << cs.completed
            << " completed, " << cs.shed << " shed, " << cs.deadline_misses
            << " deadline misses\n"
            << "                  service p50/p95: "
            << cs.service_latency.p50_us << " / " << cs.service_latency.p95_us
            << " us\n";
}

constexpr const char* kUsage =
    "usage: service_demo [--trace <path>]\n"
    "  Two tenants (bulk + deadlined critical) against the multi-tenant\n"
    "  QoS serving runtime on a PIM + CPU shard pair; prints per-class\n"
    "  latency, shedding and deadline stats plus the per-class stage\n"
    "  breakdown (where each tenant's requests spent their time).\n"
    "  --trace <path>  also record per-request lifecycle tracing and\n"
    "                  write a Chrome trace-event JSON to <path> (open\n"
    "                  it in Perfetto / chrome://tracing)\n";

}  // namespace

int main(int argc, char** argv) {
  const auto trace_path = bench::consume_trace_flag(argc, argv);
  bench::finish_flags(argc, argv, kUsage);

  const auto params =
      std::make_shared<const ntt::NttParams>(ntt::NttParams::create(kN, 30));

  service::ServiceConfig cfg;
  // Heterogeneous tier: a 4-bank simulated PIM device next to a 2-lane
  // host-CPU pool. banks_per_shard still sizes the waves the former cuts.
  cfg.backend.descriptors = {service::make_pim_descriptor(/*banks=*/4),
                             service::make_cpu_descriptor(/*threads=*/2)};
  cfg.backend.banks_per_shard = 4;
  cfg.former.flush_window = std::chrono::microseconds(300);
  // Two request classes; only the bulk tenant is rate-limited. The
  // critical tenant's deadlines and priority order wave forming.
  cfg.qos.num_classes = 2;
  cfg.qos.admission = {{.rate_per_sec = 0.0, .burst = kBulkBurst}};
  // Lifecycle tracing costs nothing unless asked for (one relaxed atomic
  // load per would-be event when disabled).
  cfg.telemetry.enabled = trace_path.has_value();
  service::NttService svc(cfg);

  std::atomic<std::uint64_t> mismatches{0};
  std::atomic<std::uint64_t> sheds{0};
  std::vector<std::thread> clients;
  clients.reserve(kBulkClients + kCriticalClients);

  // Bulk tenant: mixed transform/product churn, no deadlines, sheddable.
  for (std::size_t c = 0; c < kBulkClients; ++c) {
    clients.emplace_back([&, c] {
      Rng rng(42 + c);
      fhe::CpuBackend cpu;
      service::SubmitOptions bulk;
      bulk.qos.tenant = kBulkTenant;
      for (std::size_t round = 0; round < kRoundsPerClient; ++round) {
        // One forward transform...
        auto poly = rng.residues(kN, params->q());
        auto expected = poly;
        cpu.forward(expected, *params);
        auto fwd = svc.submit(poly, params, bulk);
        if (!get_or_shed(fwd, expected, sheds))
          mismatches.fetch_add(1, std::memory_order_relaxed);
        // ...one round-trip through an inverse transform...
        auto inverse_expected = poly;
        auto inverse = bulk;
        inverse.inverse = true;
        auto inv = svc.submit(std::move(expected), params, inverse);
        if (!get_or_shed(inv, inverse_expected, sheds))
          mismatches.fetch_add(1, std::memory_order_relaxed);
        // ...and one negacyclic product.
        auto a = rng.residues(kN, params->q());
        auto b = rng.residues(kN, params->q());
        const auto product_expected = cpu_multiply(a, b, *params);
        auto prod =
            svc.submit_multiply(std::move(a), std::move(b), params, bulk);
        if (!get_or_shed(prod, product_expected, sheds))
          mismatches.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  // Critical tenant: high priority, a 2 ms deadline per request, unlimited
  // admission (tenant 1 is past the configured bucket vector).
  for (std::size_t c = 0; c < kCriticalClients; ++c) {
    clients.emplace_back([&, c] {
      Rng rng(777 + c);
      fhe::CpuBackend cpu;
      for (std::size_t round = 0; round < kRoundsPerClient; ++round) {
        auto poly = rng.residues(kN, params->q());
        auto expected = poly;
        cpu.forward(expected, *params);
        service::SubmitOptions critical;
        critical.qos.tenant = kCriticalTenant;
        critical.qos.priority = 10;
        critical.qos.deadline =
            service::ServiceClock::now() + std::chrono::milliseconds(2);
        if (svc.submit(std::move(poly), params, critical).get() != expected)
          mismatches.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (auto& t : clients) t.join();

  // Fire-and-forget flavor: a callback instead of a future (critical
  // class, so admission can never fail it).
  std::latch callback_done(1);
  std::atomic<bool> callback_ok{false};
  {
    Rng rng(999);
    auto poly = rng.residues(kN, params->q());
    auto expected = poly;
    fhe::CpuBackend cpu;
    cpu.forward(expected, *params);
    service::SubmitOptions critical;
    critical.qos.tenant = kCriticalTenant;
    svc.submit(std::move(poly), params, critical,
               [&, expected](std::vector<std::uint32_t>&& result,
                             std::exception_ptr error) {
                 // Relaxed flag: the latch publishes it to the waiter.
                 callback_ok.store(!error && result == expected,
                                   std::memory_order_relaxed);
                 callback_done.count_down();
               });
  }
  callback_done.wait();

  svc.drain();
  const service::ServiceStats stats = svc.stats();
  svc.shutdown();

  std::cout << "Multi-tenant QoS serving runtime: " << kBulkClients
            << " bulk + " << kCriticalClients << " critical clients x "
            << kRoundsPerClient << " rounds, pim + cpu shards, "
            << cfg.backend.banks_per_shard << "-item waves:\n"
            << "  requests:       " << stats.completed << " completed, "
            << stats.shed << " shed, " << stats.failed << " failed, "
            << stats.deadline_misses << " deadline misses\n"
            << "  waves:          " << stats.waves << " ("
            << stats.engine_passes << " engine passes, " << stats.batch_items
            << " batch items)\n"
            << "  occupancy:      " << stats.mean_wave_occupancy
            << " items/pass (1.0 = what a synchronous caller gets)\n";
  print_class("  bulk (t0):      ", stats.classes.at(kBulkTenant));
  print_class("  critical (t1):  ", stats.classes.at(kCriticalTenant));
  std::cout << "  per shard:      ";
  for (std::size_t s = 0; s < stats.shards.size(); ++s)
    std::cout << (s ? ", " : "") << "shard " << s << " ("
              << service::to_string(stats.shards[s].kind) << "): "
              << stats.shards[s].requests << " requests / "
              << stats.shards[s].waves << " waves";

  // Where each tenant's completed requests actually spent their time —
  // the stage-latency attribution half of the telemetry subsystem
  // (always on; the five stages tile submit -> delivered exactly).
  std::cout << "\n\nStage breakdown (mean us per completed request):\n";
  TablePrinter stage_table({"class", "requests", "admission", "former",
                            "shard queue", "execute", "completion",
                            "total"});
  const char* class_labels[] = {"bulk (t0)", "critical (t1)"};
  for (std::size_t t = 0; t < stats.classes.size(); ++t) {
    const service::StageBreakdown& sb = stats.classes[t].stages;
    stage_table.add_row(
        {t < 2 ? class_labels[t] : std::to_string(t),
         std::to_string(sb.count), TablePrinter::num(sb.admission_wait_us, 1),
         TablePrinter::num(sb.former_residency_us, 1),
         TablePrinter::num(sb.shard_queue_wait_us, 1),
         TablePrinter::num(sb.execute_us, 1),
         TablePrinter::num(sb.completion_us, 1),
         TablePrinter::num(sb.total_us, 1)});
  }
  stage_table.print(std::cout);

  bool trace_written = true;
  if (trace_path) {
    std::ofstream out(*trace_path);
    telemetry::write_chrome_trace(out, svc.trace_collector().drain());
    trace_written = out.good();
    if (trace_written)
      std::cout << "\nWrote Chrome trace to " << *trace_path
                << " (open it in Perfetto / chrome://tracing); "
                << stats.trace_events << " events recorded, "
                << stats.trace_dropped_events << " dropped.\n";
    else
      std::cerr << "cannot write trace to " << *trace_path << "\n";
  }

  // Relaxed reads: every writer joined (or passed a latch) above.
  const bool ok = mismatches.load(std::memory_order_relaxed) == 0 &&
                  callback_ok.load(std::memory_order_relaxed);
  const bool shed_exact =
      stats.shed == sheds.load(std::memory_order_relaxed) &&
      stats.shed == kBulkClients * kRoundsPerClient * 3 -
                        static_cast<std::uint64_t>(kBulkBurst);
  std::cout << "\n  verified:       "
            << (ok && shed_exact ? "YES" : "NO") << "\n";

  return ok && shed_exact && stats.failed == 0 && trace_written
             ? EXIT_SUCCESS
             : EXIT_FAILURE;
}
