// Telemetry subsystem tests: SPSC ring overflow/concurrency, collector
// gating, service instrumentation (wave ids, flow chains, stage
// breakdown), and the Chrome trace exporter (golden file + parse +
// referential integrity).
//
// Like test_service.cpp, everything is sleep-free: service runs are
// synchronized by futures and drain(), so event counts are exact.
#include <algorithm>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "json_validator.h"
#include "ntt/params.h"
#include "service/ntt_service.h"
#include "telemetry/chrome_trace.h"
#include "telemetry/ring_buffer.h"
#include "telemetry/trace_collector.h"
#include "telemetry/trace_event.h"

namespace {

using namespace nttpim;
using service::NttService;
using service::ServiceConfig;
using telemetry::EventKind;
using telemetry::TraceCollector;
using telemetry::TraceEvent;
using test_json::count_occurrences;
using test_json::JsonValidator;

std::shared_ptr<const ntt::NttParams> make_params(std::size_t n = 256,
                                                  unsigned bits = 30) {
  return std::make_shared<const ntt::NttParams>(
      ntt::NttParams::create(n, bits));
}

TraceEvent event_at(std::int64_t ts_ns, EventKind kind,
                    std::uint64_t seq = telemetry::kNoSeq) {
  TraceEvent e{};
  e.ts_ns = ts_ns;
  e.kind = kind;
  e.seq = seq;
  return e;
}

/// Flatten a snapshot's events (thread order, then ring order).
std::vector<TraceEvent> all_events(const TraceCollector::Snapshot& snap) {
  std::vector<TraceEvent> events;
  for (const auto& thread : snap.threads)
    events.insert(events.end(), thread.events.begin(), thread.events.end());
  return events;
}

std::vector<TraceEvent> events_of_kind(const TraceCollector::Snapshot& snap,
                                       EventKind kind) {
  std::vector<TraceEvent> out;
  for (const TraceEvent& e : all_events(snap))
    if (e.kind == kind) out.push_back(e);
  return out;
}

// ---------------------------------------------------------------- rings

// Satellite: overflow must drop-and-count exactly, never block, and the
// retained prefix must come back intact and in order.
TEST(EventRing, DropsAndCountsOnOverflow) {
  telemetry::EventRing ring(4);  // already a power of two
  EXPECT_EQ(ring.capacity(), 4u);

  std::size_t pushed = 0;
  std::size_t dropped = 0;
  for (std::uint64_t i = 0; i < 10; ++i) {
    if (ring.try_push(event_at(static_cast<std::int64_t>(i),
                               EventKind::kSubmit, i)))
      ++pushed;
    else
      ++dropped;
  }
  EXPECT_EQ(pushed, 4u);
  EXPECT_EQ(dropped, 6u);

  std::vector<TraceEvent> out;
  EXPECT_EQ(ring.drain_into(out), 4u);
  ASSERT_EQ(out.size(), 4u);
  for (std::uint64_t i = 0; i < 4; ++i) {
    EXPECT_EQ(out[i].seq, i);  // the *new* events were dropped, not these
    EXPECT_EQ(out[i].ts_ns, static_cast<std::int64_t>(i));
  }

  // Drained slots are reusable.
  EXPECT_TRUE(ring.try_push(event_at(99, EventKind::kComplete, 42)));
  out.clear();
  EXPECT_EQ(ring.drain_into(out), 1u);
  EXPECT_EQ(out[0].seq, 42u);
}

TEST(EventRing, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(telemetry::EventRing(1).capacity(), 2u);
  EXPECT_EQ(telemetry::EventRing(3).capacity(), 4u);
  EXPECT_EQ(telemetry::EventRing(1000).capacity(), 1024u);
}

// The TSan target of the `service` label: one producer emitting while
// another thread drains concurrently. Every event is either received in
// order or counted dropped — nothing lost, nothing torn.
TEST(TraceCollectorConcurrency, ConcurrentProducerAndDrainer) {
  TraceCollector collector({/*enabled=*/true, /*ring_capacity=*/256});
  constexpr std::uint64_t kTotal = 10000;

  std::atomic<bool> done{false};
  std::thread producer([&] {
    for (std::uint64_t i = 0; i < kTotal; ++i)
      collector.emit(event_at(static_cast<std::int64_t>(i),
                              EventKind::kSubmit, i));
    // Relaxed: a termination flag only — the join below is the real
    // synchronization, and the post-join drain picks up stragglers.
    done.store(true, std::memory_order_relaxed);
  });

  std::vector<TraceEvent> received;
  while (!done.load(std::memory_order_relaxed)) {
    for (const auto& thread : collector.drain().threads)
      received.insert(received.end(), thread.events.begin(),
                      thread.events.end());
  }
  producer.join();
  for (const auto& thread : collector.drain().threads)
    received.insert(received.end(), thread.events.begin(),
                    thread.events.end());

  EXPECT_EQ(received.size() + collector.dropped_events(), kTotal);
  EXPECT_EQ(received.size(), collector.total_events());
  for (std::size_t i = 1; i < received.size(); ++i)
    ASSERT_LT(received[i - 1].seq, received[i].seq);
}

// ------------------------------------------------------------ collector

// Satellite: the disabled path records nothing and allocates nothing —
// no thread ever registers a ring (thread_count is the allocation proxy:
// rings are the only thing the collector allocates).
TEST(TraceCollectorGating, DisabledCollectorRecordsAndAllocatesNothing) {
  TraceCollector collector;  // default config: disabled
  EXPECT_FALSE(collector.enabled());
  for (int i = 0; i < 100; ++i)
    collector.emit(event_at(i, EventKind::kSubmit));
  collector.set_thread_name("never-registered");

  EXPECT_EQ(collector.thread_count(), 0u);
  EXPECT_EQ(collector.total_events(), 0u);
  EXPECT_EQ(collector.dropped_events(), 0u);
  const auto snap = collector.drain();
  EXPECT_TRUE(snap.threads.empty());
  EXPECT_EQ(snap.dropped_events, 0u);
}

TEST(TraceCollectorGating, OverflowCountsExactlyAndResetZeroes) {
  TraceCollector collector({/*enabled=*/true, /*ring_capacity=*/8});
  for (int i = 0; i < 20; ++i)
    collector.emit(event_at(i, EventKind::kSubmit,
                            static_cast<std::uint64_t>(i)));
  EXPECT_EQ(collector.total_events(), 8u);
  EXPECT_EQ(collector.dropped_events(), 12u);

  const auto snap = collector.drain();
  ASSERT_EQ(snap.threads.size(), 1u);
  EXPECT_EQ(snap.threads[0].events.size(), 8u);
  EXPECT_EQ(snap.dropped_events, 12u);

  collector.reset();
  EXPECT_EQ(collector.total_events(), 0u);
  EXPECT_EQ(collector.dropped_events(), 0u);
  EXPECT_TRUE(all_events(collector.drain()).empty());

  // The ring still works after a reset.
  collector.emit(event_at(1, EventKind::kComplete, 7));
  EXPECT_EQ(collector.total_events(), 1u);
}

TEST(TraceCollectorGating, ThreadNamesLabelTracks) {
  TraceCollector collector({/*enabled=*/true, /*ring_capacity=*/16});
  collector.set_thread_name("client");
  collector.emit(event_at(1, EventKind::kSubmit, 0));
  std::thread worker([&] {
    collector.set_thread_name("shard-0");
    collector.emit(event_at(2, EventKind::kExecuteBegin));
  });
  worker.join();

  const auto snap = collector.drain();
  ASSERT_EQ(snap.threads.size(), 2u);
  std::set<std::string> names;
  std::set<std::uint64_t> tids;
  for (const auto& t : snap.threads) {
    names.insert(t.name);
    tids.insert(t.tid);
  }
  EXPECT_EQ(names, (std::set<std::string>{"client", "shard-0"}));
  EXPECT_EQ(tids, (std::set<std::uint64_t>{1, 2}));
}

// Regression (thread-id reuse): rings are registered by the collector's
// own monotone ids, never by std::thread::id, which the OS recycles. A
// sequence of short-lived named threads — glibc reuses the joined
// thread's id almost immediately — must each get a distinct track with
// its own name; the old id-keyed registry silently merged them, with the
// newest name overwriting the dead thread's track.
TEST(TraceCollectorGating, RecycledThreadIdsGetDistinctTracks) {
  TraceCollector collector({/*enabled=*/true, /*ring_capacity=*/16});
  constexpr int kThreads = 4;
  for (int i = 0; i < kThreads; ++i) {
    std::thread t([&, i] {
      collector.set_thread_name("worker-" + std::to_string(i));
      collector.emit(event_at(i, EventKind::kSubmit,
                              static_cast<std::uint64_t>(i)));
    });
    t.join();  // the next thread may be handed this one's recycled id
  }

  EXPECT_EQ(collector.thread_count(), static_cast<std::size_t>(kThreads));
  const auto snap = collector.drain();
  ASSERT_EQ(snap.threads.size(), static_cast<std::size_t>(kThreads));
  std::set<std::string> names;
  for (const auto& t : snap.threads) {
    ASSERT_EQ(t.events.size(), 1u) << t.name;
    names.insert(t.name);
  }
  EXPECT_EQ(names.size(), static_cast<std::size_t>(kThreads));
}

// Regression (collector alternation): a thread emitting into two live
// collectors keeps exactly one ring in each — re-registration must find
// the existing ring via the per-collector registry, not allocate a
// duplicate — and each collector receives exactly its own events. Also
// covers the stale-cache case: a collector constructed after another was
// destroyed must never adopt the dead collector's cached ring.
TEST(TraceCollectorGating, AlternatingCollectorsKeepStableRings) {
  auto first = std::make_unique<TraceCollector>(
      TraceCollector::Config{/*enabled=*/true, /*ring_capacity=*/16});
  TraceCollector second({/*enabled=*/true, /*ring_capacity=*/16});
  std::thread worker([&] {
    first->emit(event_at(1, EventKind::kSubmit, 1));
    second.emit(event_at(2, EventKind::kSubmit, 2));
    first->emit(event_at(3, EventKind::kSubmit, 3));
    second.emit(event_at(4, EventKind::kSubmit, 4));
    first->emit(event_at(5, EventKind::kSubmit, 5));
  });
  worker.join();

  EXPECT_EQ(first->thread_count(), 1u);
  EXPECT_EQ(second.thread_count(), 1u);
  EXPECT_EQ(first->total_events(), 3u);
  EXPECT_EQ(second.total_events(), 2u);

  // Stale-cache case, exercised from *this* thread so its thread_local
  // registry really holds an entry for the collector being destroyed: a
  // collector constructed afterwards must register a fresh ring, never
  // adopt the dead collector's.
  first->emit(event_at(6, EventKind::kSubmit, 6));
  EXPECT_EQ(first->thread_count(), 2u);
  first.reset();
  TraceCollector third({/*enabled=*/true, /*ring_capacity=*/16});
  third.emit(event_at(7, EventKind::kSubmit, 7));
  EXPECT_EQ(third.thread_count(), 1u);
  EXPECT_EQ(third.total_events(), 1u);
  const auto snap = third.drain();
  ASSERT_EQ(snap.threads.size(), 1u);
  ASSERT_EQ(snap.threads[0].events.size(), 1u);
  EXPECT_EQ(snap.threads[0].events[0].seq, 7u);
}

// -------------------------------------------- service instrumentation

// Tentpole + wave_id satellite: wave ids are stamped at cut time,
// monotone and contiguous from 1, shared by every request of a wave, and
// the ids seen at execution are exactly the ids seen at the cut.
TEST(ServiceTelemetry, WaveIdsMonotoneAndStampedAtCut) {
  const auto params = make_params();
  ServiceConfig cfg;
  cfg.backend.banks_per_shard = 4;
  cfg.former.start_paused = true;  // stage a deterministic backlog
  cfg.telemetry.enabled = true;
  NttService svc(cfg);

  constexpr std::size_t kRequests = 16;
  Rng rng(11);
  std::vector<std::future<std::vector<std::uint32_t>>> futures;
  for (std::size_t i = 0; i < kRequests; ++i)
    futures.push_back(svc.submit(rng.residues(params->n(), params->q()),
                                 params));
  svc.resume();
  for (auto& f : futures) f.get();
  svc.drain();

  const auto stats = svc.stats();
  const auto snap = svc.trace_collector().drain();
  EXPECT_EQ(snap.dropped_events, 0u);

  const auto cuts = events_of_kind(snap, EventKind::kWaveCut);
  ASSERT_EQ(cuts.size(), kRequests);  // one WaveCut per request
  std::set<std::uint64_t> cut_waves;
  std::set<std::uint64_t> cut_seqs;
  std::map<std::uint64_t, std::int64_t> cut_ts;  // wave -> shared stamp
  for (const TraceEvent& e : cuts) {
    cut_waves.insert(e.wave_id);
    EXPECT_TRUE(cut_seqs.insert(e.seq).second)
        << "seq " << e.seq << " cut twice";
    const auto [it, inserted] = cut_ts.emplace(e.wave_id, e.ts_ns);
    if (!inserted) {
      EXPECT_EQ(it->second, e.ts_ns)
          << "requests of wave " << e.wave_id
          << " carry different cut stamps";
    }
  }
  // Contiguous 1..W, W == executed waves.
  ASSERT_FALSE(cut_waves.empty());
  EXPECT_EQ(*cut_waves.begin(), 1u);
  EXPECT_EQ(*cut_waves.rbegin(), cut_waves.size());
  EXPECT_EQ(cut_waves.size(), stats.waves);
  // Every accepted request was cut exactly once, in seq order 0..N-1.
  EXPECT_EQ(*cut_seqs.begin(), 0u);
  EXPECT_EQ(*cut_seqs.rbegin(), kRequests - 1);

  std::set<std::uint64_t> executed_waves;
  for (const TraceEvent& e : events_of_kind(snap, EventKind::kExecuteBegin))
    executed_waves.insert(e.wave_id);
  EXPECT_EQ(executed_waves, cut_waves);
}

// Tentpole: every Complete traces back through the full chain, every
// ExecuteEnd pairs an ExecuteBegin, and event counts match the service's
// own counters.
TEST(ServiceTelemetry, FlowReferentialIntegrity) {
  const auto params = make_params();
  ServiceConfig cfg;
  cfg.backend.shards = 2;
  cfg.backend.banks_per_shard = 4;
  cfg.telemetry.enabled = true;
  NttService svc(cfg);

  constexpr std::size_t kTransforms = 24;
  constexpr std::size_t kMultiplies = 8;
  Rng rng(23);
  std::vector<std::future<std::vector<std::uint32_t>>> futures;
  for (std::size_t i = 0; i < kTransforms; ++i)
    futures.push_back(svc.submit(rng.residues(params->n(), params->q()),
                                 params));
  for (std::size_t i = 0; i < kMultiplies; ++i)
    futures.push_back(
        svc.submit_multiply(rng.residues(params->n(), params->q()),
                            rng.residues(params->n(), params->q()), params));
  for (auto& f : futures) f.get();
  svc.drain();

  const auto stats = svc.stats();
  ASSERT_EQ(stats.completed, kTransforms + kMultiplies);
  const auto snap = svc.trace_collector().drain();
  EXPECT_EQ(snap.dropped_events, 0u);

  // ExecuteEnd pairs ExecuteBegin: same multiset of wave ids.
  std::multiset<std::uint64_t> begins, ends;
  for (const TraceEvent& e : events_of_kind(snap, EventKind::kExecuteBegin))
    begins.insert(e.wave_id);
  for (const TraceEvent& e : events_of_kind(snap, EventKind::kExecuteEnd))
    ends.insert(e.wave_id);
  EXPECT_EQ(begins, ends);

  std::set<std::uint64_t> submitted, enqueued, cut;
  for (const TraceEvent& e : events_of_kind(snap, EventKind::kSubmit))
    submitted.insert(e.seq);
  for (const TraceEvent& e : events_of_kind(snap, EventKind::kFormerEnqueue))
    enqueued.insert(e.seq);
  for (const TraceEvent& e : events_of_kind(snap, EventKind::kWaveCut))
    cut.insert(e.seq);

  const auto completes = events_of_kind(snap, EventKind::kComplete);
  EXPECT_EQ(completes.size(), stats.completed);
  for (const TraceEvent& e : completes) {
    EXPECT_TRUE(submitted.count(e.seq)) << "Complete without Submit";
    EXPECT_TRUE(enqueued.count(e.seq)) << "Complete without FormerEnqueue";
    EXPECT_TRUE(cut.count(e.seq)) << "Complete without WaveCut";
    EXPECT_TRUE(begins.count(e.wave_id))
        << "Complete's wave never began executing";
  }

  // The service's counter view saw the same recording activity.
  EXPECT_GT(stats.trace_events, 0u);
  EXPECT_EQ(stats.trace_dropped_events, 0u);
}

// A service with telemetry off must not record anything anywhere.
TEST(ServiceTelemetry, DisabledServiceRecordsNothing) {
  const auto params = make_params();
  ServiceConfig cfg;  // telemetry.enabled defaults to false
  cfg.backend.banks_per_shard = 4;
  NttService svc(cfg);

  Rng rng(5);
  std::vector<std::future<std::vector<std::uint32_t>>> futures;
  for (int i = 0; i < 8; ++i)
    futures.push_back(svc.submit(rng.residues(params->n(), params->q()),
                                 params));
  for (auto& f : futures) f.get();
  svc.drain();

  const auto stats = svc.stats();
  EXPECT_EQ(stats.trace_events, 0u);
  EXPECT_EQ(stats.trace_dropped_events, 0u);
  EXPECT_EQ(svc.trace_collector().thread_count(), 0u);
  EXPECT_TRUE(svc.trace_collector().drain().threads.empty());
  // The stage breakdown is always on, telemetry or not.
  EXPECT_EQ(stats.classes.at(0).stages.count, 8u);
}

// Satellite: reset_stats() zeroes the telemetry counters and buffered
// events along with the rest of the epoch.
TEST(ServiceTelemetry, ResetStatsZeroesTelemetryCounters) {
  const auto params = make_params();
  ServiceConfig cfg;
  cfg.backend.banks_per_shard = 4;
  cfg.telemetry.enabled = true;
  NttService svc(cfg);

  Rng rng(17);
  for (int round = 0; round < 2; ++round) {
    std::vector<std::future<std::vector<std::uint32_t>>> futures;
    for (int i = 0; i < 8; ++i)
      futures.push_back(svc.submit(rng.residues(params->n(), params->q()),
                                   params));
    for (auto& f : futures) f.get();
    svc.drain();

    EXPECT_GT(svc.stats().trace_events, 0u);
    svc.reset_stats();
    const auto stats = svc.stats();
    EXPECT_EQ(stats.trace_events, 0u);
    EXPECT_EQ(stats.trace_dropped_events, 0u);
    EXPECT_EQ(stats.classes.at(0).stages.count, 0u);
    EXPECT_TRUE(all_events(svc.trace_collector().drain()).empty());
  }
}

// Tentpole: the per-class stage breakdown must be consistent with the
// existing latency recorders — former + shard-queue equals the queue
// latency mean, adding execute gives the service latency mean (all three
// measure from the former's enqueue stamp).
TEST(ServiceTelemetry, StageBreakdownConsistentWithLatencyRecorders) {
  const auto params = make_params();
  ServiceConfig cfg;
  cfg.backend.banks_per_shard = 4;
  // Telemetry stays off: the breakdown must not depend on tracing.
  NttService svc(cfg);

  constexpr std::size_t kRequests = 64;
  Rng rng(29);
  std::vector<std::future<std::vector<std::uint32_t>>> futures;
  for (std::size_t i = 0; i < kRequests; ++i)
    futures.push_back(svc.submit(rng.residues(params->n(), params->q()),
                                 params));
  for (auto& f : futures) f.get();
  svc.drain();

  const auto stats = svc.stats();
  const auto& cls = stats.classes.at(0);
  ASSERT_EQ(cls.stages.count, kRequests);
  ASSERT_EQ(cls.queue_latency.count, kRequests);
  ASSERT_EQ(cls.service_latency.count, kRequests);

  // Integer-nanosecond stamps keep the double error far below a
  // millitolerance even after thousands of samples.
  constexpr double kTolUs = 1e-3;
  EXPECT_NEAR(cls.stages.former_residency_us + cls.stages.shard_queue_wait_us,
              cls.queue_latency.mean_us, kTolUs);
  EXPECT_NEAR(cls.stages.former_residency_us +
                  cls.stages.shard_queue_wait_us + cls.stages.execute_us,
              cls.service_latency.mean_us, kTolUs);
  // Stages are individually sane and sum to total.
  EXPECT_GE(cls.stages.admission_wait_us, 0.0);
  EXPECT_GE(cls.stages.completion_us, 0.0);
  EXPECT_GT(cls.stages.execute_us, 0.0);
  EXPECT_NEAR(cls.stages.total_us,
              cls.stages.admission_wait_us + cls.stages.former_residency_us +
                  cls.stages.shard_queue_wait_us + cls.stages.execute_us +
                  cls.stages.completion_us,
              1e-9);
}

// ------------------------------------------------------------- exporter

// Golden file: a tiny hand-built snapshot renders to exactly this JSON.
// (Deliberately brittle — the exporter's output format is a contract for
// downstream tooling; change the golden when you change the format.)
TEST(ChromeTrace, GoldenFile) {
  TraceCollector::Snapshot snap;

  TraceCollector::ThreadTrace client;
  client.name = "client";
  client.tid = 1;
  {
    TraceEvent e{};
    e.kind = EventKind::kSubmit;
    e.ts_ns = 1000;
    e.seq = 0;
    client.events.push_back(e);
    e.kind = EventKind::kFormerEnqueue;
    e.ts_ns = 2000;
    client.events.push_back(e);
  }
  snap.threads.push_back(client);

  TraceCollector::ThreadTrace shard;
  shard.name = "shard-0";
  shard.tid = 2;
  {
    TraceEvent e{};
    e.kind = EventKind::kWaveCut;
    e.ts_ns = 3000;
    e.seq = 0;
    e.wave_id = 1;
    shard.events.push_back(e);
    e.kind = EventKind::kExecuteBegin;
    e.ts_ns = 5000;
    e.seq = telemetry::kNoSeq;
    shard.events.push_back(e);
    e.kind = EventKind::kExecuteEnd;
    e.ts_ns = 7000;
    e.cycles = 10;  // the wave's modeled cycles ride on its ExecuteEnd
    shard.events.push_back(e);
    e.kind = EventKind::kComplete;
    e.ts_ns = 7500;
    e.seq = 0;
    shard.events.push_back(e);
  }
  snap.threads.push_back(shard);

  const std::string expected = R"({
  "displayTimeUnit": "ms",
  "traceEvents": [
    {"ph": "M", "pid": 1, "name": "process_name", "args": {"name": "nttpim-service"}},
    {"ph": "M", "pid": 1, "tid": 1, "name": "thread_name", "args": {"name": "client"}},
    {"ph": "M", "pid": 1, "tid": 2, "name": "thread_name", "args": {"name": "shard-0"}},
    {"ph": "X", "pid": 1, "tid": 1, "ts": 1.000, "dur": 1.000, "cat": "request", "name": "submit", "args": {"seq": 0, "tenant": 0}},
    {"ph": "s", "pid": 1, "tid": 1, "ts": 1.000, "cat": "request", "name": "request", "id": 0},
    {"ph": "X", "pid": 1, "tid": 1, "ts": 2.000, "dur": 1.000, "cat": "request", "name": "queued", "args": {"seq": 0, "tenant": 0}},
    {"ph": "X", "pid": 1, "tid": 2, "ts": 3.000, "dur": 2.000, "cat": "wave", "name": "cut wave 1", "args": {"wave": 1, "requests": 1}},
    {"ph": "t", "pid": 1, "tid": 2, "ts": 3.000, "cat": "request", "name": "request", "id": 0},
    {"ph": "X", "pid": 1, "tid": 2, "ts": 5.000, "dur": 2.000, "cat": "wave", "name": "wave 1", "args": {"wave": 1, "shard": 0, "cycles": 10}},
    {"ph": "t", "pid": 1, "tid": 2, "ts": 5.000, "cat": "request", "name": "request", "id": 0},
    {"ph": "X", "pid": 1, "tid": 2, "ts": 7.500, "dur": 0.001, "cat": "request", "name": "complete", "args": {"seq": 0, "wave": 1, "tenant": 0}},
    {"ph": "f", "pid": 1, "tid": 2, "ts": 7.500, "cat": "request", "name": "request", "id": 0, "bp": "e"}
  ]
}
)";
  EXPECT_EQ(telemetry::chrome_trace_json(snap), expected);
}

// Satellite: the exported JSON of a real service run parses strictly,
// and its flow events reconstruct every completed request (one "s" start
// and one "f" end per completed request).
TEST(ChromeTrace, ExportedJsonParsesAndFlowsMatchCompletions) {
  const auto params = make_params();
  ServiceConfig cfg;
  cfg.backend.shards = 2;
  cfg.backend.banks_per_shard = 4;
  cfg.telemetry.enabled = true;
  NttService svc(cfg);

  constexpr std::size_t kRequests = 32;
  Rng rng(31);
  std::vector<std::future<std::vector<std::uint32_t>>> futures;
  for (std::size_t i = 0; i < kRequests; ++i)
    futures.push_back(svc.submit(rng.residues(params->n(), params->q()),
                                 params));
  for (auto& f : futures) f.get();
  svc.drain();

  const auto stats = svc.stats();
  ASSERT_EQ(stats.completed, kRequests);
  const auto snap = svc.trace_collector().drain();
  ASSERT_EQ(snap.dropped_events, 0u);
  const std::string json = telemetry::chrome_trace_json(snap);

  EXPECT_TRUE(JsonValidator::valid(json)) << json.substr(0, 400);
  EXPECT_EQ(count_occurrences(json, "\"ph\": \"s\""), kRequests);
  EXPECT_EQ(count_occurrences(json, "\"ph\": \"f\""), kRequests);
  // One executed slice per wave, plus thread metadata for every track.
  EXPECT_GE(count_occurrences(json, "\"name\": \"wave "), stats.waves);
  EXPECT_GE(count_occurrences(json, "\"thread_name\""), 2u);
}

// The exporter tolerates incomplete chains (events lost to overflow or a
// snapshot taken mid-flight): output still parses.
TEST(ChromeTrace, TolerantOfMissingChainPieces) {
  TraceCollector::Snapshot snap;
  TraceCollector::ThreadTrace t;
  t.name = "orphan";
  t.tid = 1;
  // An ExecuteBegin with no End, a Complete with no Submit, a WaveCut
  // with no ExecuteBegin, and a shed submit with no shed marker.
  TraceEvent e{};
  e.kind = EventKind::kExecuteBegin;
  e.ts_ns = 10;
  e.wave_id = 9;
  t.events.push_back(e);
  e.kind = EventKind::kComplete;
  e.ts_ns = 20;
  e.seq = 5;
  t.events.push_back(e);
  e.kind = EventKind::kWaveCut;
  e.ts_ns = 30;
  e.seq = 6;
  e.wave_id = 4;
  t.events.push_back(e);
  e.kind = EventKind::kSubmit;
  e.ts_ns = 40;
  e.seq = telemetry::kNoSeq;
  t.events.push_back(e);
  snap.threads.push_back(t);
  snap.dropped_events = 3;

  const std::string json = telemetry::chrome_trace_json(snap);
  EXPECT_TRUE(JsonValidator::valid(json)) << json;
}

}  // namespace
