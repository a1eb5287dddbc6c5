// Deterministic concurrency tests of the async NTT serving runtime.
//
// Every test is sleep-free: synchronization is futures, drain(), and the
// pause()/resume() staging hook (submit a backlog while wave forming is
// gated, then open the valve), so occupancy and backpressure assertions
// are exact rather than timing-dependent.
#include <algorithm>
#include <atomic>
#include <future>
#include <latch>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "fhe/cpu_backend.h"
#include "fhe/pim_backend.h"
#include "ntt/negacyclic.h"
#include "ntt/params.h"
#include "ntt/poly.h"
#include "service/admission.h"
#include "service/dispatcher.h"
#include "service/ntt_service.h"
#include "service/wave_former.h"
#include "sync/mutex.h"

namespace {

using namespace nttpim;
using service::NttService;
using service::ServiceConfig;

std::shared_ptr<const ntt::NttParams> make_params(std::size_t n = 256,
                                                  unsigned bits = 30) {
  return std::make_shared<const ntt::NttParams>(ntt::NttParams::create(n, bits));
}

std::chrono::microseconds hour() { return std::chrono::microseconds(3600u * 1000000u); }

service::SubmitOptions inv(bool inverse) {
  service::SubmitOptions options;
  options.inverse = inverse;
  return options;
}

/// Submits one 4-request wave of fresh polynomials, forward.
std::vector<std::future<std::vector<std::uint32_t>>> submit_wave(
    NttService& svc, const std::shared_ptr<const ntt::NttParams>& params,
    Rng& rng) {
  std::vector<std::future<std::vector<std::uint32_t>>> futures;
  for (int i = 0; i < 4; ++i)
    futures.push_back(
        svc.submit(rng.residues(params->n(), params->q()), params));
  return futures;
}

// Every snapshot tiles, whenever it is taken: per class, completed ==
// stages.count == both latency counts and nothing is booked twice; the
// global request counters are the class sums and submitted == completed
// + failed + rejected + shed + pending; each shard's wave counters are
// the sums over its channels.
void expect_tiles(const service::ServiceStats& s) {
  service::ClassStats sum;
  for (const service::ClassStats& c : s.classes) {
    EXPECT_EQ(c.stages.count, c.completed);
    EXPECT_EQ(c.queue_latency.count, c.completed);
    EXPECT_EQ(c.service_latency.count, c.completed);
    EXPECT_GE(c.submitted, c.completed + c.failed + c.rejected + c.shed);
    sum.submitted += c.submitted;
    sum.completed += c.completed;
    sum.failed += c.failed;
    sum.rejected += c.rejected;
    sum.shed += c.shed;
    sum.deadline_misses += c.deadline_misses;
  }
  EXPECT_EQ(s.submitted, sum.submitted);
  EXPECT_EQ(s.completed, sum.completed);
  EXPECT_EQ(s.failed, sum.failed);
  EXPECT_EQ(s.rejected, sum.rejected);
  EXPECT_EQ(s.shed, sum.shed);
  EXPECT_EQ(s.deadline_misses, sum.deadline_misses);
  EXPECT_EQ(s.submitted,
            s.completed + s.failed + s.rejected + s.shed + s.pending);
  for (const service::ShardStats& shard : s.shards) {
    service::ChannelStats channels;
    for (const service::ChannelStats& c : shard.channels) {
      channels.waves += c.waves;
      channels.stolen_waves += c.stolen_waves;
      channels.rebalanced_waves += c.rebalanced_waves;
      channels.estimated_executed_cycles += c.estimated_executed_cycles;
    }
    EXPECT_EQ(shard.waves, channels.waves);
    EXPECT_EQ(shard.stolen_waves, channels.stolen_waves);
    EXPECT_EQ(shard.rebalanced_waves, channels.rebalanced_waves);
    EXPECT_EQ(shard.estimated_executed_cycles,
              channels.estimated_executed_cycles);
  }
}

// (a) N client threads x M requests, mixed directions and sizes, must be
// bit-identical to a sequential CpuBackend run of the same inputs.
TEST(ServiceE2E, ConcurrentClientsMatchCpuBackend) {
  const auto p256 = make_params(256);
  const auto p512 = make_params(512, 29);

  ServiceConfig cfg;
  cfg.backend.shards = 2;
  cfg.backend.banks_per_shard = 4;
  cfg.former.flush_window = std::chrono::microseconds(200);
  NttService svc(cfg);

  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kRequests = 8;
  std::atomic<std::uint64_t> mismatches{0};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(1000 + t);
      fhe::CpuBackend cpu;
      for (std::size_t r = 0; r < kRequests; ++r) {
        const auto& params = (r % 2 == 0) ? p256 : p512;
        const bool inverse = r % 3 == 0;
        auto poly = rng.residues(params->n(), params->q());
        auto expected = poly;
        if (inverse)
          cpu.inverse(expected, *params);
        else
          cpu.forward(expected, *params);
        if (svc.submit(std::move(poly), params, inv(inverse)).get() !=
            expected)
          mismatches.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (auto& t : threads) t.join();
  svc.drain();

  EXPECT_EQ(mismatches.load(std::memory_order_relaxed), 0u);
  const auto stats = svc.stats();
  EXPECT_EQ(stats.completed, kThreads * kRequests);
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_EQ(stats.rejected, 0u);
  expect_tiles(stats);
}

// (a') Negacyclic products through the service match the CPU reference
// pipeline (forward, pointwise, inverse).
TEST(ServiceE2E, MultiplyMatchesCpuReference) {
  const auto params = make_params(256);
  ServiceConfig cfg;
  cfg.backend.banks_per_shard = 4;
  NttService svc(cfg);

  Rng rng(7);
  for (int i = 0; i < 3; ++i) {
    auto a = rng.residues(params->n(), params->q());
    auto b = rng.residues(params->n(), params->q());
    fhe::CpuBackend cpu;
    auto fa = a;
    auto fb = b;
    cpu.forward(fa, *params);
    cpu.forward(fb, *params);
    auto expected = ntt::pointwise_mul(fa, fb, params->q());
    cpu.inverse(expected, *params);

    EXPECT_EQ(svc.submit_multiply(std::move(a), std::move(b), params).get(),
              expected);
  }
  svc.drain();  // a future resolves before the wave's counters land
  const auto stats = svc.stats();
  // Each multiply wave runs a forward pass (2 items) and an inverse pass.
  EXPECT_EQ(stats.completed, 3u);
  EXPECT_GE(stats.engine_passes, 2u);
}

// (b) A staged backlog must coalesce: occupancy is exactly num_banks when
// the backlog is a multiple of the wave size. pause() + huge window makes
// this deterministic — no sleeps, no scheduling luck.
TEST(ServiceE2E, WaveOccupancyAboveOneUnderConcurrentLoad) {
  const auto params = make_params(256);
  ServiceConfig cfg;
  cfg.backend.shards = 1;
  cfg.backend.banks_per_shard = 8;
  cfg.former.flush_window = hour();  // only size (or shutdown) flushes
  cfg.former.start_paused = true;
  NttService svc(cfg);

  constexpr std::size_t kBacklog = 16;  // 2 full waves of 8
  Rng rng(3);
  std::vector<std::future<std::vector<std::uint32_t>>> futures;
  for (std::size_t i = 0; i < kBacklog; ++i)
    futures.push_back(svc.submit(rng.residues(params->n(), params->q()),
                                 params));
  EXPECT_EQ(svc.stats().pending, kBacklog);

  svc.resume();
  for (auto& f : futures) f.get();
  svc.drain();

  const auto stats = svc.stats();
  EXPECT_EQ(stats.completed, kBacklog);
  EXPECT_EQ(stats.engine_passes, 2u);
  EXPECT_EQ(stats.batch_items, kBacklog);
  EXPECT_DOUBLE_EQ(stats.mean_wave_occupancy, 8.0);
  EXPECT_GT(stats.mean_wave_occupancy, 1.0);
}

// (c) shutdown() drains: every accepted request completes, even the ones
// still queued behind a paused former when shutdown is called.
TEST(ServiceE2E, ShutdownDrainsQueue) {
  const auto params = make_params(256);
  ServiceConfig cfg;
  cfg.backend.banks_per_shard = 4;
  cfg.former.flush_window = hour();
  cfg.former.start_paused = true;
  NttService svc(cfg);

  constexpr std::size_t kBacklog = 10;  // 2.5 waves; the tail is partial
  Rng rng(5);
  std::vector<std::vector<std::uint32_t>> inputs;
  std::vector<std::future<std::vector<std::uint32_t>>> futures;
  for (std::size_t i = 0; i < kBacklog; ++i) {
    inputs.push_back(rng.residues(params->n(), params->q()));
    futures.push_back(svc.submit(inputs.back(), params));
  }

  svc.shutdown();  // never resumed: shutdown itself must open the valve

  fhe::CpuBackend cpu;
  for (std::size_t i = 0; i < kBacklog; ++i) {
    auto expected = inputs[i];
    cpu.forward(expected, *params);
    EXPECT_EQ(futures[i].get(), expected);
  }
  const auto stats = svc.stats();
  EXPECT_EQ(stats.completed, kBacklog);
  EXPECT_EQ(stats.pending, 0u);
}

// (d) Backpressure under kReject: the overflowing request's future fails
// with QueueFullError; everything accepted still completes.
TEST(ServiceUnit, RejectPolicySurfacesAsFailedFuture) {
  const auto params = make_params(256);
  ServiceConfig cfg;
  cfg.backend.banks_per_shard = 4;
  cfg.former.queue_capacity = 4;
  cfg.former.overflow = service::OverflowPolicy::kReject;
  cfg.former.flush_window = hour();
  cfg.former.start_paused = true;  // nothing drains: the queue must fill
  NttService svc(cfg);

  Rng rng(11);
  std::vector<std::future<std::vector<std::uint32_t>>> accepted;
  for (int i = 0; i < 4; ++i)
    accepted.push_back(
        svc.submit(rng.residues(params->n(), params->q()), params));

  auto overflow = svc.submit(rng.residues(params->n(), params->q()), params);
  EXPECT_THROW(overflow.get(), service::QueueFullError);

  const auto stats_before = svc.stats();
  EXPECT_EQ(stats_before.rejected, 1u);
  EXPECT_EQ(stats_before.classes[0].rejected, 1u);
  EXPECT_EQ(stats_before.pending, 4u);
  expect_tiles(stats_before);

  svc.resume();
  for (auto& f : accepted) EXPECT_NO_THROW(f.get());
  svc.shutdown();
  EXPECT_EQ(svc.stats().completed, 4u);
}

// Submissions racing shutdown fail cleanly instead of hanging.
TEST(ServiceUnit, SubmitAfterShutdownFailsFuture) {
  const auto params = make_params(256);
  NttService svc(ServiceConfig{});
  svc.shutdown();
  auto future = svc.submit(Rng(1).residues(params->n(), params->q()), params);
  EXPECT_THROW(future.get(), service::ServiceStoppedError);
  EXPECT_EQ(svc.stats().rejected, 1u);
}

// Fire-and-forget callbacks: success delivers a result, backpressure
// delivers the error — on a shard (or submitting) thread, never lost.
TEST(ServiceUnit, CallbackVariantDeliversResultAndErrors) {
  const auto params = make_params(256);
  ServiceConfig cfg;
  cfg.backend.banks_per_shard = 4;
  NttService svc(cfg);

  Rng rng(21);
  auto poly = rng.residues(params->n(), params->q());
  auto expected = poly;
  fhe::CpuBackend cpu;
  cpu.forward(expected, *params);

  std::latch done(1);
  std::atomic<bool> ok{false};
  svc.submit(std::move(poly), params, inv(false),
             [&](std::vector<std::uint32_t>&& result,
                 std::exception_ptr error) {
               // Relaxed flag: the latch publishes it to the waiter.
               ok.store(!error && result == expected,
                        std::memory_order_relaxed);
               done.count_down();
             });
  done.wait();
  EXPECT_TRUE(ok.load(std::memory_order_relaxed));

  svc.shutdown();
  std::latch failed(1);
  std::atomic<bool> saw_error{false};
  svc.submit(rng.residues(params->n(), params->q()), params, inv(false),
             [&](std::vector<std::uint32_t>&&, std::exception_ptr error) {
               saw_error.store(error != nullptr, std::memory_order_relaxed);
               failed.count_down();
             });
  failed.wait();
  EXPECT_TRUE(saw_error.load(std::memory_order_relaxed));
}

// Synchronous argument validation happens at the submit() call site.
TEST(ServiceUnit, SubmitValidatesArguments) {
  const auto params = make_params(256);
  NttService svc(ServiceConfig{});
  EXPECT_THROW(svc.submit({1, 2, 3}, params), std::invalid_argument);
  EXPECT_THROW(svc.submit(std::vector<std::uint32_t>(256, 0), nullptr),
               std::invalid_argument);
  EXPECT_THROW(svc.submit_multiply(std::vector<std::uint32_t>(256, 0),
                                   std::vector<std::uint32_t>(8, 0), params),
               std::invalid_argument);
  ServiceConfig zero_shards;
  zero_shards.backend.shards = 0;
  EXPECT_THROW(NttService{zero_shards}, std::invalid_argument);
}

// reset_stats() starts a clean epoch without disturbing in-flight
// bookkeeping: pending backlog survives, counters restart at zero.
TEST(ServiceUnit, ResetStatsStartsCleanEpoch) {
  const auto params = make_params(256);
  ServiceConfig cfg;
  cfg.backend.banks_per_shard = 4;
  cfg.former.flush_window = hour();
  cfg.former.start_paused = true;
  NttService svc(cfg);

  Rng rng(31);
  auto warm = svc.submit(rng.residues(params->n(), params->q()), params);
  auto staged = svc.submit(rng.residues(params->n(), params->q()), params);
  svc.reset_stats();

  auto stats = svc.stats();
  EXPECT_EQ(stats.submitted, 2u);  // still pending: carried into the epoch
  EXPECT_EQ(stats.pending, 2u);
  EXPECT_EQ(stats.completed, 0u);
  expect_tiles(stats);

  // A 2-item backlog never reaches the 4-item flush size and the window is
  // an hour: shutdown() is what flushes it (close -> immediate drain).
  svc.shutdown();
  warm.get();
  staged.get();
  stats = svc.stats();
  EXPECT_EQ(stats.completed, 2u);
  EXPECT_EQ(stats.pending, 0u);
  expect_tiles(stats);
}

// Regression: reset_stats() carries ShardStats::modeled_cycles over. It
// is the backend's lifetime total, so a delta taken across a reset covers
// exactly the work done after it: one more identical 4-item wave doubles
// it.
TEST(ServiceUnit, ResetStatsKeepsModeledCycles) {
  const auto params = make_params(256);
  ServiceConfig cfg;
  cfg.backend.banks_per_shard = 4;
  cfg.former.flush_window = hour();  // only the 4-item size flush cuts
  NttService svc(cfg);

  Rng rng(37);
  const auto run_wave = [&] {
    for (auto& f : submit_wave(svc, params, rng)) f.get();
    svc.drain();
  };
  run_wave();
  const std::uint64_t one_wave = svc.stats().shards.at(0).modeled_cycles;
  ASSERT_GT(one_wave, 0u);
  svc.reset_stats();
  EXPECT_EQ(svc.stats().shards.at(0).modeled_cycles, one_wave);
  run_wave();
  EXPECT_EQ(svc.stats().shards.at(0).modeled_cycles, 2 * one_wave);
}

// Regression (PR 5): nearest-rank percentiles. The old floor() rank was
// off by one — p50 over [1..100] returned the 51st value and p50 of a
// 2-sample window returned the max.
TEST(ServiceUnit, PercentilesUseNearestRank) {
  service::LatencyRecorder recorder;
  for (int v = 100; v >= 1; --v) recorder.record(v);  // order must not matter
  auto s = recorder.summary();
  EXPECT_DOUBLE_EQ(s.p50_us, 50.0);
  EXPECT_DOUBLE_EQ(s.p95_us, 95.0);
  EXPECT_DOUBLE_EQ(s.p99_us, 99.0);
  EXPECT_DOUBLE_EQ(s.max_us, 100.0);

  recorder.reset();
  recorder.record(20);
  recorder.record(10);
  s = recorder.summary();
  EXPECT_DOUBLE_EQ(s.p50_us, 10.0);  // the min, not the max
  EXPECT_DOUBLE_EQ(s.p95_us, 20.0);
  EXPECT_DOUBLE_EQ(s.p99_us, 20.0);

  recorder.reset();
  recorder.record(7);
  s = recorder.summary();
  EXPECT_DOUBLE_EQ(s.p50_us, 7.0);
  EXPECT_DOUBLE_EQ(s.p99_us, 7.0);
}

// Regression (PR 5): the wave-former's timeout flush must be judged
// against the *current* front's deadline. The old code computed the
// deadline once per wait; a waiter whose wave was taken by another
// consumer then timed out against the departed front's deadline and
// flushed fresh requests early, shrinking coalesced waves. Two consumers
// and an injected clock make the schedule exact: no sleeps, no real time.
TEST(ServiceUnit, WaveFormerTimeoutUsesCurrentFrontDeadline) {
  std::atomic<std::int64_t> fake_us{0};
  service::WaveFormer::Config cfg;
  cfg.capacity_items = 16;
  cfg.max_wave_items = 2;
  cfg.flush_window = std::chrono::microseconds(100);
  cfg.clock = [&] {
    return service::ServiceClock::time_point(
        std::chrono::microseconds(fake_us.load(std::memory_order_relaxed)));
  };
  service::WaveFormer former(cfg);

  sync::Mutex waves_mu;
  std::vector<std::vector<std::uint32_t>> waves;  // request tags per wave
  auto consume = [&] {
    for (;;) {
      auto wave = former.next_wave();
      if (wave.empty()) return;
      std::vector<std::uint32_t> tags;
      for (const auto& r : wave) tags.push_back(r.a[0]);
      {
        const sync::MutexLock lk(waves_mu);
        waves.push_back(std::move(tags));
      }
      // Promises resolve only after the wave is published, so a test
      // thread blocked on a future knows `waves` already has its wave.
      for (auto& r : wave) r.promise.set_value({});
    }
  };
  std::thread c1(consume);
  std::thread c2(consume);

  auto submit = [&](std::uint32_t tag) {
    service::Request r;
    r.a = {tag};
    auto f = r.promise.get_future();
    EXPECT_EQ(former.submit(std::move(r)),
              service::WaveFormer::SubmitResult::kAccepted);
    return f;
  };

  // Front 0 flushes alone, but only once its own window has elapsed.
  auto f0 = submit(0);
  fake_us.store(100, std::memory_order_relaxed);
  former.tick();
  f0.get();

  // Fresh front 1 (enqueued at t=100) must NOT flush before t=200 even
  // though a consumer just serviced a deadline at t=100: request 2
  // completes the full wave instead.
  auto f1 = submit(1);
  auto f2 = submit(2);
  f1.get();
  f2.get();

  former.close();
  c1.join();
  c2.join();

  ASSERT_EQ(waves.size(), 2u);
  EXPECT_EQ(waves[0], (std::vector<std::uint32_t>{0}));
  EXPECT_EQ(waves[1], (std::vector<std::uint32_t>{1, 2}));
}

namespace former_test {

// Single-consumer fake-clock harness: submit tagged requests (optionally
// deadlined) before the consumer starts, so every cut is deterministic.
struct Harness {
  explicit Harness(service::WaveFormer::Config cfg) {
    cfg.clock = [this] {
      return service::ServiceClock::time_point(
          std::chrono::microseconds(fake_us.load(std::memory_order_relaxed)));
    };
    former.emplace(cfg);
  }

  std::future<std::vector<std::uint32_t>> submit(std::uint32_t tag,
                                std::optional<std::int64_t> deadline_us = {},
                                int priority = 0) {
    service::Request r;
    r.a = {tag};
    r.qos.priority = priority;
    if (deadline_us)
      r.qos.deadline = service::ServiceClock::time_point(
          std::chrono::microseconds(*deadline_us));
    auto f = r.promise.get_future();
    EXPECT_EQ(former->submit(std::move(r)),
              service::WaveFormer::SubmitResult::kAccepted);
    return f;
  }

  /// Drain every formed wave into `waves` (tags, in cut order).
  std::vector<std::vector<std::uint32_t>> run_consumer_to_close() {
    std::vector<std::vector<std::uint32_t>> waves;
    for (;;) {
      auto wave = former->next_wave();
      if (wave.empty()) return waves;
      std::vector<std::uint32_t> tags;
      for (auto& r : wave) {
        tags.push_back(r.a[0]);
        r.promise.set_value({});
      }
      waves.push_back(std::move(tags));
    }
  }

  std::atomic<std::int64_t> fake_us{0};
  std::optional<service::WaveFormer> former;
};

}  // namespace former_test

// EDF forming: with more pending than fits one wave, the cut takes
// requests by (deadline, priority desc, arrival), not arrival order; the
// deadline-less remainder flushes by the plain window.
TEST(ServiceUnit, WaveFormerEdfCutsByDeadlineThenPriorityThenArrival) {
  service::WaveFormer::Config cfg;
  cfg.capacity_items = 16;
  cfg.max_wave_items = 3;
  cfg.flush_window = std::chrono::microseconds(100);
  former_test::Harness h(cfg);

  // Arrival order 0..4; urgency says otherwise: 3 (earliest deadline),
  // then 1 (later deadline), then 4 (no deadline but highest priority).
  auto f0 = h.submit(0);
  auto f1 = h.submit(1, /*deadline_us=*/1000);
  auto f2 = h.submit(2);
  auto f3 = h.submit(3, /*deadline_us=*/500);
  auto f4 = h.submit(4, /*deadline_us=*/std::nullopt, /*priority=*/7);

  std::thread consumer;
  std::vector<std::vector<std::uint32_t>> waves;
  consumer = std::thread([&] { waves = h.run_consumer_to_close(); });
  f3.get();  // first wave is out once the most-urgent request resolves
  f1.get();
  f4.get();

  // Remainder {0, 2} has no deadline: it waits out the full window
  // (enqueued at t=0) and flushes in arrival order.
  h.fake_us.store(100, std::memory_order_relaxed);
  h.former->tick();
  f0.get();
  f2.get();

  h.former->close();
  consumer.join();
  ASSERT_EQ(waves.size(), 2u);
  EXPECT_EQ(waves[0], (std::vector<std::uint32_t>{3, 1, 4}));
  EXPECT_EQ(waves[1], (std::vector<std::uint32_t>{0, 2}));
}

// EDF forming: a pending deadline earlier than the front's window expiry
// tightens the flush deadline, so a latency-critical request never waits
// out the coalescing window behind bulk traffic. (The test completing at
// fake time 40 — well before the 100 us window — is the assertion.)
TEST(ServiceUnit, WaveFormerEdfDeadlineTightensFlushWindow) {
  service::WaveFormer::Config cfg;
  cfg.capacity_items = 16;
  cfg.max_wave_items = 16;  // never fills: only a flush can cut
  cfg.flush_window = std::chrono::microseconds(100);
  former_test::Harness h(cfg);

  auto f0 = h.submit(0);                        // bulk, window expires at 100
  auto f1 = h.submit(1, /*deadline_us=*/40);    // tightens the flush to 40

  std::thread consumer;
  std::vector<std::vector<std::uint32_t>> waves;
  consumer = std::thread([&] { waves = h.run_consumer_to_close(); });
  h.fake_us.store(40, std::memory_order_relaxed);
  h.former->tick();
  f0.get();
  f1.get();

  h.former->close();
  consumer.join();
  ASSERT_EQ(waves.size(), 1u);
  // One wave, EDF order: the deadlined request leads.
  EXPECT_EQ(waves[0], (std::vector<std::uint32_t>{1, 0}));
}

// The flush window is anchored on the oldest pending request, not on the
// front of the cut-ordered queue: a deadlined newcomer sorts ahead of an
// older classless request, yet the older request's window still bounds
// the flush. (The test completing at fake time 100 — before the
// newcomer's own window (150) and deadline (1000) — is the assertion.)
TEST(ServiceUnit, WaveFormerWindowAnchorsOnOldestPendingRequest) {
  service::WaveFormer::Config cfg;
  cfg.capacity_items = 16;
  cfg.max_wave_items = 16;  // never fills: only a flush can cut
  cfg.flush_window = std::chrono::microseconds(100);
  former_test::Harness h(cfg);

  auto f0 = h.submit(0);  // classless, enqueued at t=0
  h.fake_us.store(50, std::memory_order_relaxed);
  auto f1 = h.submit(1, /*deadline_us=*/1000);  // cut first, enqueued at 50

  std::thread consumer;
  std::vector<std::vector<std::uint32_t>> waves;
  consumer = std::thread([&] { waves = h.run_consumer_to_close(); });
  h.fake_us.store(100, std::memory_order_relaxed);
  h.former->tick();
  f0.get();
  f1.get();

  h.former->close();
  consumer.join();
  ASSERT_EQ(waves.size(), 1u);
  EXPECT_EQ(waves[0], (std::vector<std::uint32_t>{1, 0}));
}

// Property: every wave the former cuts equals the selection of an oracle
// that stable-sorts the pending requests by (effective deadline, priority
// desc, arrival) and takes them until the next one would overflow the
// wave. Seeded streams mix classless, deadlined and prioritized transforms
// and multiplies, submitted in bursts between cuts; an all-classless
// stream must cut exact FIFO waves.
TEST(ServiceProperty, WaveFormerCutMatchesSortedSelectionOracle) {
  struct Pending {
    std::uint32_t tag;
    std::size_t items;
    service::RequestClass qos;
    std::uint64_t seq;
  };
  auto oracle_cut = [](std::vector<Pending>& pending, std::size_t max_items) {
    std::stable_sort(pending.begin(), pending.end(),
                     [](const Pending& a, const Pending& b) {
                       const auto da = a.qos.edf_deadline();
                       const auto db = b.qos.edf_deadline();
                       if (da != db) return da < db;
                       if (a.qos.priority != b.qos.priority)
                         return a.qos.priority > b.qos.priority;
                       return a.seq < b.seq;
                     });
    std::vector<std::uint32_t> wave;
    std::size_t taken = 0;
    std::size_t k = 0;
    while (k < pending.size()) {
      if (taken != 0 && taken + pending[k].items > max_items) break;
      taken += pending[k].items;
      wave.push_back(pending[k].tag);
      ++k;
      if (taken >= max_items) break;
    }
    pending.erase(pending.begin(), pending.begin() + static_cast<long>(k));
    return wave;
  };

  for (const bool classless : {false, true}) {
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
      Rng rng(seed);
      service::WaveFormer::Config cfg;
      cfg.capacity_items = 1 << 12;
      cfg.max_wave_items = 1 + rng.next_below(8);
      cfg.flush_window = std::chrono::microseconds(0);  // every call cuts
      cfg.clock = [] { return service::ServiceClock::time_point{}; };
      service::WaveFormer former(cfg);

      std::vector<Pending> pending;
      std::uint32_t next_tag = 0;
      std::uint64_t fifo_tag = 0;
      auto cut_and_check = [&] {
        auto wave = former.next_wave();
        std::vector<std::uint32_t> tags;
        for (const auto& r : wave) tags.push_back(r.a[0]);
        EXPECT_EQ(tags, oracle_cut(pending, cfg.max_wave_items))
            << "seed " << seed << " classless " << classless;
        if (classless)
          for (const std::uint32_t tag : tags) EXPECT_EQ(tag, fifo_tag++);
      };
      while (next_tag < 160) {
        for (std::uint64_t b = 1 + rng.next_below(12); b > 0; --b) {
          service::Request r;
          r.a = {next_tag};
          if (rng.next_below(10) < 3)
            r.kind = service::Request::Kind::kMultiply;
          if (!classless) {
            if (rng.next_below(3) == 0)
              r.qos.deadline = service::ServiceClock::time_point(
                  std::chrono::microseconds(1 + rng.next_below(40)));
            if (rng.next_below(3) == 0)
              r.qos.priority = static_cast<int>(rng.next_below(6)) - 2;
          }
          pending.push_back({next_tag, r.batch_items(), r.qos, next_tag});
          ++next_tag;
          ASSERT_EQ(former.submit(std::move(r)),
                    service::WaveFormer::SubmitResult::kAccepted);
        }
        for (std::uint64_t c = rng.next_below(3); c > 0 && !pending.empty();
             --c)
          cut_and_check();
      }
      while (!pending.empty()) cut_and_check();
      EXPECT_EQ(former.pending_items(), 0u);
    }
  }
}

// Token-bucket arithmetic to exact counts under a fake clock: a fresh
// bucket admits its burst, refills continuously at rate_per_sec, rate 0
// never refills, burst <= 0 and unconfigured tenants are unlimited.
TEST(ServiceUnit, AdmissionTokenBucketRefillExactness) {
  using Decision = service::AdmissionController::Decision;
  std::atomic<std::int64_t> fake_us{0};
  service::AdmissionController::Config cfg;
  cfg.tenants = {
      {.rate_per_sec = 2.0, .burst = 2.0},  // tenant 0: 2-deep, 2/sec
      {.rate_per_sec = 0.0, .burst = 3.0},  // tenant 1: hard cap of 3
      {.rate_per_sec = 5.0, .burst = 0.0},  // tenant 2: unlimited
  };
  cfg.clock = [&] {
    return service::ServiceClock::time_point(
        std::chrono::microseconds(fake_us.load(std::memory_order_relaxed)));
  };
  service::AdmissionController adm(std::move(cfg));

  // Tenant 0: the initial burst admits exactly 2, then sheds.
  EXPECT_EQ(adm.admit(0), Decision::kAdmit);
  EXPECT_EQ(adm.admit(0), Decision::kAdmit);
  EXPECT_EQ(adm.admit(0), Decision::kShed);
  EXPECT_DOUBLE_EQ(adm.tokens(0), 0.0);

  // 500 ms at 2/sec refills exactly one token; 250 ms more only half.
  fake_us.store(500000, std::memory_order_relaxed);
  EXPECT_EQ(adm.admit(0), Decision::kAdmit);
  EXPECT_EQ(adm.admit(0), Decision::kShed);
  fake_us.store(750000, std::memory_order_relaxed);
  EXPECT_EQ(adm.admit(0), Decision::kShed);
  EXPECT_DOUBLE_EQ(adm.tokens(0), 0.5);
  // A long idle stretch refills to the burst cap, never beyond.
  fake_us.store(10000000, std::memory_order_relaxed);
  EXPECT_DOUBLE_EQ(adm.tokens(0), 2.0);

  // Tenant 1: rate 0 is a deterministic lifetime cap of `burst`.
  for (int i = 0; i < 3; ++i) EXPECT_EQ(adm.admit(1), Decision::kAdmit);
  EXPECT_EQ(adm.admit(1), Decision::kShed);
  fake_us.store(20000000, std::memory_order_relaxed);
  EXPECT_EQ(adm.admit(1), Decision::kShed);

  // Tenant 2 (burst <= 0) and tenant 9 (unconfigured) always admit.
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(adm.admit(2), Decision::kAdmit);
    EXPECT_EQ(adm.admit(9), Decision::kAdmit);
  }
}

namespace dispatch_test {

std::vector<service::Request> tagged_wave(std::uint32_t tag) {
  std::vector<service::Request> wave(1);
  wave[0].a = {tag};
  wave[0].seq = tag;  // arrival stamp: tags are dispatched in order
  return wave;
}

// A wave whose (single) request carries a deadline, for the QoS paths.
std::vector<service::Request> deadlined_wave(std::uint32_t tag,
                                             std::int64_t deadline_us) {
  auto wave = tagged_wave(tag);
  wave[0].qos.deadline = service::ServiceClock::time_point(
      std::chrono::microseconds(deadline_us));
  return wave;
}

std::uint32_t tag_of(const std::vector<service::Request>& wave) {
  return wave.at(0).a.at(0);
}

std::uint64_t backlog(const service::Dispatcher& dispatcher,
                      std::size_t shard) {
  return dispatcher.backlog_snapshot(shard).total_cycles;
}

/// One group pop of a single-channel shard: its only wave, or nullopt once
/// the closed dispatcher has drained every queue.
std::optional<service::Dispatcher::NextWave> pop(
    service::Dispatcher& dispatcher, std::size_t shard) {
  auto group = dispatcher.next_waves_for(shard);
  if (group.empty()) return std::nullopt;
  EXPECT_EQ(group.size(), 1u);
  return std::move(group.front());
}

}  // namespace dispatch_test

// An idle shard steals the *oldest* wave of the most-loaded peer; waves
// from its own queue are not counted as steals. Single-threaded driving
// of the Dispatcher makes every assignment and steal exact.
TEST(ServiceUnit, DispatcherStealsOldestWaveFromLoadedPeer) {
  service::Dispatcher::Config cfg;
  cfg.shards.resize(2);
  cfg.queue_capacity_waves = 4;
  // Equal prices alternate the shards (ties go to the first least-backlog
  // pair): tags 0,2 -> shard 0; 1,3 -> shard 1.
  service::Dispatcher dispatcher(
      cfg, [](std::size_t, std::vector<service::Request>&) {
        return std::uint64_t{100};
      });

  for (std::uint32_t tag = 0; tag < 4; ++tag)
    dispatcher.dispatch(dispatch_test::tagged_wave(tag));
  EXPECT_EQ(dispatch_test::backlog(dispatcher, 0), 200u);
  EXPECT_EQ(dispatch_test::backlog(dispatcher, 1), 200u);

  // Shard 0 drains its own queue first (FIFO), then steals shard 1's
  // waves oldest-first.
  const std::uint32_t expected_tags[] = {0, 2, 1, 3};
  const bool expected_stolen[] = {false, false, true, true};
  for (int i = 0; i < 4; ++i) {
    auto next = dispatch_test::pop(dispatcher, 0);
    ASSERT_TRUE(next.has_value());
    EXPECT_EQ(dispatch_test::tag_of(next->requests), expected_tags[i]);
    EXPECT_EQ(next->stolen, expected_stolen[i]);
    dispatcher.complete(0, next->estimated_cycles);
  }
  EXPECT_EQ(dispatch_test::backlog(dispatcher, 0), 0u);
  EXPECT_EQ(dispatch_test::backlog(dispatcher, 1), 0u);

  dispatcher.close();
  EXPECT_FALSE(dispatch_test::pop(dispatcher, 0).has_value());
  EXPECT_FALSE(dispatch_test::pop(dispatcher, 1).has_value());
}

// Cost-aware assignment sends each wave to the smallest estimated
// backlog, so cheap waves pile onto the shard not stuck behind an
// expensive one; once idle, that shard steals the expensive wave.
TEST(ServiceUnit, DispatcherCostAwareAssignsLeastBacklog) {
  service::Dispatcher::Config cfg;
  cfg.shards.resize(2);
  service::Dispatcher dispatcher(
      cfg, [](std::size_t, std::vector<service::Request>& wave) {
        return dispatch_test::tag_of(wave) == 0 ? std::uint64_t{1000}
                                                : std::uint64_t{100};
      });

  dispatcher.dispatch(dispatch_test::tagged_wave(0));  // 1000 -> shard 0
  dispatcher.dispatch(dispatch_test::tagged_wave(1));  // 100  -> shard 1
  dispatcher.dispatch(dispatch_test::tagged_wave(2));  // 100  -> shard 1
  EXPECT_EQ(dispatch_test::backlog(dispatcher, 0), 1000u);
  EXPECT_EQ(dispatch_test::backlog(dispatcher, 1), 200u);

  auto first = dispatch_test::pop(dispatcher, 1);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(dispatch_test::tag_of(first->requests), 1u);
  EXPECT_FALSE(first->stolen);
  auto second = dispatch_test::pop(dispatcher, 1);
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(dispatch_test::tag_of(second->requests), 2u);

  // Shard 1 is now empty: it steals shard 0's queued expensive wave.
  auto stolen = dispatch_test::pop(dispatcher, 1);
  ASSERT_TRUE(stolen.has_value());
  EXPECT_EQ(dispatch_test::tag_of(stolen->requests), 0u);
  EXPECT_TRUE(stolen->stolen);
  dispatcher.close();
}

// close() must release a dispatch blocked on a full shard queue by
// waiving the capacity bound: every accepted wave still lands and drains.
TEST(ServiceUnit, DispatcherCloseReleasesBlockedDispatch) {
  service::Dispatcher::Config cfg;
  cfg.shards.resize(1);
  cfg.queue_capacity_waves = 1;
  service::Dispatcher dispatcher(
      cfg, [](std::size_t, std::vector<service::Request>&) {
        return std::uint64_t{1};
      });

  dispatcher.dispatch(dispatch_test::tagged_wave(0));  // fills the slot
  std::thread blocked(
      [&] { dispatcher.dispatch(dispatch_test::tagged_wave(1)); });
  // Whichever side of the space wait close() lands on, the second wave
  // must be enqueued past the bound rather than stuck or dropped.
  dispatcher.close();
  blocked.join();

  auto first = dispatch_test::pop(dispatcher, 0);
  auto second = dispatch_test::pop(dispatcher, 0);
  ASSERT_TRUE(first.has_value());
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(dispatch_test::tag_of(first->requests), 0u);
  EXPECT_EQ(dispatch_test::tag_of(second->requests), 1u);
  EXPECT_FALSE(dispatch_test::pop(dispatcher, 0).has_value());
}

// Regression: a shard's total and per-channel backlog gauges must come
// from one lock acquisition (backlog_snapshot), so they always tile —
// total == sum over channels — even while waves land or retire.
TEST(ServiceUnit, DispatcherBacklogSnapshotTiles) {
  service::Dispatcher::Config cfg;
  cfg.shards.resize(1);
  cfg.shards[0].channels = 2;
  cfg.queue_capacity_waves = 4;  // least-backlogged: 100 -> ch0, 60 -> ch1
  service::Dispatcher dispatcher(
      cfg, [](std::size_t, std::vector<service::Request>& wave) {
        return std::uint64_t{dispatch_test::tag_of(wave) == 0 ? 100u : 60u};
      });
  dispatcher.dispatch(dispatch_test::tagged_wave(0));
  dispatcher.dispatch(dispatch_test::tagged_wave(1));
  dispatcher.dispatch(dispatch_test::tagged_wave(2));  // 60 -> lighter ch1

  const auto snap = dispatcher.backlog_snapshot(0);
  ASSERT_EQ(snap.channel_cycles.size(), 2u);
  EXPECT_EQ(snap.total_cycles, 220u);
  EXPECT_EQ(snap.channel_cycles[0] + snap.channel_cycles[1],
            snap.total_cycles);

  // Executing work stays in the total until complete() retires it, on the
  // channel that began it.
  auto group = dispatcher.next_waves_for(0);
  ASSERT_EQ(group.size(), 2u);  // one wave per channel
  const auto executing = dispatcher.backlog_snapshot(0);
  EXPECT_EQ(executing.total_cycles, 220u);
  for (const auto& w : group)
    dispatcher.complete(0, w.estimated_cycles, w.channel);
  const auto after = dispatcher.backlog_snapshot(0);
  EXPECT_EQ(after.total_cycles, 60u);  // the third wave still queued
  EXPECT_EQ(after.channel_cycles[0] + after.channel_cycles[1], 60u);
  dispatcher.close();
}

// Heterogeneous routing: with per-shard estimators, cost-aware dispatch
// sends each wave to the backend that clears it soonest — a bulk wave
// stays on the PIM shard even though the CPU shard is idle, while a small
// wave goes to the CPU once the PIM is backlogged (the deployment shape
// of the paper: CPU absorbs the cheap tail, PIM keeps the bulk).
TEST(ServiceUnit, DispatcherRoutesBulkToPimCheapToCpu) {
  service::Dispatcher::Config cfg;
  cfg.shards.resize(2);  // shard 0: PIM, shard 1: CPU
  // Tag 0 is a bulk RNS wave (bank-parallel PIM: 100; serial-ish CPU:
  // 800); tag 1 is a small wave where the backends are close (50 vs 60).
  service::Dispatcher dispatcher(
      cfg, [](std::size_t shard, std::vector<service::Request>& wave) {
        const bool bulk = dispatch_test::tag_of(wave) == 0;
        if (shard == 0) return bulk ? std::uint64_t{100} : std::uint64_t{50};
        return bulk ? std::uint64_t{800} : std::uint64_t{60};
      });

  // Bulk: 0+100 on PIM beats 0+800 on CPU, idle CPU notwithstanding.
  dispatcher.dispatch(dispatch_test::tagged_wave(0));
  // Cheap: PIM would finish it at 100+50 = 150, the CPU at 60 — routed to
  // the CPU even though its own estimate is the worse of the two.
  dispatcher.dispatch(dispatch_test::tagged_wave(1));
  EXPECT_EQ(dispatch_test::backlog(dispatcher, 0), 100u);
  EXPECT_EQ(dispatch_test::backlog(dispatcher, 1), 60u);

  auto pim_wave = dispatch_test::pop(dispatcher, 0);
  ASSERT_TRUE(pim_wave.has_value());
  EXPECT_EQ(dispatch_test::tag_of(pim_wave->requests), 0u);
  EXPECT_EQ(pim_wave->estimated_cycles, 100u);
  auto cpu_wave = dispatch_test::pop(dispatcher, 1);
  ASSERT_TRUE(cpu_wave.has_value());
  EXPECT_EQ(dispatch_test::tag_of(cpu_wave->requests), 1u);
  EXPECT_EQ(cpu_wave->estimated_cycles, 60u);
}

// cost_scale derates a shard's estimates at dispatch time: with identical
// raw estimates, the discounted shard wins and its stored price is the
// scaled one.
TEST(ServiceUnit, DispatcherAppliesCostScale) {
  service::Dispatcher::Config cfg;
  cfg.shards = {{.cost_scale = 1.0}, {.cost_scale = 0.5}};
  service::Dispatcher dispatcher(
      cfg, [](std::size_t, std::vector<service::Request>&) {
        return std::uint64_t{100};
      });
  dispatcher.dispatch(dispatch_test::tagged_wave(0));
  EXPECT_EQ(dispatch_test::backlog(dispatcher, 0), 0u);
  EXPECT_EQ(dispatch_test::backlog(dispatcher, 1), 50u);
}

// Hierarchical assignment: a multi-channel shard's waves land on the
// least-backlogged *channel*, and a group pop hands back one wave per
// channel — rebalancing a queued wave onto an empty-handed sibling
// channel so the merged pass keeps every bus busy.
TEST(ServiceUnit, DispatcherAssignsLeastBackloggedChannel) {
  service::Dispatcher::Config cfg;
  cfg.shards = {{.channels = 2}};
  service::Dispatcher dispatcher(
      cfg, [](std::size_t, std::vector<service::Request>& wave) {
        switch (dispatch_test::tag_of(wave)) {
          case 1: return std::uint64_t{100};
          case 2: return std::uint64_t{250};
          case 3: return std::uint64_t{10};
          default: return std::uint64_t{500};
        }
      });
  EXPECT_EQ(dispatcher.channels(0), 2u);

  dispatcher.dispatch(dispatch_test::tagged_wave(1));  // tie -> ch 0
  dispatcher.dispatch(dispatch_test::tagged_wave(2));  // 350 vs 250 -> ch 1
  dispatcher.dispatch(dispatch_test::tagged_wave(3));  // 110 vs 260 -> ch 0
  dispatcher.dispatch(dispatch_test::tagged_wave(4));  // 610 vs 750 -> ch 0
  EXPECT_EQ(dispatcher.backlog_snapshot(0).channel_cycles[0], 610u);
  EXPECT_EQ(dispatcher.backlog_snapshot(0).channel_cycles[1], 250u);
  EXPECT_EQ(dispatch_test::backlog(dispatcher, 0), 860u);

  // Group pop 1: both channels have queued waves — one each, FIFO.
  auto group = dispatcher.next_waves_for(0);
  ASSERT_EQ(group.size(), 2u);
  EXPECT_EQ(dispatch_test::tag_of(group[0].requests), 1u);
  EXPECT_EQ(group[0].channel, 0u);
  EXPECT_FALSE(group[0].rebalanced);
  EXPECT_EQ(dispatch_test::tag_of(group[1].requests), 2u);
  EXPECT_EQ(group[1].channel, 1u);
  EXPECT_FALSE(group[1].rebalanced);
  for (const auto& w : group)
    dispatcher.complete(0, w.estimated_cycles, w.channel);

  // Group pop 2: channel 1's queue is empty, so it takes channel 0's
  // remaining wave — rebalanced, never counted as a steal.
  group = dispatcher.next_waves_for(0);
  ASSERT_EQ(group.size(), 2u);
  EXPECT_EQ(dispatch_test::tag_of(group[0].requests), 3u);
  EXPECT_EQ(group[0].channel, 0u);
  EXPECT_FALSE(group[0].rebalanced);
  EXPECT_EQ(dispatch_test::tag_of(group[1].requests), 4u);
  EXPECT_EQ(group[1].channel, 1u);
  EXPECT_TRUE(group[1].rebalanced);
  EXPECT_FALSE(group[1].stolen);
  for (const auto& w : group)
    dispatcher.complete(0, w.estimated_cycles, w.channel);
  EXPECT_EQ(dispatch_test::backlog(dispatcher, 0), 0u);

  dispatcher.close();
  EXPECT_TRUE(dispatcher.next_waves_for(0).empty());
}

// Local rebalance strictly precedes remote stealing: while a multi-channel
// shard still holds queued waves of its own, its group pops spread them
// across its channels and never touch a peer; only a fully empty shard
// crosses over — re-pricing the loot and landing it on its
// least-backlogged channel.
TEST(ServiceUnit, DispatcherRebalancesLocallyBeforeStealing) {
  service::Dispatcher::Config cfg;
  cfg.shards = {{.channels = 2}, {.channels = 1}};
  // Shard 1 prices tags 1-4 far above shard 0's whole backlog, so they land
  // on shard 0 (same prices as above); tag 5 is cheap on shard 1 and lands
  // there.
  service::Dispatcher dispatcher(
      cfg, [](std::size_t shard, std::vector<service::Request>& wave) {
        const std::uint32_t tag = dispatch_test::tag_of(wave);
        if (shard == 1) return std::uint64_t{tag == 5 ? 40u : 10000u};
        switch (tag) {
          case 1: return std::uint64_t{100};
          case 2: return std::uint64_t{250};
          case 3: return std::uint64_t{10};
          case 4: return std::uint64_t{500};
          default: return std::uint64_t{100};
        }
      });

  for (std::uint32_t tag = 1; tag <= 4; ++tag)
    dispatcher.dispatch(dispatch_test::tagged_wave(tag));
  dispatcher.dispatch(dispatch_test::tagged_wave(5));  // 40 on shard 1 wins
  EXPECT_EQ(dispatch_test::backlog(dispatcher, 0), 860u);
  EXPECT_EQ(dispatch_test::backlog(dispatcher, 1), 40u);

  // Two group pops clear shard 0's four waves — the second rebalances tag
  // 4 onto channel 1 instead of stealing shard 1's cheaper tag 5.
  for (int pop = 0; pop < 2; ++pop) {
    auto group = dispatcher.next_waves_for(0);
    ASSERT_EQ(group.size(), 2u);
    for (const auto& w : group) {
      EXPECT_FALSE(w.stolen);
      dispatcher.complete(0, w.estimated_cycles, w.channel);
    }
  }
  EXPECT_EQ(dispatch_test::backlog(dispatcher, 0), 0u);
  // Shard 1's wave is untouched by shard 0's pops.
  EXPECT_EQ(dispatch_test::backlog(dispatcher, 1), 40u);

  // Now shard 0 is truly empty: the next pop crosses shards, re-priced for
  // the thief (100, not 40) on its least-backlogged channel.
  auto stolen = dispatcher.next_waves_for(0);
  ASSERT_EQ(stolen.size(), 1u);
  EXPECT_EQ(dispatch_test::tag_of(stolen[0].requests), 5u);
  EXPECT_TRUE(stolen[0].stolen);
  EXPECT_FALSE(stolen[0].rebalanced);
  EXPECT_EQ(stolen[0].estimated_cycles, 100u);
  dispatcher.complete(0, stolen[0].estimated_cycles, stolen[0].channel);
  EXPECT_EQ(dispatch_test::backlog(dispatcher, 1), 0u);

  dispatcher.close();
  EXPECT_TRUE(dispatcher.next_waves_for(0).empty());
  EXPECT_TRUE(dispatcher.next_waves_for(1).empty());
}

// Deadlines, assignment half: an urgent wave's ETA counts only the queued
// work ahead of its (deadline, arrival) key — it jumps queued bulk — so it
// lands by tie-break on shard 0 despite shard 0 holding the larger bulk
// backlog (a deadline-less wave would go to shard 1), and the
// deadline-ordered lane then pops it first, ahead of earlier-arrived bulk.
TEST(ServiceUnit, DispatcherDeadlinePressureJumpsQueuedBulk) {
  service::Dispatcher::Config cfg;
  cfg.shards.resize(2);
  service::Dispatcher dispatcher(
      cfg, [](std::size_t, std::vector<service::Request>&) {
        return std::uint64_t{100};
      });

  dispatcher.dispatch(dispatch_test::tagged_wave(0));  // tie -> shard 0
  dispatcher.dispatch(dispatch_test::tagged_wave(1));  // least-backlog -> 1
  dispatcher.dispatch(dispatch_test::tagged_wave(2));  // eta tie -> shard 0
  EXPECT_EQ(dispatch_test::backlog(dispatcher, 0), 200u);
  EXPECT_EQ(dispatch_test::backlog(dispatcher, 1), 100u);

  // The urgent wave jumps both bulk waves queued on shard 0, so its ETA is
  // 100 everywhere and the tie resolves to shard 0 — without the jump the
  // least-backlog rule would have sent it to shard 1.
  dispatcher.dispatch(dispatch_test::deadlined_wave(3, /*deadline_us=*/100));
  EXPECT_EQ(dispatch_test::backlog(dispatcher, 0), 300u);
  EXPECT_EQ(dispatch_test::backlog(dispatcher, 1), 100u);

  // Shard 0's lane is urgency-ordered: the deadlined wave pops before the
  // bulk that arrived first.
  const std::uint32_t expected_tags[] = {3, 0, 2};
  for (const std::uint32_t tag : expected_tags) {
    auto next = dispatch_test::pop(dispatcher, 0);
    ASSERT_TRUE(next.has_value());
    EXPECT_EQ(dispatch_test::tag_of(next->requests), tag);
    dispatcher.complete(0, next->estimated_cycles);
  }
  dispatcher.close();
}

// Deadlines, steal half: an idle shard takes the most-deadline-urgent
// wave anywhere — even off a lightly loaded victim — and only
// falls back to the load-relief steal (oldest wave of the most-loaded
// peer) once no deadlined wave is queued.
TEST(ServiceUnit, DispatcherDeadlinePressureStealsMostUrgentWave) {
  service::Dispatcher::Config cfg;
  cfg.shards.resize(3);
  cfg.queue_capacity_waves = 4;
  // Each wave is cheap on its home shard tag % 3 and dear elsewhere, so
  // tag % 3 names the shard it lands on.
  service::Dispatcher dispatcher(
      cfg, [](std::size_t shard, std::vector<service::Request>& wave) {
        return dispatch_test::tag_of(wave) % 3 == shard ? std::uint64_t{100}
                                                        : std::uint64_t{1000};
      });

  // Shard 0 carries the big bulk backlog {0, 3, 6}; shard 2 is lighter
  // {2, 5} but holds the only deadlined wave (tag 5); shard 1 {1, 4} will
  // go idle and steal.
  for (std::uint32_t tag = 0; tag < 7; ++tag) {
    if (tag == 5)
      dispatcher.dispatch(
          dispatch_test::deadlined_wave(tag, /*deadline_us=*/700));
    else
      dispatcher.dispatch(dispatch_test::tagged_wave(tag));
  }
  EXPECT_EQ(dispatch_test::backlog(dispatcher, 0), 300u);
  EXPECT_EQ(dispatch_test::backlog(dispatcher, 2), 200u);

  // Drain shard 1's own FIFO lane.
  for (const std::uint32_t tag : {1u, 4u}) {
    auto own = dispatch_test::pop(dispatcher, 1);
    ASSERT_TRUE(own.has_value());
    EXPECT_EQ(dispatch_test::tag_of(own->requests), tag);
    EXPECT_FALSE(own->stolen);
    dispatcher.complete(1, own->estimated_cycles);
  }

  // First steal: the deadlined tag 5 off lightly-loaded shard 2, even
  // though the load-relief rule would have picked most-loaded shard 0.
  auto urgent = dispatch_test::pop(dispatcher, 1);
  ASSERT_TRUE(urgent.has_value());
  EXPECT_EQ(dispatch_test::tag_of(urgent->requests), 5u);
  EXPECT_TRUE(urgent->stolen);
  dispatcher.complete(1, urgent->estimated_cycles);

  // No deadlines left: the fallback relieves the most-loaded peer (shard
  // 0), oldest wave first.
  auto fallback = dispatch_test::pop(dispatcher, 1);
  ASSERT_TRUE(fallback.has_value());
  EXPECT_EQ(dispatch_test::tag_of(fallback->requests), 0u);
  EXPECT_TRUE(fallback->stolen);
  dispatcher.complete(1, fallback->estimated_cycles);
  dispatcher.close();
}

// A service on a multi-channel PIM shard serves bit-exact results, sizes
// waves to one channel's bank set, and its per-channel stats tile the
// shard counters.
TEST(ServiceE2E, MultiChannelShardServesAndSplitsStats) {
  const auto params = make_params(256);
  ServiceConfig cfg;
  cfg.backend.banks_per_shard = 4;
  cfg.backend.channels_per_shard = 2;
  cfg.former.start_paused = true;  // stage a backlog, then open the valve
  NttService svc(cfg);
  ASSERT_EQ(svc.shard_descriptors()[0].channels, 2u);

  Rng rng(71);
  fhe::CpuBackend cpu;
  std::vector<std::future<std::vector<std::uint32_t>>> futures;
  std::vector<std::vector<std::uint32_t>> expected;
  for (int r = 0; r < 8; ++r) {
    auto poly = rng.residues(params->n(), params->q());
    expected.push_back(poly);
    cpu.forward(expected.back(), *params);
    futures.push_back(svc.submit(std::move(poly), params, inv(false)));
  }
  svc.resume();
  for (int r = 0; r < 8; ++r) EXPECT_EQ(futures[r].get(), expected[r]);
  svc.drain();

  const auto stats = svc.stats();
  EXPECT_EQ(stats.completed, 8u);
  // Waves hold one channel's bank subset (4 banks / 2 channels = 2 items).
  EXPECT_EQ(stats.waves, 4u);
  const auto& ss = stats.shards.at(0);
  ASSERT_EQ(ss.channels.size(), 2u);
  for (const auto& cs : ss.channels)
    EXPECT_EQ(cs.estimated_backlog_cycles, 0u);  // drained
  expect_tiles(stats);
}

// Property (PR 5): under a steal-heavy skewed load — bursts of expensive
// and cheap waves staged behind a paused former — every accepted request
// completes exactly once, whichever shard ends up executing it.
TEST(ServiceProperty, StealingConservesRequestsUnderSkewedLoad) {
  const auto cheap = make_params(256);
  const auto costly = make_params(1024, 29);

  ServiceConfig cfg;
  cfg.backend.shards = 2;
  cfg.backend.banks_per_shard = 4;
  cfg.former.flush_window = hour();
  cfg.former.start_paused = true;
  cfg.dispatch.shard_queue_waves = 2;  // small queues force stalls + steals
  NttService svc(cfg);

  // 6 waves of 4: costly, cheap, costly, cheap, ... in submit order.
  constexpr std::size_t kWaves = 6;
  constexpr std::size_t kTotal = kWaves * 4;
  Rng rng(47);
  std::vector<std::atomic<int>> delivered(kTotal);
  std::latch done(kTotal);
  for (std::size_t w = 0; w < kWaves; ++w) {
    const auto& params = (w % 2 == 0) ? costly : cheap;
    for (std::size_t i = 0; i < 4; ++i) {
      const std::size_t id = w * 4 + i;
      svc.submit(rng.residues(params->n(), params->q()), params, inv(false),
                 [&, id](std::vector<std::uint32_t>&& result,
                         std::exception_ptr error) {
                   if (!error && !result.empty())
                     delivered[id].fetch_add(1, std::memory_order_relaxed);
                   done.count_down();
                 });
    }
  }
  svc.resume();
  done.wait();
  svc.drain();

  for (std::size_t id = 0; id < kTotal; ++id)
    EXPECT_EQ(delivered[id].load(std::memory_order_relaxed), 1) << "request " << id;
  const auto stats = svc.stats();
  EXPECT_EQ(stats.completed, kTotal);
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_EQ(stats.waves, kWaves);
  std::uint64_t requests = 0;
  for (const auto& shard : stats.shards) {
    requests += shard.requests;
    EXPECT_EQ(shard.estimated_backlog_cycles, 0u);  // drained
  }
  EXPECT_EQ(requests, kTotal);
}

// Property: cost-aware dispatch with stealing spreads a skewed stream
// (24 staged four-item waves alternating N = 1024 and N = 256 on 2 shards)
// more evenly than blind round-robin. The baseline is a modeled replay of
// round-robin placement (wave w on shard w % 2, each shard a private
// backend from the service's own PIM descriptor): the alternation
// resonates with the rotation and lands every expensive wave on shard 0,
// 302244 of 342180 modeled cycles (a 0.883 share). The live service's
// busiest-shard share must come in below it. How many waves the live run
// steals depends on worker timing, so that is left to the Dispatcher*
// unit tests.
TEST(ServiceProperty, SkewedDispatchBeatsRoundRobinReplay) {
  constexpr std::size_t kBanks = 4;
  constexpr std::size_t kWaves = 24;
  const auto hot = make_params(1024, 29);
  const auto cold = make_params(256, 30);
  const auto params_of = [&](std::size_t request) {
    return (request / kBanks) % 2 == 0 ? hot : cold;
  };
  Rng rng(13);
  fhe::CpuBackend cpu;
  std::vector<std::vector<std::uint32_t>> inputs;
  std::vector<std::vector<std::uint32_t>> expected;
  for (std::size_t i = 0; i < kWaves * kBanks; ++i) {
    inputs.push_back(rng.residues(params_of(i)->n(), params_of(i)->q()));
    expected.push_back(inputs.back());
    cpu.forward(expected.back(), *params_of(i));
  }
  const auto busiest_share = [](const std::vector<std::uint64_t>& cycles) {
    std::uint64_t busiest = 0;
    std::uint64_t total = 0;
    for (const std::uint64_t c : cycles) {
      busiest = std::max(busiest, c);
      total += c;
    }
    return static_cast<double>(busiest) / static_cast<double>(total);
  };

  double round_robin_share = 0;
  {
    const service::BackendDescriptor d = service::make_pim_descriptor(kBanks);
    const std::unique_ptr<fhe::NttBackend> shards[] = {d.factory(),
                                                       d.factory()};
    auto polys = inputs;
    for (std::size_t w = 0; w < kWaves; ++w) {
      std::vector<fhe::BatchItem> items;
      for (std::size_t i = w * kBanks; i < (w + 1) * kBanks; ++i)
        items.push_back({&polys[i], params_of(i).get(), false});
      shards[w % 2]->transform_batch_mixed(items);
    }
    EXPECT_EQ(polys, expected);
    round_robin_share = busiest_share(
        {shards[0]->modeled_cycles(), shards[1]->modeled_cycles()});
  }

  ServiceConfig cfg;
  cfg.backend.shards = 2;
  cfg.backend.banks_per_shard = kBanks;
  cfg.former.flush_window = hour();  // only size flushes
  cfg.former.start_paused = true;    // stage the whole skew, then go
  cfg.dispatch.shard_queue_waves = 2;  // shallow: imbalance stalls dispatch
  NttService svc(cfg);
  std::vector<std::future<std::vector<std::uint32_t>>> futures;
  for (std::size_t i = 0; i < inputs.size(); ++i)
    futures.push_back(svc.submit(inputs[i], params_of(i)));
  svc.resume();
  for (std::size_t i = 0; i < futures.size(); ++i)
    EXPECT_EQ(futures[i].get(), expected[i]) << "request " << i;
  svc.drain();

  const auto stats = svc.stats();
  EXPECT_EQ(stats.completed, inputs.size());
  EXPECT_EQ(stats.failed, 0u);
  std::vector<std::uint64_t> live;
  for (const auto& shard : stats.shards) live.push_back(shard.modeled_cycles);
  EXPECT_LT(busiest_share(live), round_robin_share);
}

// Property: greedy cost-aware dispatch on modeled backlogs alone routes
// part of a bulk (N = 1024) / small (N = 256) wave stream to a CPU pool
// and cuts the busiest backend's modeled makespan below PIM-only (12 of
// 24 waves to the CPU; 156912 vs 181584 cycles). The replay feeds a
// Dispatcher no worker ever pops, so assignment never races the cycle
// simulator: each shard's final backlog is the modeled serial finish time
// of the waves routed to it.
TEST(ServiceProperty, HeteroReplayMixedTierBeatsPimOnly) {
  constexpr std::size_t kBanks = 4;
  constexpr std::size_t kWaves = 24;
  const auto bulk = make_params(1024, 29);
  const auto small = make_params(256, 30);
  struct Replay {
    std::uint64_t makespan = 0;
    std::uint64_t cpu_waves = 0;
  };
  const auto replay = [&](bool add_cpu) {
    std::vector<service::BackendDescriptor> descriptors = {
        service::make_pim_descriptor(kBanks)};
    if (add_cpu) descriptors.push_back(service::make_cpu_descriptor(4));
    std::vector<std::unique_ptr<fhe::NttBackend>> backends;
    for (const auto& d : descriptors) backends.push_back(d.factory());

    // Warm the PIM's plan cache with one wave per size class, so prices
    // come from mapped traces instead of the conservative default.
    Rng warm_rng(31);
    fhe::CpuBackend cpu;
    for (const auto& params : {bulk, small}) {
      std::vector<std::vector<std::uint32_t>> polys;
      std::vector<std::vector<std::uint32_t>> expected;
      for (std::size_t i = 0; i < kBanks; ++i) {
        polys.push_back(warm_rng.residues(params->n(), params->q()));
        expected.push_back(polys.back());
        cpu.forward(expected.back(), *params);
      }
      std::vector<fhe::BatchItem> items;
      for (auto& p : polys) items.push_back({&p, params.get(), false});
      backends.front()->transform_batch_mixed(items);
      EXPECT_EQ(polys, expected);
    }

    service::Dispatcher::Config cfg;
    cfg.shards.clear();
    for (const auto& d : descriptors)
      cfg.shards.push_back({d.cost_scale, d.channels});
    cfg.queue_capacity_waves = kWaves;  // nothing pops: never block
    service::Dispatcher dispatcher(
        cfg, [&](std::size_t shard, std::vector<service::Request>& wave) {
          std::vector<fhe::BatchItem> items;
          for (auto& r : wave)
            items.push_back({&r.a, r.params.get(), r.inverse});
          return backends[shard]->estimate_wave_cycles(items);
        });
    Rng rng(29);
    Replay result;
    for (std::size_t w = 0; w < kWaves; ++w) {
      const auto& params = (w % 2 == 0) ? bulk : small;
      std::vector<service::Request> wave(kBanks);
      for (auto& r : wave) {
        r.a = rng.residues(params->n(), params->q());
        r.params = params;
      }
      const std::size_t shard = dispatcher.dispatch(std::move(wave)).shard;
      if (descriptors[shard].kind == service::BackendKind::kCpu)
        ++result.cpu_waves;
    }
    for (std::size_t s = 0; s < descriptors.size(); ++s)
      result.makespan = std::max(
          result.makespan, dispatcher.backlog_snapshot(s).total_cycles);
    return result;
  };

  const Replay pim_only = replay(false);
  const Replay mixed = replay(true);
  EXPECT_EQ(pim_only.cpu_waves, 0u);
  EXPECT_GT(mixed.cpu_waves, 0u);
  EXPECT_LT(mixed.makespan, pim_only.makespan);
}

// Property: a bulk wave filling every bank is bus-bound, so splitting the
// same 16 banks across 4 command buses at least halves the modeled
// makespan of one 16-item N = 1024 engine pass (52921 vs 24557 cycles),
// with bit-identical outputs.
TEST(ServiceProperty, FourBusesHalveBulkPassMakespan) {
  constexpr std::size_t kBanks = 16;
  const auto params = make_params(1024, 29);
  const auto makespan = [&](std::size_t channels) {
    fhe::PimBackend pim(4, 1200.0, dram::hbm2e_geometry(kBanks, channels));
    Rng rng(43);
    fhe::CpuBackend cpu;
    std::vector<std::vector<std::uint32_t>> polys;
    std::vector<std::vector<std::uint32_t>> expected;
    for (std::size_t i = 0; i < kBanks; ++i) {
      polys.push_back(rng.residues(params->n(), params->q()));
      expected.push_back(polys.back());
      cpu.forward(expected.back(), *params);
    }
    std::vector<fhe::BatchItem> items;
    for (auto& p : polys) items.push_back({&p, params.get(), false});
    pim.transform_batch_mixed(items);
    EXPECT_EQ(polys, expected) << channels << " channel(s)";
    EXPECT_EQ(pim.engine_passes(), 1u);
    return pim.total_cycles();
  };

  const std::uint64_t one_bus = makespan(1);
  const std::uint64_t four_buses = makespan(4);
  EXPECT_GT(four_buses, 0u);
  EXPECT_GE(one_bus, 2 * four_buses);
}

// Property: the wave-former never loses, duplicates, or fabricates a
// request under concurrent producers and consumers, and every wave
// respects the size cap.
TEST(ServiceProperty, WaveFormerConservesRequestsUnderConcurrency) {
  service::WaveFormer::Config cfg;
  cfg.capacity_items = 64;
  cfg.max_wave_items = 8;
  cfg.flush_window = std::chrono::microseconds(50);
  service::WaveFormer former(cfg);

  constexpr std::size_t kProducers = 4;
  constexpr std::size_t kPerProducer = 64;
  std::atomic<std::uint64_t> consumed{0};
  std::atomic<std::uint64_t> oversized_waves{0};
  std::vector<std::uint8_t> seen(kProducers * kPerProducer, 0);
  sync::Mutex seen_mu;

  std::vector<std::thread> consumers;
  for (int c = 0; c < 2; ++c) {
    consumers.emplace_back([&] {
      for (;;) {
        auto wave = former.next_wave();
        if (wave.empty()) return;
        if (wave.size() > cfg.max_wave_items) oversized_waves.fetch_add(1, std::memory_order_relaxed);
        const sync::MutexLock lk(seen_mu);
        for (auto& r : wave) {
          ++seen[r.a[0]];
          r.promise.set_value({});
          consumed.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  std::vector<std::thread> producers;
  for (std::size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (std::size_t i = 0; i < kPerProducer; ++i) {
        service::Request r;
        r.kind = service::Request::Kind::kTransform;
        // Tag each request with a unique id in a[0] (never executed).
        r.a = {static_cast<std::uint32_t>(p * kPerProducer + i)};
        auto f = r.promise.get_future();
        ASSERT_EQ(former.submit(std::move(r)),
                  service::WaveFormer::SubmitResult::kAccepted);
        f.get();  // closed loop keeps the bounded queue honest
      }
    });
  }
  for (auto& t : producers) t.join();
  former.close();
  for (auto& t : consumers) t.join();

  EXPECT_EQ(consumed.load(std::memory_order_relaxed), kProducers * kPerProducer);
  EXPECT_EQ(oversized_waves.load(std::memory_order_relaxed), 0u);
  for (const auto count : seen) EXPECT_EQ(count, 1);
}

// Heterogeneous serving E2E: a mixed PIM + CPU tier under multi-threaded
// load must be bit-identical to the sequential CPU reference, whichever
// backend each wave landed on (transforms are exact integer arithmetic —
// backends are interchangeable by construction, and this is the test).
TEST(ServiceE2E, MixedBackendShardsMatchCpuReference) {
  const auto p256 = make_params(256);
  const auto p1024 = make_params(1024, 29);

  ServiceConfig cfg;
  cfg.backend.banks_per_shard = 4;  // wave sizing
  cfg.backend.descriptors = {service::make_pim_descriptor(4),
                             service::make_cpu_descriptor(2)};
  cfg.former.flush_window = std::chrono::microseconds(200);
  NttService svc(cfg);
  ASSERT_EQ(svc.shards(), 2u);

  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kRequests = 8;
  std::atomic<std::uint64_t> mismatches{0};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(9000 + t);
      fhe::CpuBackend cpu;
      for (std::size_t r = 0; r < kRequests; ++r) {
        const auto& params = (r % 2 == 0) ? p256 : p1024;
        if (r % 4 == 3) {
          auto a = rng.residues(params->n(), params->q());
          auto b = rng.residues(params->n(), params->q());
          auto fa = a;
          auto fb = b;
          cpu.forward(fa, *params);
          cpu.forward(fb, *params);
          auto expected = ntt::pointwise_mul(fa, fb, params->q());
          cpu.inverse(expected, *params);
          if (svc.submit_multiply(std::move(a), std::move(b), params).get() !=
              expected)
            mismatches.fetch_add(1, std::memory_order_relaxed);
        } else {
          const bool inverse = r % 3 == 0;
          auto poly = rng.residues(params->n(), params->q());
          auto expected = poly;
          if (inverse)
            cpu.inverse(expected, *params);
          else
            cpu.forward(expected, *params);
          if (svc.submit(std::move(poly), params, inv(inverse)).get() !=
              expected)
            mismatches.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  svc.drain();

  EXPECT_EQ(mismatches.load(std::memory_order_relaxed), 0u);
  const auto stats = svc.stats();
  EXPECT_EQ(stats.completed, kThreads * kRequests);
  EXPECT_EQ(stats.failed, 0u);
  ASSERT_EQ(stats.shards.size(), 2u);
  EXPECT_EQ(stats.shards[0].kind, service::BackendKind::kPim);
  EXPECT_EQ(stats.shards[1].kind, service::BackendKind::kCpu);
  // Which backend ran what is load-dependent; conservation is not.
  EXPECT_EQ(stats.shards[0].requests + stats.shards[1].requests,
            kThreads * kRequests);
}

// Property: exactly-once completion holds across *mixed* backend shards
// with stealing enabled — a wave stolen across the PIM/CPU boundary is
// still delivered once, and the shard request counts conserve the total.
TEST(ServiceProperty, HeteroStealingConservesRequests) {
  const auto cheap = make_params(256);
  const auto costly = make_params(1024, 29);

  ServiceConfig cfg;
  cfg.backend.banks_per_shard = 4;
  cfg.backend.descriptors = {service::make_pim_descriptor(4),
                             service::make_cpu_descriptor(2)};
  cfg.former.flush_window = hour();
  cfg.former.start_paused = true;
  cfg.dispatch.shard_queue_waves = 2;
  NttService svc(cfg);

  constexpr std::size_t kWaves = 6;
  constexpr std::size_t kTotal = kWaves * 4;
  Rng rng(53);
  std::vector<std::atomic<int>> delivered(kTotal);
  std::latch done(kTotal);
  for (std::size_t w = 0; w < kWaves; ++w) {
    const auto& params = (w % 2 == 0) ? costly : cheap;
    for (std::size_t i = 0; i < 4; ++i) {
      const std::size_t id = w * 4 + i;
      svc.submit(rng.residues(params->n(), params->q()), params, inv(false),
                 [&, id](std::vector<std::uint32_t>&& result,
                         std::exception_ptr error) {
                   if (!error && !result.empty()) delivered[id].fetch_add(1, std::memory_order_relaxed);
                   done.count_down();
                 });
    }
  }
  svc.resume();
  done.wait();
  svc.drain();

  for (std::size_t id = 0; id < kTotal; ++id)
    EXPECT_EQ(delivered[id].load(std::memory_order_relaxed), 1) << "request " << id;
  const auto stats = svc.stats();
  EXPECT_EQ(stats.completed, kTotal);
  EXPECT_EQ(stats.failed, 0u);
  std::uint64_t requests = 0;
  for (const auto& shard : stats.shards) {
    requests += shard.requests;
    EXPECT_EQ(shard.estimated_backlog_cycles, 0u);
  }
  EXPECT_EQ(requests, kTotal);
}

// QoS class fields are accepted on a single-class (num_classes = 1)
// service: priority and deadline order the request's forming and dispatch,
// and the result is the same transform.
TEST(ServiceUnit, SubmitOptionsQosFieldsAreAccepted) {
  const auto params = make_params(256);
  ServiceConfig cfg;
  cfg.backend.banks_per_shard = 4;
  NttService svc(cfg);

  Rng rng(61);
  auto poly = rng.residues(params->n(), params->q());
  auto expected = poly;
  fhe::CpuBackend cpu;
  cpu.forward(expected, *params);

  service::SubmitOptions options;
  options.qos.priority = 7;
  options.qos.deadline = service::ServiceClock::now() + std::chrono::seconds(1);
  EXPECT_EQ(svc.submit(std::move(poly), params, options).get(), expected);
}

// Regression: admission is engaged whenever qos.admission is non-empty —
// a single-class service with one bucket sheds past its burst instead of
// silently ignoring the bucket.
TEST(ServiceE2E, SingleClassServiceHonorsAdmissionBucket) {
  const auto params = make_params(256);
  ServiceConfig cfg;
  cfg.backend.banks_per_shard = 4;
  cfg.qos.admission = {{.rate_per_sec = 0.0, .burst = 2.0}};
  NttService svc(cfg);

  Rng rng(73);
  std::vector<std::future<std::vector<std::uint32_t>>> futures;
  for (int i = 0; i < 5; ++i)
    futures.push_back(svc.submit(rng.residues(params->n(), params->q()),
                                 params));
  for (int i = 0; i < 5; ++i) {
    if (i < 2)
      EXPECT_NO_THROW(futures[i].get());
    else
      EXPECT_THROW(futures[i].get(), service::AdmissionShedError);
  }
  svc.drain();
  const auto stats = svc.stats();
  EXPECT_EQ(stats.shed, 3u);
  EXPECT_EQ(stats.completed, 2u);
  ASSERT_EQ(stats.classes.size(), 1u);
  EXPECT_EQ(stats.classes[0].shed, 3u);
}

// End-to-end QoS: a flooding tenant with a hard admission cap (rate 0,
// burst 2) is shed deterministically past its burst — failing with
// AdmissionShedError before costing queue capacity — while the
// unconfigured tenant 1 rides through unlimited; per-class stats split
// the counters and deadline misses are charged to the class that missed.
TEST(ServiceE2E, QosShedsFloodingTenantAndCountsDeadlineMisses) {
  const auto params = make_params(256);
  ServiceConfig cfg;
  cfg.backend.banks_per_shard = 4;
  cfg.qos.num_classes = 2;
  cfg.qos.admission = {{.rate_per_sec = 0.0, .burst = 2.0}};  // tenant 0 only
  NttService svc(cfg);

  Rng rng(67);
  fhe::CpuBackend cpu;
  auto make_request = [&] {
    auto poly = rng.residues(params->n(), params->q());
    auto expected = poly;
    cpu.forward(expected, *params);
    return std::pair{std::move(poly), std::move(expected)};
  };

  // Tenant 0 floods: with rate 0 the bucket never refills, so exactly the
  // first `burst` requests land and the rest shed — deterministically.
  service::SubmitOptions bulk;
  bulk.qos.tenant = 0;
  std::vector<std::future<std::vector<std::uint32_t>>> accepted;
  std::vector<std::vector<std::uint32_t>> expected;
  for (int i = 0; i < 4; ++i) {
    auto [poly, want] = make_request();
    auto f = svc.submit(std::move(poly), params, bulk);
    if (i < 2) {
      accepted.push_back(std::move(f));
      expected.push_back(std::move(want));
    } else {
      EXPECT_THROW(f.get(), service::AdmissionShedError);
    }
  }

  // Tenant 1 is past the admission vector: unlimited, but its deadline is
  // already gone, so every completion counts a miss.
  service::SubmitOptions critical;
  critical.qos.tenant = 1;
  critical.qos.priority = 1;
  critical.qos.deadline =
      service::ServiceClock::now() - std::chrono::milliseconds(1);
  for (int i = 0; i < 3; ++i) {
    auto [poly, want] = make_request();
    accepted.push_back(svc.submit(std::move(poly), params, critical));
    expected.push_back(std::move(want));
  }

  for (std::size_t i = 0; i < accepted.size(); ++i)
    EXPECT_EQ(accepted[i].get(), expected[i]);
  svc.drain();

  const auto stats = svc.stats();
  ASSERT_EQ(stats.classes.size(), 2u);
  EXPECT_EQ(stats.classes[0].submitted, 4u);
  EXPECT_EQ(stats.classes[0].shed, 2u);
  EXPECT_EQ(stats.classes[0].completed, 2u);
  EXPECT_EQ(stats.classes[0].deadline_misses, 0u);
  EXPECT_EQ(stats.classes[1].submitted, 3u);
  EXPECT_EQ(stats.classes[1].shed, 0u);
  EXPECT_EQ(stats.classes[1].completed, 3u);
  EXPECT_EQ(stats.classes[1].deadline_misses, 3u);
  EXPECT_EQ(stats.classes[1].service_latency.count, 3u);
  EXPECT_EQ(stats.shed, 2u);
  EXPECT_EQ(stats.deadline_misses, 3u);
  EXPECT_EQ(stats.completed, 5u);
  EXPECT_EQ(stats.rejected, 0u);  // shedding is not backpressure
  std::uint64_t shard_misses = 0;
  for (const auto& shard : stats.shards)
    shard_misses += shard.deadline_missed_requests;
  EXPECT_EQ(shard_misses, 3u);
  expect_tiles(stats);
}

// ------------------------------------------------------ fault injection

namespace fault_test {

/// When a FaultyBackend misbehaves. Passes count from 1; 0 means never.
struct Faults {
  std::size_t throw_on_pass = 0;
  /// On this pass the backend counts `parked` down, then waits for
  /// `release` before running it.
  std::size_t park_on_pass = 0;
  std::latch* parked = nullptr;
  std::latch* release = nullptr;
};

/// Test double for the fault paths: the base class's reference path (the
/// CPU kernels, item by item), except that one pass can throw and one can
/// park on a latch, so the tests need no sleeps.
class FaultyBackend final : public fhe::NttBackend {
 public:
  explicit FaultyBackend(const Faults& faults) : faults_(faults) {}

  void forward(std::vector<std::uint32_t>& a,
               const ntt::NttParams& params) override {
    ntt::forward_negacyclic_ntt(a, params);
  }
  void inverse(std::vector<std::uint32_t>& a,
               const ntt::NttParams& params) override {
    ntt::inverse_negacyclic_ntt(a, params);
  }
  void transform_batch_mixed(std::span<const fhe::BatchItem> items) override {
    ++passes_;
    if (passes_ == faults_.park_on_pass) {
      faults_.parked->count_down();
      faults_.release->wait();
    }
    if (passes_ == faults_.throw_on_pass)
      throw std::runtime_error("injected pass failure");
    NttBackend::transform_batch_mixed(items);
  }

 private:
  const Faults faults_;
  std::size_t passes_ = 0;
};

/// A one-shard service on a FaultyBackend. Waves are 4 requests, cut only
/// by size.
ServiceConfig faulty_config(const Faults& faults) {
  ServiceConfig cfg;
  cfg.backend.banks_per_shard = 4;
  cfg.former.flush_window = hour();
  service::BackendDescriptor faulty;
  faulty.kind = service::BackendKind::kCpu;
  faulty.label = "faulty";
  faulty.factory = [faults] { return std::make_unique<FaultyBackend>(faults); };
  cfg.backend.descriptors = {faulty};
  return cfg;
}

}  // namespace fault_test

// A pass that throws fails every rider of its group exactly once: each
// future throws, each rider books `failed` and nothing else (no latency or
// stage sample), and the shard goes on to serve the next wave correctly.
TEST(ServiceFault, FailedPassBooksEveryRiderFailedOnce) {
  const auto params = make_params(256);
  NttService svc(fault_test::faulty_config({.throw_on_pass = 1}));

  Rng rng(83);
  for (auto& f : submit_wave(svc, params, rng))
    EXPECT_THROW(f.get(), std::runtime_error);
  svc.drain();
  auto stats = svc.stats();
  expect_tiles(stats);
  EXPECT_EQ(stats.failed, 4u);
  EXPECT_EQ(stats.completed, 0u);
  EXPECT_EQ(stats.pending, 0u);
  EXPECT_EQ(stats.classes[0].failed, 4u);
  EXPECT_EQ(stats.classes[0].queue_latency.count, 0u);
  EXPECT_EQ(stats.classes[0].service_latency.count, 0u);
  EXPECT_EQ(stats.classes[0].stages.count, 0u);
  EXPECT_EQ(stats.shards[0].requests, 4u);

  fhe::CpuBackend cpu;
  std::vector<std::future<std::vector<std::uint32_t>>> served;
  std::vector<std::vector<std::uint32_t>> expected;
  for (int i = 0; i < 4; ++i) {
    auto poly = rng.residues(params->n(), params->q());
    expected.push_back(poly);
    cpu.forward(expected.back(), *params);
    served.push_back(svc.submit(std::move(poly), params));
  }
  for (int i = 0; i < 4; ++i) EXPECT_EQ(served[i].get(), expected[i]);
  svc.drain();
  stats = svc.stats();
  expect_tiles(stats);
  EXPECT_EQ(stats.completed, 4u);
  EXPECT_EQ(stats.failed, 4u);
  EXPECT_EQ(stats.classes[0].service_latency.count, 4u);
}

// A snapshot taken while a wave's pass is parked mid-execution tiles: its
// riders are pending, with no latency sample booked ahead of their
// completion.
TEST(ServiceFault, SnapshotDuringPassIsCoherent) {
  const auto params = make_params(256);
  std::latch parked(1);
  std::latch release(1);  // both outlive the service's worker
  NttService svc(fault_test::faulty_config(
      {.park_on_pass = 1, .parked = &parked, .release = &release}));

  Rng rng(89);
  auto futures = submit_wave(svc, params, rng);
  parked.wait();  // the shard is inside the pass
  const auto during = svc.stats();
  release.count_down();
  expect_tiles(during);
  EXPECT_EQ(during.submitted, 4u);
  EXPECT_EQ(during.pending, 4u);
  EXPECT_EQ(during.completed, 0u);
  EXPECT_EQ(during.classes[0].queue_latency.count, 0u);

  for (auto& f : futures) EXPECT_NO_THROW(f.get());
  svc.drain();
  const auto after = svc.stats();
  expect_tiles(after);
  EXPECT_EQ(after.completed, 4u);
  EXPECT_EQ(after.pending, 0u);
}

// A shard whose backend fails to construct fails the service constructor:
// the error reaches the caller once the healthy shard is joined, instead
// of hanging the readiness barrier.
TEST(ServiceFault, ThrowingFactoryFailsConstruction) {
  ServiceConfig cfg;
  cfg.backend.banks_per_shard = 4;
  service::BackendDescriptor broken;
  broken.label = "broken";
  broken.factory = []() -> std::unique_ptr<fhe::NttBackend> {
    throw std::runtime_error("injected construction failure");
  };
  cfg.backend.descriptors = {service::make_pim_descriptor(4), broken};
  EXPECT_THROW(NttService{cfg}, std::runtime_error);
}

}  // namespace
