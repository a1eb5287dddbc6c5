// Deterministic concurrency tests of the async NTT serving runtime.
//
// Every test is sleep-free: synchronization is futures, drain(), and the
// pause()/resume() staging hook (submit a backlog while wave forming is
// gated, then open the valve), and the former and admission decide at
// explicit times on the test's own thread, so occupancy, ordering and
// backpressure assertions are exact rather than timing-dependent.
#include <algorithm>
#include <atomic>
#include <future>
#include <latch>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "fhe/cpu_backend.h"
#include "fhe/pim_backend.h"
#include "json_validator.h"
#include "ntt/negacyclic.h"
#include "ntt/params.h"
#include "ntt/poly.h"
#include "service/admission.h"
#include "service/ntt_service.h"
#include "service/wave_former.h"
#include "sync/mutex.h"
#include "telemetry/chrome_trace.h"

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
// global request and callback-error counters are the class sums and
// submitted == completed + failed + rejected + shed + pending; the shards
// ran exactly the completed and failed requests, and (shards pull) none
// stole or rebalanced a wave.
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
    sum.callback_errors += c.callback_errors;
  }
  EXPECT_EQ(s.submitted, sum.submitted);
  EXPECT_EQ(s.completed, sum.completed);
  EXPECT_EQ(s.failed, sum.failed);
  EXPECT_EQ(s.rejected, sum.rejected);
  EXPECT_EQ(s.shed, sum.shed);
  EXPECT_EQ(s.deadline_misses, sum.deadline_misses);
  EXPECT_EQ(s.callback_errors, sum.callback_errors);
  EXPECT_EQ(s.submitted,
            s.completed + s.failed + s.rejected + s.shed + s.pending);
  std::uint64_t shard_requests = 0;
  for (const service::ShardStats& shard : s.shards) {
    shard_requests += shard.requests;
    EXPECT_EQ(shard.stolen_waves, 0u);
    EXPECT_EQ(shard.rebalanced_waves, 0u);
  }
  EXPECT_EQ(shard_requests, s.completed + s.failed);
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

// A throwing callback is swallowed and booked once, with its request's
// terminal state: one on a delivered request and one on a shed request
// give callback_errors == 2, and each request still settles exactly once.
TEST(ServiceUnit, ThrowingCallbacksAreCountedOnce) {
  const auto params = make_params(256);
  ServiceConfig cfg;
  cfg.backend.banks_per_shard = 4;
  cfg.qos.admission = {{.rate_per_sec = 0.0, .burst = 1.0}};
  NttService svc(cfg);

  Rng rng(107);
  const auto throwing = [](std::vector<std::uint32_t>&&, std::exception_ptr) {
    throw std::runtime_error("callback failure");
  };
  // The first takes the bucket's only token and is delivered by its
  // window flush; the second is shed.
  for (int i = 0; i < 2; ++i)
    svc.submit(rng.residues(params->n(), params->q()), params, inv(false),
               throwing);
  svc.drain();

  const auto stats = svc.stats();
  expect_tiles(stats);
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(stats.shed, 1u);
  EXPECT_EQ(stats.pending, 0u);
  EXPECT_EQ(stats.callback_errors, 2u);
  EXPECT_EQ(stats.classes[0].callback_errors, 2u);
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
  // A hand-built descriptor needs a channel to size its shard's waves.
  ServiceConfig no_channel;
  no_channel.backend.descriptors = {service::make_cpu_descriptor()};
  no_channel.backend.descriptors[0].channels = 0;
  EXPECT_THROW(NttService{no_channel}, std::invalid_argument);
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

// A shard books its own estimate of each wave it runs: one 4-request wave
// on a 2-lane CPU shard is two lanes of two N = 256 items at the default
// 6 cycles per point-stage.
TEST(ServiceUnit, ShardBooksItsOwnWaveEstimate) {
  const auto params = make_params(256);
  ServiceConfig cfg;
  cfg.backend.banks_per_shard = 4;
  cfg.backend.descriptors = {service::make_cpu_descriptor(2)};
  cfg.former.flush_window = hour();  // only the 4-item size flush cuts
  NttService svc(cfg);
  Rng rng(97);
  for (auto& f : submit_wave(svc, params, rng)) f.get();
  svc.drain();
  const auto stats = svc.stats();
  EXPECT_EQ(stats.waves, 1u);
  EXPECT_EQ(stats.shards.at(0).estimated_executed_cycles, 2u * 6 * 256 * 8);
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

namespace former_test {

using service::ServiceClock;
using Tags = std::vector<std::uint32_t>;

std::chrono::microseconds us(std::int64_t count) {
  return std::chrono::microseconds(count);
}

/// A former with room for 16 items and a 100 us flush window.
service::WaveFormer::Config config(bool start_paused = false) {
  return {.capacity_items = 16,
          .flush_window = us(100),
          .start_paused = start_paused};
}

/// Submits a request tagged `tag` (optionally deadlined and prioritized)
/// and returns the former's enqueue stamp: every cut time of the former
/// tests is derived from these stamps, so the tests run at exact times
/// on one thread.
ServiceClock::time_point submit(
    service::WaveFormer& former, std::uint32_t tag,
    std::optional<ServiceClock::time_point> deadline = {}, int priority = 0) {
  service::Request r;
  r.a = {tag};
  r.qos.deadline = deadline;
  r.qos.priority = priority;
  service::WaveFormer::SubmitInfo info;
  EXPECT_EQ(former.submit(std::move(r), &info),
            service::WaveFormer::SubmitResult::kAccepted);
  return info.enqueued;
}

/// The tags of a cut wave, in cut order.
Tags tags(const std::vector<service::Request>& wave) {
  Tags out;
  for (const service::Request& r : wave) out.push_back(r.a[0]);
  return out;
}

/// Spins on the clock (never sleeps) until it has passed `t`, so the next
/// enqueue stamp is strictly later than `t`.
void spin_past(ServiceClock::time_point t) {
  while (ServiceClock::now() <= t) {
  }
}

}  // namespace former_test

// Regression: the wave-former's timeout flush must be judged against the
// *current* front's deadline. Judging it against a front another
// consumer already took flushed fresh requests early, shrinking coalesced
// waves.
TEST(ServiceUnit, WaveFormerTimeoutUsesCurrentFrontDeadline) {
  using namespace former_test;
  service::WaveFormer former(config());

  // Front 0 flushes alone, but only once its own window has elapsed.
  const auto t0 = submit(former, 0);
  EXPECT_TRUE(former.cut_if_due(t0 + us(99), 2).empty());
  EXPECT_EQ(tags(former.cut_if_due(t0 + us(100), 2)), Tags{0});

  // Fresh front 1, enqueued after t0, is not due at the departed front's
  // deadline: request 2 completes the full wave instead.
  spin_past(t0);
  submit(former, 1);
  EXPECT_TRUE(former.cut_if_due(t0 + us(100), 2).empty());
  submit(former, 2);
  EXPECT_EQ(tags(former.cut_if_due(t0 + us(100), 2)), (Tags{1, 2}));
}

// EDF forming: with more pending than fits one wave, the cut takes
// requests by (deadline, priority desc, arrival), not arrival order; the
// deadline-less remainder flushes by the plain window.
TEST(ServiceUnit, WaveFormerEdfCutsByDeadlineThenPriorityThenArrival) {
  using namespace former_test;
  service::WaveFormer former(config());

  // Arrival order 0..4; urgency says otherwise: 3 (earliest deadline),
  // then 1 (later deadline), then 4 (no deadline but highest priority).
  const auto t0 = submit(former, 0);
  submit(former, 1, t0 + us(1000));
  submit(former, 2);
  submit(former, 3, t0 + us(500));
  submit(former, 4, std::nullopt, /*priority=*/7);

  // Five pending items fill a 3-item wave at once.
  EXPECT_EQ(tags(former.cut_if_due(t0, 3)), (Tags{3, 1, 4}));
  // Remainder {0, 2} has no deadline: it waits out request 0's full window
  // and flushes in arrival order.
  EXPECT_TRUE(former.cut_if_due(t0 + us(99), 3).empty());
  EXPECT_EQ(tags(former.cut_if_due(t0 + us(100), 3)), (Tags{0, 2}));
}

// EDF forming: a pending deadline earlier than the front's window expiry
// tightens the flush deadline, so a latency-critical request never waits
// out the coalescing window behind bulk traffic.
TEST(ServiceUnit, WaveFormerEdfDeadlineTightensFlushWindow) {
  using namespace former_test;
  service::WaveFormer former(config());

  const auto t0 = submit(former, 0);  // bulk, window expires at t0 + 100
  submit(former, 1, t0 + us(40));     // tightens the flush to t0 + 40

  // A 16-item wave never fills: only a flush can cut. One wave, EDF
  // order: the deadlined request leads.
  EXPECT_TRUE(former.cut_if_due(t0 + us(39), 16).empty());
  EXPECT_EQ(tags(former.cut_if_due(t0 + us(40), 16)), (Tags{1, 0}));
}

// The flush window is anchored on the oldest pending request, not on the
// front of the cut-ordered queue: a deadlined newcomer sorts ahead of an
// older classless request, yet the older request's window still bounds
// the flush — well before the newcomer's own window and deadline.
TEST(ServiceUnit, WaveFormerWindowAnchorsOnOldestPendingRequest) {
  using namespace former_test;
  service::WaveFormer former(config());

  const auto t0 = submit(former, 0);  // classless
  spin_past(t0);  // the newcomer's own window ends strictly later
  const auto t1 = submit(former, 1, t0 + us(1000));  // cut first
  ASSERT_GT(t1, t0);

  EXPECT_TRUE(former.cut_if_due(t0 + us(99), 16).empty());
  EXPECT_EQ(tags(former.cut_if_due(t0 + us(100), 16)), (Tags{1, 0}));
}

// The two gates the window does not decide: a paused former cuts nothing,
// even long after the window expired, and a closed one cuts at once,
// before it.
TEST(ServiceUnit, WaveFormerPauseHoldsAndCloseFlushes) {
  using namespace former_test;
  service::WaveFormer former(config(/*start_paused=*/true));

  const auto t0 = submit(former, 0);
  EXPECT_TRUE(former.cut_if_due(t0 + hour(), 16).empty());
  former.close();
  EXPECT_EQ(tags(former.cut_if_due(t0, 16)), Tags{0});
  EXPECT_TRUE(former.cut_if_due(t0 + hour(), 16).empty());  // drained
}

// Property: every wave the former cuts equals the selection of an oracle
// that stable-sorts the pending requests by (effective deadline, priority
// desc, arrival) and takes them until the next one would overflow the
// caller's cap. Seeded streams mix classless, deadlined and prioritized
// transforms and multiplies, submitted in bursts between cuts whose caps
// vary per call; an all-classless stream must cut exact FIFO waves.
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
      cfg.flush_window = std::chrono::microseconds(0);  // every call cuts
      service::WaveFormer former(cfg);

      std::vector<Pending> pending;
      std::uint32_t next_tag = 0;
      std::uint64_t fifo_tag = 0;
      auto cut_and_check = [&] {
        const std::size_t max_items = 1 + rng.next_below(8);
        auto wave = former.cut_if_due(service::ServiceClock::now(), max_items);
        std::vector<std::uint32_t> tags;
        for (const auto& r : wave) tags.push_back(r.a[0]);
        EXPECT_EQ(tags, oracle_cut(pending, max_items))
            << "seed " << seed << " classless " << classless;
        if (classless) {
          for (const std::uint32_t tag : tags) EXPECT_EQ(tag, fifo_tag++);
        }
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
      // Nothing left to cut: under a 0 us window anything pending is due.
      EXPECT_TRUE(
          former.cut_if_due(service::ServiceClock::now(), 1 << 12).empty());
    }
  }
}

// Token-bucket arithmetic to exact counts at explicit times: a fresh
// bucket admits its burst, refills continuously at rate_per_sec, rate 0
// never refills, burst <= 0 and unconfigured tenants are unlimited.
TEST(ServiceUnit, AdmissionTokenBucketRefillExactness) {
  using Decision = service::AdmissionController::Decision;
  const auto at_ms = [](std::int64_t ms) {
    return service::ServiceClock::time_point(std::chrono::milliseconds(ms));
  };
  service::AdmissionController adm({
      {.rate_per_sec = 2.0, .burst = 2.0},  // tenant 0: 2-deep, 2/sec
      {.rate_per_sec = 0.0, .burst = 3.0},  // tenant 1: hard cap of 3
      {.rate_per_sec = 5.0, .burst = 0.0},  // tenant 2: unlimited
  });

  // Tenant 0: the initial burst admits exactly 2, then sheds.
  EXPECT_EQ(adm.admit(0, at_ms(0)), Decision::kAdmit);
  EXPECT_EQ(adm.admit(0, at_ms(0)), Decision::kAdmit);
  EXPECT_EQ(adm.admit(0, at_ms(0)), Decision::kShed);

  // 500 ms at 2/sec refills exactly one token. 250 ms more refill only
  // half a token, a shed at 750 ms; the next 250 ms complete it.
  EXPECT_EQ(adm.admit(0, at_ms(500)), Decision::kAdmit);
  EXPECT_EQ(adm.admit(0, at_ms(500)), Decision::kShed);
  EXPECT_EQ(adm.admit(0, at_ms(750)), Decision::kShed);
  EXPECT_EQ(adm.admit(0, at_ms(1000)), Decision::kAdmit);
  // A long idle stretch refills to the burst cap, never beyond: exactly
  // 2 admits.
  EXPECT_EQ(adm.admit(0, at_ms(10000)), Decision::kAdmit);
  EXPECT_EQ(adm.admit(0, at_ms(10000)), Decision::kAdmit);
  EXPECT_EQ(adm.admit(0, at_ms(10000)), Decision::kShed);

  // Tenant 1: rate 0 is a deterministic lifetime cap of `burst`.
  for (int i = 0; i < 3; ++i)
    EXPECT_EQ(adm.admit(1, at_ms(0)), Decision::kAdmit);
  EXPECT_EQ(adm.admit(1, at_ms(0)), Decision::kShed);
  EXPECT_EQ(adm.admit(1, at_ms(20000)), Decision::kShed);

  // Tenant 2 (burst <= 0) and tenant 9 (unconfigured) always admit.
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(adm.admit(2, at_ms(0)), Decision::kAdmit);
    EXPECT_EQ(adm.admit(9, at_ms(0)), Decision::kAdmit);
  }
}

// A service on a multi-channel PIM shard serves bit-exact results and
// pulls whole-device waves: 8 requests on 4 banks in 2 channels cut into 2
// waves of 4, each one engine pass.
TEST(ServiceE2E, MultiChannelShardServesWholeDeviceWaves) {
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
  // One channel's bank set (4 banks / 2 channels = 2 items) per channel.
  EXPECT_EQ(stats.waves, 2u);
  EXPECT_EQ(stats.engine_passes, 2u);
  EXPECT_DOUBLE_EQ(stats.mean_wave_occupancy, 4.0);
  expect_tiles(stats);
}

// Property: under a skewed load — bursts of expensive and cheap waves
// staged behind a paused former — every accepted request completes
// exactly once, whichever shard pulls it.
TEST(ServiceProperty, PullConservesRequestsUnderSkewedLoad) {
  const auto cheap = make_params(256);
  const auto costly = make_params(1024, 29);

  ServiceConfig cfg;
  cfg.backend.shards = 2;
  cfg.backend.banks_per_shard = 4;
  cfg.former.flush_window = hour();
  cfg.former.start_paused = true;
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
  expect_tiles(stats);
}

// Property: shards that pull spread a skewed stream (24 staged four-item
// waves alternating N = 1024 and N = 256 on 2 shards) more evenly than
// blind round-robin. The baseline is a modeled replay of round-robin
// placement (wave w on shard w % 2, each shard a private backend from the
// service's own PIM descriptor): the alternation resonates with the
// rotation and lands every expensive wave on shard 0, 302244 of 342180
// modeled cycles (a 0.883 share). The live service's busiest-shard share
// must come in below it: a shard takes a wave only once it is free.
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

// Property: pulling alone routes part of a bulk (N = 1024) / small
// (N = 256) wave stream to a CPU pool and cuts the busiest backend's
// modeled makespan below PIM-only (5 of 24 waves to the CPU; 159744 vs
// 181584 cycles). The replay runs no worker, so nothing races the cycle
// simulator: it cuts the staged stream with a real WaveFormer, closed so
// that every cut is immediate, and at each step the shard whose modeled
// clock is lowest (ties to the first) pulls the next wave under its own
// cap and advances by its own estimate_wave_cycles.
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

    service::WaveFormer former(service::WaveFormer::Config{});
    Rng rng(29);
    for (std::size_t w = 0; w < kWaves; ++w) {
      const auto& params = (w % 2 == 0) ? bulk : small;
      for (std::size_t i = 0; i < kBanks; ++i) {
        service::Request r;
        r.a = rng.residues(params->n(), params->q());
        r.params = params;
        EXPECT_EQ(former.submit(std::move(r)),
                  service::WaveFormer::SubmitResult::kAccepted);
      }
    }
    former.close();
    std::vector<std::uint64_t> clock(backends.size(), 0);
    Replay result;
    for (;;) {
      const auto s = static_cast<std::size_t>(
          std::min_element(clock.begin(), clock.end()) - clock.begin());
      auto wave = former.next_wave(kBanks * descriptors[s].channels);
      if (wave.empty()) break;
      std::vector<fhe::BatchItem> items;
      for (auto& r : wave) items.push_back({&r.a, r.params.get(), r.inverse});
      clock[s] += backends[s]->estimate_wave_cycles(items);
      if (descriptors[s].kind == service::BackendKind::kCpu)
        ++result.cpu_waves;
    }
    result.makespan = *std::max_element(clock.begin(), clock.end());
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
// respects the cap of the consumer that pulled it (4 for one, 8 for the
// other).
TEST(ServiceProperty, WaveFormerConservesRequestsUnderConcurrency) {
  service::WaveFormer::Config cfg;
  cfg.capacity_items = 64;
  cfg.flush_window = std::chrono::microseconds(50);
  service::WaveFormer former(cfg);

  constexpr std::size_t kProducers = 4;
  constexpr std::size_t kPerProducer = 64;
  std::atomic<std::uint64_t> consumed{0};
  std::atomic<std::uint64_t> oversized_waves{0};
  std::vector<std::uint8_t> seen(kProducers * kPerProducer, 0);
  sync::Mutex seen_mu;

  std::vector<std::thread> consumers;
  for (const std::size_t max_items : {4u, 8u}) {
    consumers.emplace_back([&, max_items] {
      for (;;) {
        auto wave = former.next_wave(max_items);
        if (wave.empty()) return;
        if (wave.size() > max_items)
          oversized_waves.fetch_add(1, std::memory_order_relaxed);
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
// pulling one stream — whichever of the PIM and CPU shards takes a wave
// delivers it once, and the shard request counts conserve the total.
TEST(ServiceProperty, HeteroPullConservesRequests) {
  const auto cheap = make_params(256);
  const auto costly = make_params(1024, 29);

  ServiceConfig cfg;
  cfg.backend.banks_per_shard = 4;
  cfg.backend.descriptors = {service::make_pim_descriptor(4),
                             service::make_cpu_descriptor(2)};
  cfg.former.flush_window = hour();
  cfg.former.start_paused = true;
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
  expect_tiles(stats);
}

// QoS class fields are accepted on a single-class (num_classes = 1)
// service: priority and deadline order the request's forming, and the
// result is the same transform.
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

// Multi-tenant QoS, staged and exact. 64 bulk N = 1024 transforms
// (tenant 0) are staged ahead of 8 critical N = 256 transforms (tenant 1)
// on one paused 4-bank shard. A one-hour window lets only size cut waves,
// so the shard delivers the burst in cut order, and callbacks record it:
//  - "fifo": the critical requests carry no deadline or priority, so they
//    are the last 8 delivered;
//  - "qos": with a deadline and priority they are the first 8 delivered,
//    so class 1's service-latency p99 is below class 0's (each critical
//    request enters after every bulk one and finishes first). Tracing is
//    on, and the Chrome export parses strictly with exactly 72 flow
//    starts, 72 flow ends and 72 complete slices;
//  - "qos_overload": a rate-0 bucket of burst 32 on the bulk tenant sheds
//    exactly bulk submits 32..63, and the critical requests still come
//    first.
// Every delivered result matches the CPU reference.
TEST(ServiceE2E, QosCutsStagedCriticalTenantFirst) {
  constexpr std::size_t kBulk = 64;
  constexpr std::size_t kCritical = 8;
  constexpr std::size_t kTotal = kBulk + kCritical;
  const auto bulk_params = make_params(1024, 29);
  const auto critical_params = make_params(256, 30);
  const auto params_of = [&](std::size_t id) {
    return id < kBulk ? bulk_params : critical_params;
  };
  Rng rng(53);
  fhe::CpuBackend cpu;
  std::vector<std::vector<std::uint32_t>> inputs;
  std::vector<std::vector<std::uint32_t>> expected;
  for (std::size_t id = 0; id < kTotal; ++id) {
    inputs.push_back(rng.residues(params_of(id)->n(), params_of(id)->q()));
    expected.push_back(inputs.back());
    cpu.forward(expected.back(), *params_of(id));
  }
  const auto is_shed = [](const std::exception_ptr& error) {
    try {
      std::rethrow_exception(error);
    } catch (const service::AdmissionShedError&) {
      return true;
    } catch (...) {
      return false;
    }
  };

  struct Staged {
    std::vector<std::size_t> order;  ///< delivered stream ids, in order
    std::vector<std::size_t> shed;   ///< stream ids shed at admission
    std::size_t wrong_results = 0;   ///< mismatches or failures
    service::ServiceStats stats;
    std::string trace;  ///< Chrome export, when traced
  };
  const auto run = [&](bool qos, std::size_t bulk_burst, bool traced) {
    ServiceConfig cfg;
    cfg.backend.banks_per_shard = 4;
    cfg.former.flush_window = hour();
    cfg.former.start_paused = true;
    cfg.qos.num_classes = 2;
    if (bulk_burst > 0)
      cfg.qos.admission = {{.rate_per_sec = 0.0,
                            .burst = static_cast<double>(bulk_burst)}};
    cfg.telemetry.enabled = traced;
    NttService svc(cfg);

    Staged staged;
    sync::Mutex mu;
    std::latch settled(kTotal);
    service::SubmitOptions critical;
    critical.qos.tenant = 1;
    if (qos) {
      critical.qos.priority = 10;
      critical.qos.deadline = service::ServiceClock::now() + hour();
    }
    for (std::size_t id = 0; id < kTotal; ++id) {
      svc.submit(inputs[id], params_of(id),
                 id < kBulk ? service::SubmitOptions{} : critical,
                 [&, id](std::vector<std::uint32_t>&& result,
                         std::exception_ptr error) {
                   {
                     const sync::MutexLock lk(mu);
                     if (error && is_shed(error)) {
                       staged.shed.push_back(id);
                     } else {
                       staged.order.push_back(id);
                       if (error || result != expected[id])
                         ++staged.wrong_results;
                     }
                   }
                   settled.count_down();
                 });
    }
    svc.resume();
    settled.wait();
    svc.drain();  // the last wave's counters and trace events land
    staged.stats = svc.stats();
    if (traced) {
      const auto snap = svc.trace_collector().drain();
      EXPECT_EQ(snap.dropped_events, 0u);
      staged.trace = telemetry::chrome_trace_json(snap);
    }
    expect_tiles(staged.stats);
    EXPECT_EQ(staged.wrong_results, 0u);
    EXPECT_EQ(staged.stats.failed, 0u);
    return staged;
  };
  const auto ids = [](std::size_t from, std::size_t to) {
    std::vector<std::size_t> out;
    for (std::size_t id = from; id < to; ++id) out.push_back(id);
    return out;
  };
  const auto concat = [](std::vector<std::size_t> a,
                         const std::vector<std::size_t>& b) {
    a.insert(a.end(), b.begin(), b.end());
    return a;
  };

  const Staged fifo = run(/*qos=*/false, /*bulk_burst=*/0, /*traced=*/false);
  EXPECT_EQ(fifo.order, ids(0, kTotal));  // critical: the last 8
  EXPECT_TRUE(fifo.shed.empty());

  const Staged qos = run(/*qos=*/true, /*bulk_burst=*/0, /*traced=*/true);
  EXPECT_EQ(qos.order, concat(ids(kBulk, kTotal), ids(0, kBulk)));
  EXPECT_TRUE(qos.shed.empty());
  ASSERT_EQ(qos.stats.classes.size(), 2u);
  EXPECT_EQ(qos.stats.classes[1].service_latency.count, kCritical);
  EXPECT_LT(qos.stats.classes[1].service_latency.p99_us,
            qos.stats.classes[0].service_latency.p99_us);
  using test_json::count_occurrences;
  EXPECT_TRUE(test_json::JsonValidator::valid(qos.trace));
  EXPECT_EQ(count_occurrences(qos.trace, "\"ph\": \"s\""), kTotal);
  EXPECT_EQ(count_occurrences(qos.trace, "\"ph\": \"f\""), kTotal);
  EXPECT_EQ(count_occurrences(qos.trace, "\"name\": \"complete\""), kTotal);

  constexpr std::size_t kBulkBurst = 32;
  const Staged overload = run(/*qos=*/true, kBulkBurst, /*traced=*/false);
  EXPECT_EQ(overload.shed, ids(kBulkBurst, kBulk));
  EXPECT_EQ(overload.stats.shed, kBulk - kBulkBurst);
  EXPECT_EQ(overload.order, concat(ids(kBulk, kTotal), ids(0, kBulkBurst)));
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

/// A shard on a FaultyBackend.
service::BackendDescriptor faulty_descriptor(const Faults& faults) {
  service::BackendDescriptor faulty;
  faulty.kind = service::BackendKind::kCpu;
  faulty.label = "faulty";
  faulty.factory = [faults] { return std::make_unique<FaultyBackend>(faults); };
  return faulty;
}

/// A one-shard service on a FaultyBackend. Waves are 4 requests, cut only
/// by size.
ServiceConfig faulty_config(const Faults& faults) {
  ServiceConfig cfg;
  cfg.backend.banks_per_shard = 4;
  cfg.former.flush_window = hour();
  cfg.backend.descriptors = {faulty_descriptor(faults)};
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

// A failed wave still ends every rider's trace: one Fail event per rider
// (with its seq, wave and tenant) and no Complete, so the Chrome export
// ends exactly as many request flows as it starts.
TEST(ServiceFault, FailedWaveClosesEveryFlow) {
  const auto params = make_params(256);
  ServiceConfig cfg = fault_test::faulty_config({.throw_on_pass = 1});
  cfg.telemetry.enabled = true;
  NttService svc(cfg);

  Rng rng(101);
  for (auto& f : submit_wave(svc, params, rng))
    EXPECT_THROW(f.get(), std::runtime_error);
  svc.drain();
  const auto snap = svc.trace_collector().drain();
  ASSERT_EQ(snap.dropped_events, 0u);

  std::set<std::uint64_t> failed_seqs;
  std::size_t completes = 0;
  for (const auto& thread : snap.threads)
    for (const telemetry::TraceEvent& e : thread.events) {
      if (e.kind == telemetry::EventKind::kComplete) ++completes;
      if (e.kind != telemetry::EventKind::kFail) continue;
      EXPECT_TRUE(failed_seqs.insert(e.seq).second) << "seq " << e.seq;
      EXPECT_EQ(e.wave_id, 1u);
      EXPECT_EQ(e.tenant, 0u);
    }
  EXPECT_EQ(failed_seqs, (std::set<std::uint64_t>{0, 1, 2, 3}));
  EXPECT_EQ(completes, 0u);

  const std::string json = telemetry::chrome_trace_json(snap);
  EXPECT_EQ(test_json::count_occurrences(json, "\"ph\": \"s\""), 4u);
  EXPECT_EQ(test_json::count_occurrences(json, "\"ph\": \"f\""), 4u);
}

// The free shard takes the pending work. Both shards park inside their
// first wave, so the third staged wave waits in the former; releasing
// shard 1 alone lets it pull and finish that wave while shard 0 is still
// parked (were it assigned to shard 0, its futures would never resolve
// before shard 0's release below). Pulling never reads a shard's
// BackendKind, so a CPU shard beside a busy PIM shard takes waves the
// same way.
TEST(ServiceFault, FreeShardTakesPendingWave) {
  const auto params = make_params(256);
  std::latch parked0(1), release0(1), parked1(1), release1(1);
  ServiceConfig cfg = fault_test::faulty_config(
      {.park_on_pass = 1, .parked = &parked0, .release = &release0});
  cfg.backend.descriptors.push_back(fault_test::faulty_descriptor(
      {.park_on_pass = 1, .parked = &parked1, .release = &release1}));
  cfg.former.start_paused = true;
  NttService svc(cfg);

  Rng rng(103);
  std::vector<std::vector<std::future<std::vector<std::uint32_t>>>> waves;
  for (int w = 0; w < 3; ++w) waves.push_back(submit_wave(svc, params, rng));
  svc.resume();
  parked0.wait();
  parked1.wait();

  release1.count_down();
  for (auto& f : waves[2]) EXPECT_NO_THROW(f.get());
  release0.count_down();
  for (int w = 0; w < 2; ++w)
    for (auto& f : waves[w]) EXPECT_NO_THROW(f.get());
  svc.drain();

  const auto stats = svc.stats();
  expect_tiles(stats);
  EXPECT_EQ(stats.completed, 12u);
  EXPECT_EQ(stats.shards[0].requests, 4u);
  EXPECT_EQ(stats.shards[1].requests, 8u);
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
