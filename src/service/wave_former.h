// Wave-forming coalescer: the bounded request queue of the serving runtime.
//
// Producers (client threads inside NttService::submit) push Requests into a
// bounded queue; consumers (shard workers) pop *waves* — groups of requests
// sized for one bank-parallel engine pass. A wave flushes when either
//  - the pending pile reaches max_wave_items (NttService sets this to a
//    multiple of the shard device's num_banks(), so a full wave occupies
//    every bank), or
//  - the oldest pending request has waited flush_window (latency bound:
//    coalescing trades queueing delay for occupancy, and the window caps
//    the delay a sparse load pays),
// whichever comes first. Consumers pull independently, so S shards drain
// the queue in parallel and the wave former doubles as the load balancer —
// an idle shard simply grabs the next wave.
//
// QoS: the pending queue is kept in cut order — earliest effective
// deadline first, then priority descending, then arrival — and every wave
// is a prefix of it, so deadlined and prioritized requests are cut ahead
// of bulk that arrived earlier. A pending *deadline* also tightens the
// flush: the former flushes no later than the earliest pending deadline,
// so a latency-critical request never sits out the coalescing window
// behind bulk traffic. Classless requests (no deadline, priority 0) carry
// an effective deadline of +inf and identical priority, so each one
// appends at the back and a classless stream cuts exact FIFO waves.
//
// Capacity is measured in *batch items* (a multiply counts 2), matching
// what bounds device rows and engine-pass size. When full, submit() either
// blocks or rejects per OverflowPolicy — the service's backpressure.
//
// pause()/resume() gate consumers only: while paused, submissions pile up
// but no wave starts forming. This is how tests stage a deterministic
// backlog (guaranteeing occupancy > 1 without sleep-based races) and how
// an operator can stage work before opening the valve.
//
// close() stops new submissions (blocked producers wake and see kClosed),
// un-pauses, and lets consumers drain everything already accepted — the
// graceful-shutdown half of NttService::shutdown(). Once the queue is
// empty, next_wave() returns an empty vector, the consumers' exit signal.
#pragma once

#include <chrono>
#include <cstddef>
#include <deque>
#include <functional>
#include <vector>

#include "service/request.h"
#include "sync/mutex.h"

namespace nttpim::service {

class WaveFormer {
 public:
  struct Config {
    std::size_t capacity_items = 1024;   ///< queue bound, in batch items
    std::size_t max_wave_items = 8;      ///< flush size, in batch items
    std::chrono::microseconds flush_window{200};  ///< flush deadline
    OverflowPolicy overflow = OverflowPolicy::kBlock;
    bool start_paused = false;
    /// Testing hook: when set, enqueue timestamps and flush-window
    /// deadlines are read through this function instead of
    /// ServiceClock::now(), and deadline waits become plain condition
    /// waits — advance the fake time, then call tick() so parked
    /// consumers re-read it. Null (the default) means the real clock.
    std::function<ServiceClock::time_point()> clock;
  };

  enum class SubmitResult { kAccepted, kRejected, kClosed };

  /// Out-parameters of an accepted submit. The former stamps seq and the
  /// enqueue time under its lock *after* the request is moved in, so a
  /// caller that wants them back (telemetry emits the Submit /
  /// FormerEnqueue events from the client thread) receives them here.
  /// Only meaningful when submit() returned kAccepted.
  struct SubmitInfo {
    std::uint64_t seq = 0;
    ServiceClock::time_point enqueued{};
  };

  explicit WaveFormer(const Config& config);

  /// Enqueue one request. `request` is moved from only on kAccepted; on
  /// kRejected/kClosed the caller still owns it (and fails its promise).
  /// kBlock blocks until space or close(); kReject never blocks.
  SubmitResult submit(Request&& request, SubmitInfo* info = nullptr);

  /// Block until a wave is ready per the flush policy and return it.
  /// Returns an empty vector only when the former is closed and drained.
  /// Safe to call from many consumer threads.
  std::vector<Request> next_wave();

  void pause();
  void resume();
  void close();

  /// Companion of Config::clock: wake every parked consumer so it
  /// re-evaluates the (fake) time. A real clock needs no tick — the
  /// deadline wait expires on its own.
  void tick();

  std::size_t pending_items() const;
  bool closed() const;

 private:
  ServiceClock::time_point now() const {
    return cfg_.clock ? cfg_.clock() : ServiceClock::now();
  }

  /// Earliest flush instant of the current backlog: the oldest pending
  /// request's window expiry, tightened by the earliest pending deadline.
  /// Caller holds mu_; queue_ must be non-empty.
  ServiceClock::time_point flush_deadline() const NTTPIM_REQUIRES(mu_);

  /// Cut one wave — a prefix of queue_ — off the backlog, updating
  /// pending_items_. Caller holds mu_; queue_ must be non-empty.
  std::vector<Request> cut_wave() NTTPIM_REQUIRES(mu_);

  const Config cfg_;
  mutable sync::Mutex mu_;
  sync::CondVar ready_cv_;  ///< consumers: work / flush / close
  sync::CondVar space_cv_;  ///< blocked producers
  /// Pending requests in cut order (see the header comment).
  std::deque<Request> queue_ NTTPIM_GUARDED_BY(mu_);
  /// Enqueue stamps from the oldest pending request on, indexed by
  /// seq - arrivals_base_; `cut` marks requests already taken. queue_ is
  /// in cut order, so this is what finds the oldest pending request — the
  /// flush window's anchor.
  struct Arrival {
    ServiceClock::time_point enqueued;
    bool cut = false;
  };
  std::deque<Arrival> arrivals_ NTTPIM_GUARDED_BY(mu_);
  std::uint64_t arrivals_base_ NTTPIM_GUARDED_BY(mu_) = 0;
  std::size_t pending_items_ NTTPIM_GUARDED_BY(mu_) = 0;
  /// Arrival stamp (see Request::seq).
  std::uint64_t next_seq_ NTTPIM_GUARDED_BY(mu_) = 0;
  /// Cut stamp (see Request::wave_id).
  std::uint64_t next_wave_id_ NTTPIM_GUARDED_BY(mu_) = 1;
  bool paused_ NTTPIM_GUARDED_BY(mu_) = false;
  bool closed_ NTTPIM_GUARDED_BY(mu_) = false;
};

}  // namespace nttpim::service
