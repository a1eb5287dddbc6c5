// Wave-forming coalescer: the bounded request queue of the serving runtime.
//
// Producers (client threads inside NttService::submit) push Requests into a
// bounded queue; consumers (shard workers) pop *waves* — groups of requests
// sized for one bank-parallel engine pass. Each consumer passes its own
// wave cap, and a wave is due when either
//  - the pending pile reaches that cap (NttService passes a multiple of
//    the shard device's bank count, so a full wave occupies every bank),
//    or
//  - the oldest pending request has waited flush_window (latency bound:
//    coalescing trades queueing delay for occupancy, and the window caps
//    the delay a sparse load pays),
// whichever comes first. Consumers pull independently, so S shards drain
// the queue in parallel and the wave former is the load balancer: a shard
// takes a wave only once it is free to run it.
//
// Time is a parameter of the decision: cut_if_due(now, cap) judges the
// rule at an explicit instant and never blocks, so tests drive it at exact
// times on one thread. next_wave(cap) is the blocking form the shards use:
// a wait loop over the same rule on the real clock.
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
// but no wave is cut. This is how tests stage a deterministic backlog
// (guaranteeing occupancy > 1 without sleep-based races) and how an
// operator can stage work before opening the valve.
//
// close() stops new submissions (blocked producers wake and see kClosed),
// un-pauses, and makes every pending request due at once, so consumers
// drain everything already accepted — the graceful-shutdown half of
// NttService::shutdown(). Once the queue is empty, next_wave() returns an
// empty vector, the consumers' exit signal.
#pragma once

#include <chrono>
#include <cstddef>
#include <deque>
#include <vector>

#include "service/request.h"
#include "sync/mutex.h"

namespace nttpim::service {

class WaveFormer {
 public:
  struct Config {
    std::size_t capacity_items = 1024;   ///< queue bound, in batch items
    std::chrono::microseconds flush_window{200};  ///< flush deadline
    OverflowPolicy overflow = OverflowPolicy::kBlock;
    bool start_paused = false;
  };

  enum class SubmitResult { kAccepted, kRejected, kClosed };

  /// Out-parameters of an accepted submit. The former stamps seq and the
  /// enqueue time (ServiceClock::now(), read under its lock) *after* the
  /// request is moved in, so a caller that wants them back (telemetry
  /// emits the Submit / FormerEnqueue events from the client thread;
  /// tests derive cut times from the stamp) receives them here. Only
  /// meaningful when submit() returned kAccepted.
  struct SubmitInfo {
    std::uint64_t seq = 0;
    ServiceClock::time_point enqueued{};
  };

  explicit WaveFormer(const Config& config);

  /// Enqueue one request. `request` is moved from only on kAccepted; on
  /// kRejected/kClosed the caller still owns it (and fails its promise).
  /// kBlock blocks until space or close(); kReject never blocks.
  SubmitResult submit(Request&& request, SubmitInfo* info = nullptr);

  /// Cut a wave of at most `max_items` batch items (a lone multiply may
  /// exceed a cap of 1) if one is due at `now`: the pile reached the cap,
  /// `now` reached the flush instant, or the former is closed. Returns an
  /// empty vector when nothing is due or pending, or while paused and not
  /// closed. Never blocks; stamps the wave's cut_at = `now`.
  std::vector<Request> cut_if_due(ServiceClock::time_point now,
                                  std::size_t max_items);

  /// Block until a wave of at most `max_items` batch items is due on the
  /// real clock and return it. Returns an empty vector only when the
  /// former is closed and drained. Safe to call from many consumer
  /// threads, each with its own cap.
  std::vector<Request> next_wave(std::size_t max_items);

  void pause();
  void resume();
  void close();

 private:
  /// Earliest flush instant of the current backlog: the oldest pending
  /// request's window expiry, tightened by the earliest pending deadline.
  /// Caller holds mu_; queue_ must be non-empty.
  ServiceClock::time_point flush_deadline() const NTTPIM_REQUIRES(mu_);

  /// The cut rule, shared by both entry points: is a wave of at most
  /// `max_items` due at `now`? Caller holds mu_.
  bool due(ServiceClock::time_point now, std::size_t max_items) const
      NTTPIM_REQUIRES(mu_);

  /// Cut one wave of at most `max_items` batch items — a prefix of
  /// queue_ — off the backlog at `now`, and wake blocked producers.
  /// Caller holds mu_; queue_ must be non-empty.
  std::vector<Request> cut_wave(ServiceClock::time_point now,
                                std::size_t max_items) NTTPIM_REQUIRES(mu_);

  const Config cfg_;
  sync::Mutex mu_;
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
