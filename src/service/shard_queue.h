// Per-shard dispatch queue: bounded FIFOs of priced waves, one per
// channel of the shard's device.
//
// The dispatch layer (see dispatcher.h) holds one ShardQueue per shard,
// split into `channels` sub-queues — one per independent command bus of
// the shard's backend (see dram::DramGeometry::num_channels; CPU shards
// have one). Each entry is a formed wave plus the dispatcher's cycle
// estimate for it; every channel keeps two running cost sums the
// dispatcher's decisions read:
//  - queued_cycles: estimates of the waves sitting in the channel's deque
//    (what a thief can relieve a loaded channel of);
//  - executing_cycles: estimates of waves this shard's worker has popped
//    from the channel but not yet finished (committed work no steal can
//    move).
// Their per-channel sum, backlog_cycles(channel), is that channel's
// estimated time-to-idle — the quantity (shard, channel) assignment
// minimizes and stealing balances; the channel-less overloads sum over
// channels for shard-level decisions (victim choice, stats).
//
// ShardQueue is deliberately NOT self-locking: whole-wave steals must
// inspect and mutate two queues atomically, so the owning Dispatcher
// serializes every access under its single mutex. Waves are coarse (one
// bank-parallel engine pass each), so that one lock is nowhere near the
// hot path.
//
// That external-locking contract is not prose alone: every accessor and
// mutator takes the owning mutex by reference and is annotated
// NTTPIM_REQUIRES(mu), so a clang -Wthread-safety build rejects any call
// site that does not provably hold the dispatcher's lock. The reference is
// unused at runtime — it exists purely as the capability token the
// analysis checks (TSA resolves parameter-named capabilities against the
// lock the caller actually holds, which member-pointer aliases cannot
// express).
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <vector>

#include "service/request.h"
#include "sync/mutex.h"

namespace nttpim::service {

/// One unit of dispatch: a formed wave plus its estimated execution cost
/// in modeled device cycles (see PimBackend::estimate_wave_cycles) and its
/// urgency key — the earliest effective deadline and earliest arrival
/// sequence across its requests, stamped by the Dispatcher at dispatch().
struct QueuedWave {
  std::vector<Request> requests;
  /// Former-stamped monotone wave id (Request::wave_id of its requests;
  /// 0 only for hand-built test waves). Travels with the wave through
  /// steals and rebalances, so a moved wave stays identifiable in
  /// telemetry and logs.
  std::uint64_t wave_id = 0;
  std::uint64_t estimated_cycles = 0;
  /// min over requests of RequestClass::edf_deadline() (+inf = no
  /// deadline anywhere in the wave).
  ServiceClock::time_point deadline = ServiceClock::time_point::max();
  std::uint64_t seq = 0;  ///< min over requests of Request::seq

  /// Lane-ordering key: earlier deadline first, arrival breaks ties — so
  /// with no deadlines anywhere the order is exactly arrival (FIFO).
  bool more_urgent_than(const QueuedWave& other) const noexcept {
    if (deadline != other.deadline) return deadline < other.deadline;
    return seq < other.seq;
  }
};

class ShardQueue {
 public:
  /// `capacity_waves` is the advisory per-channel bound full() reports.
  /// The queue itself admits pushes past it: capacity is the Dispatcher's
  /// policy (it blocks on full() while open), and its close() drain path
  /// relies on over-capacity pushes to land the tail waves instead of
  /// blocking against workers that may already be gone.
  ///
  /// Each channel's lane is kept in (deadline, arrival) order: push()
  /// inserts each wave ahead of every less-urgent one, so index 0 — what
  /// both the owner and a thief take — is always the most-deadline-urgent
  /// wave. Waves without deadlines carry +inf and thus drain FIFO among
  /// themselves.
  explicit ShardQueue(std::size_t capacity_waves,
                      std::size_t num_channels = 1);

  /// Channel count is fixed at construction and safe to read unlocked.
  std::size_t channels() const noexcept { return channels_.size(); }

  /// Every channel's deque is empty.
  bool empty(sync::Mutex& mu) const noexcept NTTPIM_REQUIRES(mu);
  bool empty(std::size_t channel, sync::Mutex& mu) const NTTPIM_REQUIRES(mu) {
    (void)mu;
    return chan(channel).waves.empty();
  }
  bool full(std::size_t channel, sync::Mutex& mu) const NTTPIM_REQUIRES(mu) {
    (void)mu;
    return chan(channel).waves.size() >= capacity_;
  }

  std::uint64_t queued_cycles(sync::Mutex& mu) const noexcept
      NTTPIM_REQUIRES(mu);
  std::uint64_t queued_cycles(std::size_t channel, sync::Mutex& mu) const
      NTTPIM_REQUIRES(mu) {
    (void)mu;
    return chan(channel).queued_cycles;
  }
  /// Estimated cycles queued on `channel` *ahead of* a wave with urgency
  /// key (deadline, seq) — i.e. the queued work a deadline-ordered lane
  /// would execute first. Assignment prices a deadlined wave's ETA against
  /// this instead of the whole-lane backlog, because the lane lets the
  /// urgent wave jump the rest.
  std::uint64_t queued_cycles_before(std::size_t channel,
                                     ServiceClock::time_point deadline,
                                     std::uint64_t seq, sync::Mutex& mu) const
      NTTPIM_REQUIRES(mu);
  std::uint64_t executing_cycles(std::size_t channel, sync::Mutex& mu) const
      NTTPIM_REQUIRES(mu) {
    (void)mu;
    return chan(channel).executing_cycles;
  }
  std::uint64_t backlog_cycles(sync::Mutex& mu) const noexcept
      NTTPIM_REQUIRES(mu);
  std::uint64_t backlog_cycles(std::size_t channel, sync::Mutex& mu) const
      NTTPIM_REQUIRES(mu) {
    (void)mu;
    const Channel& c = chan(channel);
    return c.queued_cycles + c.executing_cycles;
  }

  /// Enqueue a priced wave on one channel (dispatcher side), in
  /// (deadline, arrival) order.
  void push(std::size_t channel, QueuedWave&& wave, sync::Mutex& mu)
      NTTPIM_REQUIRES(mu);

  /// The front wave queued on `channel` — the most deadline-urgent one,
  /// else the oldest — without removing it: how a thief picks and prices
  /// its loot before committing to a steal. The channel must be non-empty.
  /// (Mutable because the Estimator signature takes the request vector
  /// mutably; estimators must not actually modify it.)
  QueuedWave& front(std::size_t channel, sync::Mutex& mu) NTTPIM_REQUIRES(mu);

  /// Remove and return the front wave queued on `channel`. Both the owner
  /// and a thief take from this end: the owner for latency fairness, the
  /// thief because the front wave has waited longest (or is most at risk of
  /// missing its deadline) and is the least likely to still be wanted by a
  /// busy owner.
  QueuedWave take_oldest(std::size_t channel, sync::Mutex& mu)
      NTTPIM_REQUIRES(mu);

  /// Account a wave this shard's worker started / finished executing on
  /// `channel` (the wave may have been taken from a *peer's* deque or
  /// another channel — the cost always follows the executor).
  void begin_wave(std::size_t channel, std::uint64_t estimated_cycles,
                  sync::Mutex& mu) NTTPIM_REQUIRES(mu);
  void finish_wave(std::size_t channel, std::uint64_t estimated_cycles,
                   sync::Mutex& mu) NTTPIM_REQUIRES(mu);

 private:
  struct Channel {
    std::deque<QueuedWave> waves;
    std::uint64_t queued_cycles = 0;
    std::uint64_t executing_cycles = 0;
  };

  // Private helpers carry no annotations: the capability lives on the
  // public API above, and every path to a Channel goes through it.
  const Channel& chan(std::size_t channel) const;
  Channel& chan(std::size_t channel);

  std::size_t capacity_;
  std::vector<Channel> channels_;
};

}  // namespace nttpim::service
