// Cost-aware hierarchical (shard, channel) wave dispatch with local
// rebalancing and cross-shard work stealing.
//
// PR 4's shards pulled whole waves straight off the shared wave-former;
// assignment was "whoever asks next", so a shard chewing a huge mixed wave
// could leave expensive waves queued behind it while its peers idled — the
// load imbalance the paper's row-centric mapping avoids *inside* a device,
// reproduced across devices. PR 5's Dispatcher closed that gap with the
// cost-model-driven scheduling MeNTT / BP-NTT use to balance in-memory NTT
// lanes; this revision extends the same idea one level down, to the
// independent command buses of a multi-channel device (see
// dram::DramGeometry::num_channels):
//
//   wave-former --> Dispatcher --> shard 0 { ch 0 --> merged  } worker 0
//    (coalesce)      |  price &  >         { ch 1 --> pass    }
//                    |  assign   > shard 1 { ch 0 ... }         worker 1
//                    |  (s, ch)       ^-- rebalance across own channels,
//                    |                    steal across shards when idle
//
//  - Assignment: each formed wave is priced *per shard* by an Estimator
//    (backed by each backend's own estimate_wave_cycles — all in the
//    shared modeled-cycle unit, see fhe/ntt_backend.h), scaled by the
//    shard's cost_scale, and pushed onto the (shard, channel) queue that
//    would clear it soonest (smallest per-channel backlog + price). The
//    price is per shard, not per channel: channels of one device are
//    identical buses, so only their backlogs differ. With heterogeneous
//    shards this is what routes cheap waves to a CPU worker while bulk
//    waves stay on the PIM; within a PIM shard it is what spreads bulk
//    waves across buses so the worker can merge one wave per channel into
//    a single channel-overlapped engine pass. Ties go to the first
//    least-backlog pair in shard-major order.
//  - Local rebalance: when a worker group-pops one wave per channel
//    (next_waves_for) and some channels come up empty while siblings still
//    hold queued waves, the empty channels take the oldest wave of the
//    most-loaded sibling so the merged pass keeps every bus busy. This
//    never crosses a shard (same backend, same thread) and is reported as
//    `rebalanced`, not `stolen`.
//  - Stealing: only when its *whole* shard is empty does a worker cross
//    shards — local rebalance strictly precedes remote stealing. It takes
//    the oldest wave of the most-loaded peer's most-loaded channel,
//    re-priced for the thief's backend and landed on the thief's
//    least-backlogged channel. Steals move whole waves, so the
//    thread-confined backend / plan-cache contract is untouched — a wave
//    executes entirely on whichever shard took it, and only the dispatch
//    bookkeeping crosses threads (under the Dispatcher's one mutex).
//  - Deadlines: lanes hold waves in (earliest deadline, arrival) order, so
//    the wave a worker pops next is always the most urgent one and a
//    deadlined wave jumps queued bulk; assignment prices a deadlined wave
//    against only the queued work ahead of it in lane order; and an idle
//    shard steals the most-deadline-urgent wave anywhere before relieving
//    the most-loaded peer. Deadline-less waves carry +inf, so classless
//    traffic gets FIFO lanes, whole-lane pricing and the load-relief
//    steal.
//  - Backpressure: per-channel queues are bounded in waves; dispatch()
//    blocks while its target channel is full, which stops the wave-former
//    from being drained, which backpressures submitters through the
//    former's own bounded queue.
//
// close() ends intake; workers then drain every queue (an empty-handed
// worker keeps stealing leftover peer waves — accepted work always
// executes) and next_waves_for returns empty once everything is gone.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <vector>

#include "service/shard_queue.h"
#include "sync/mutex.h"

namespace nttpim::service {

class Dispatcher {
 public:
  /// Dispatch-relevant slice of one shard's BackendDescriptor.
  struct Shard {
    /// Multiplies this shard's raw estimates before any comparison or
    /// accounting (see BackendDescriptor::cost_scale).
    double cost_scale = 1.0;
    /// Independent command channels of the shard's device (see
    /// BackendDescriptor::channels). The shard's queue splits per channel.
    std::size_t channels = 1;
  };

  struct Config {
    /// One entry per shard, in worker order.
    std::vector<Shard> shards = {Shard{}};
    std::size_t queue_capacity_waves = 4;  ///< per-channel bound, in waves
  };

  /// Prices `wave` for `shard`, in the backend's *raw* modeled device
  /// cycles (the dispatcher applies the shard's cost_scale). Called with
  /// the dispatcher's mutex held, on the dispatching thread and on
  /// stealing workers, while other shards execute — so it must only use
  /// share-readable state (NttBackend::estimate_wave_cycles qualifies) and
  /// must not call back into the Dispatcher. The wave is passed mutably
  /// because BatchItems reference its buffers; the estimator must not
  /// actually modify it.
  using Estimator =
      std::function<std::uint64_t(std::size_t shard,
                                  std::vector<Request>& wave)>;

  Dispatcher(const Config& config, Estimator estimator);

  /// Where dispatch() placed a wave — returned so the dispatch loop can
  /// attribute the decision (telemetry's DispatchAssign event) without a
  /// second lock acquisition. Existing callers are free to ignore it.
  struct Assignment {
    std::size_t shard = 0;
    std::size_t channel = 0;
    /// The assignee's scaled price for the wave.
    std::uint64_t estimated_cycles = 0;
    std::uint64_t wave_id = 0;  ///< former-stamped id (0 for test waves)
  };

  /// Price one formed wave per shard and enqueue it on the chosen
  /// (shard, channel) queue, blocking while that channel is full. After
  /// close() the capacity bound is waived instead of blocking forever
  /// (drain semantics: whatever the former already accepted must still
  /// reach a queue).
  Assignment dispatch(std::vector<Request>&& wave);

  struct NextWave {
    std::vector<Request> requests;
    /// Former-stamped wave id, carried from the QueuedWave so steals and
    /// rebalances report *which* wave moved (0 for hand-built test waves).
    std::uint64_t wave_id = 0;
    /// The executing shard's scaled price (re-priced on a steal).
    std::uint64_t estimated_cycles = 0;
    /// Channel of the executing shard the wave runs on — the channel hint
    /// the worker stamps on the wave's batch items.
    std::size_t channel = 0;
    bool stolen = false;  ///< taken from a peer shard's queue
    /// Moved between channels of the executing shard by a group pop's
    /// local rebalance (never a policy steal — same backend, same thread).
    bool rebalanced = false;
  };

  /// Block until `shard` has work, then return up to one wave per channel
  /// — the group the worker merges into a single channel-overlapped engine
  /// pass. Own channels pop their oldest wave; channels left empty-handed
  /// take the oldest wave of the most-loaded sibling channel
  /// (`rebalanced`). Only when the whole shard is empty does the worker
  /// steal remotely: the most-deadline-urgent peer wave, else the oldest
  /// wave of the most-loaded peer, re-priced, onto this shard's
  /// least-backlogged channel (a group of one). Returns an empty vector
  /// only when the dispatcher is closed and every queue has drained. Each
  /// returned wave's cost is already accounted as executing on (shard, its
  /// channel); pass each back through complete() when done.
  std::vector<NextWave> next_waves_for(std::size_t shard);

  /// Account the end of a wave next_waves_for(shard) handed out, on the
  /// channel the NextWave named.
  void complete(std::size_t shard, std::uint64_t estimated_cycles,
                std::size_t channel = 0);

  /// Stop intake and let workers drain; idempotent.
  void close();

  /// Estimated outstanding cost (queued + executing) of one shard: the
  /// total and every channel's share, read under a single lock acquisition
  /// so the channel figures always tile the total exactly. Safe from any
  /// thread.
  struct ShardBacklog {
    std::uint64_t total_cycles = 0;
    std::vector<std::uint64_t> channel_cycles;  ///< one entry per channel
  };
  ShardBacklog backlog_snapshot(std::size_t shard) const;

  std::size_t shards() const noexcept { return cfg_.shards.size(); }
  std::size_t channels(std::size_t shard) const {
    return cfg_.shards[shard].channels;
  }

 private:
  /// estimate_(shard, wave) with the shard's cost_scale applied. Caller
  /// holds mu_.
  std::uint64_t priced_for(std::size_t shard, std::vector<Request>& wave) const
      NTTPIM_REQUIRES(mu_);

  /// Remote-steal step of next_waves_for: the most-deadline-urgent wave
  /// across all peers (when any peer wave has a real deadline); otherwise
  /// the oldest wave of the most-loaded peer. Either way the loot is
  /// re-priced and accounted as executing on this shard's least-backlogged
  /// channel. Caller holds mu_; returns nullopt when every peer is empty.
  std::optional<NextWave> try_steal_for(std::size_t shard)
      NTTPIM_REQUIRES(mu_);

  /// Deadline-pressure steal: the single peer wave with the earliest
  /// (deadline, arrival) key, considering only waves that carry a real
  /// deadline. Caller holds mu_; nullopt when no deadlined wave is queued
  /// anywhere (the caller then falls back to the load-relief steal).
  std::optional<NextWave> try_steal_urgent_for(std::size_t shard)
      NTTPIM_REQUIRES(mu_);

  /// Take the front wave of (victim, vc), re-priced for `shard`, and land
  /// it on `shard`'s least-backlogged channel. Caller holds mu_.
  NextWave land_steal(std::size_t shard, std::size_t victim, std::size_t vc)
      NTTPIM_REQUIRES(mu_);

  const Config cfg_;
  Estimator estimate_;
  mutable sync::Mutex mu_;
  sync::CondVar ready_cv_;  ///< workers: wave pushed / close
  sync::CondVar space_cv_;  ///< dispatcher: queue space freed
  /// deque, not vector: ShardQueue holds move-only Requests and emplacing
  /// into a deque never relocates existing elements.
  std::deque<ShardQueue> queues_ NTTPIM_GUARDED_BY(mu_);
  bool closed_ NTTPIM_GUARDED_BY(mu_) = false;
};

}  // namespace nttpim::service
