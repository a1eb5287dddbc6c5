#include "service/dispatcher.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/check.h"

namespace nttpim::service {

Dispatcher::Dispatcher(const Config& config, Estimator estimator)
    : cfg_(config), estimate_(std::move(estimator)) {
  NTTPIM_EXPECT_MSG(!cfg_.shards.empty(), "the dispatcher needs a shard");
  NTTPIM_EXPECT_MSG(estimate_ != nullptr, "the dispatcher needs an estimator");
  for (const Shard& shard : cfg_.shards) {
    NTTPIM_EXPECT_MSG(shard.cost_scale > 0, "cost_scale must be positive");
    NTTPIM_EXPECT_MSG(shard.channels >= 1,
                      "a shard needs at least one channel");
  }
  // Guarded members are initialized without the lock: the object is not
  // shared until the constructor returns (TSA exempts constructors for the
  // same reason).
  const sync::MutexLock lk(mu_);
  for (const Shard& shard : cfg_.shards)
    queues_.emplace_back(cfg_.queue_capacity_waves, shard.channels);
}

std::uint64_t Dispatcher::priced_for(std::size_t shard,
                                     std::vector<Request>& wave) const {
  const std::uint64_t raw = estimate_(shard, wave);
  if (raw == kIncompatibleCycles) return kIncompatibleCycles;
  const double scaled =
      std::ceil(static_cast<double>(raw) * cfg_.shards[shard].cost_scale);
  // Clamp below the sentinel so a huge scaled price stays "very expensive"
  // instead of becoming "incompatible".
  const auto max_price =
      static_cast<double>(kIncompatibleCycles - 1);
  return scaled >= max_price ? kIncompatibleCycles - 1
                             : static_cast<std::uint64_t>(scaled);
}

Dispatcher::Assignment Dispatcher::dispatch(std::vector<Request>&& wave) {
  NTTPIM_EXPECT(!wave.empty());
  sync::MutexLock lk(mu_);
  // The wave's urgency key: earliest effective deadline and earliest
  // arrival across its requests (the former cuts EDF waves, so the head
  // request usually carries both — but a steal-order or lane-order
  // decision must not depend on that).
  auto wave_deadline = ServiceClock::time_point::max();
  auto wave_seq = std::numeric_limits<std::uint64_t>::max();
  // Every request of a former-cut wave shares one wave_id; hand-built
  // test waves may carry 0.
  const std::uint64_t wave_id = wave.front().wave_id;
  for (const Request& r : wave) {
    wave_deadline = std::min(wave_deadline, r.qos.edf_deadline());
    wave_seq = std::min(wave_seq, r.seq);
  }
  const bool urgent = wave_deadline != ServiceClock::time_point::max();
  // Price the wave once per shard (heterogeneous backends price the same
  // wave differently; a shard's channels are identical buses and share its
  // price); incompatible shards drop out here.
  std::vector<std::uint64_t> price(queues_.size());
  bool any_compatible = false;
  for (std::size_t s = 0; s < queues_.size(); ++s) {
    price[s] = priced_for(s, wave);
    any_compatible |= price[s] != kIncompatibleCycles;
  }
  NTTPIM_CHECK_MSG(any_compatible, "no shard can execute the wave");
  for (;;) {
    // Pick the target first, then wait for space *there*, re-picking after
    // every wake (backlogs moved while we slept). Smallest completion
    // estimate (channel backlog + this wave's price) among compatible
    // (shard, channel) pairs with space; when every compatible channel is
    // full, smallest overall (and the wait below applies). Ties resolve
    // to the first pair in shard-major order.
    std::size_t target_s = queues_.size();
    std::size_t target_c = 0;
    auto best = std::numeric_limits<std::uint64_t>::max();
    bool target_has_space = false;
    for (std::size_t s = 0; s < queues_.size(); ++s) {
      if (price[s] == kIncompatibleCycles) continue;
      for (std::size_t c = 0; c < queues_[s].channels(); ++c) {
        const bool space = !queues_[s].full(c, mu_);
        // A deadlined wave jumps the less-urgent queued waves of whatever
        // lane it lands in, so its real ETA counts only the executing work
        // plus the queued work *ahead* of its key — a lane drowning in
        // bulk is still a fine home for a critical wave. Deadline-less
        // waves keep the whole-lane backlog.
        const std::uint64_t ahead =
            urgent ? queues_[s].queued_cycles_before(c, wave_deadline,
                                                     wave_seq, mu_) +
                         queues_[s].executing_cycles(c, mu_)
                   : queues_[s].backlog_cycles(c, mu_);
        const std::uint64_t eta = ahead + price[s];
        if (target_s == queues_.size() || (space && !target_has_space) ||
            (space == target_has_space && eta < best)) {
          best = eta;
          target_s = s;
          target_c = c;
          target_has_space = space;
        }
      }
    }
    if (closed_ || !queues_[target_s].full(target_c, mu_)) {
      QueuedWave priced;
      priced.wave_id = wave_id;
      priced.estimated_cycles = price[target_s];
      priced.deadline = wave_deadline;
      priced.seq = wave_seq;
      priced.requests = std::move(wave);
      queues_[target_s].push(target_c, std::move(priced), mu_);
      ready_cv_.notify_all();
      return Assignment{target_s, target_c, price[target_s], wave_id};
    }
    space_cv_.wait(lk);
  }
}

Dispatcher::NextWave Dispatcher::land_steal(std::size_t shard,
                                            std::size_t victim,
                                            std::size_t vc, std::size_t i,
                                            std::uint64_t cycles) {
  // Land the loot on the thief's least-backlogged channel.
  std::size_t tc = 0;
  for (std::size_t c = 1; c < queues_[shard].channels(); ++c)
    if (queues_[shard].backlog_cycles(c, mu_) <
        queues_[shard].backlog_cycles(tc, mu_))
      tc = c;
  QueuedWave wave = queues_[victim].take_at(vc, i, mu_);
  queues_[shard].begin_wave(tc, cycles, mu_);
  space_cv_.notify_all();
  return NextWave{std::move(wave.requests), wave.wave_id, cycles, tc,
                  /*stolen=*/true, /*rebalanced=*/false};
}

std::optional<Dispatcher::NextWave> Dispatcher::try_steal_urgent_for(
    std::size_t shard) {
  // Deadline-pressure target selection: of every compatible peer wave
  // that carries a *real* deadline, take the one with the earliest
  // (deadline, arrival) key — an idle shard is the fastest path to
  // execution, so it should relieve the wave closest to missing, not the
  // merely largest backlog.
  std::size_t best_victim = 0, best_vc = 0, best_i = 0;
  std::uint64_t best_cycles = 0;
  const QueuedWave* best = nullptr;
  for (std::size_t s = 0; s < queues_.size(); ++s) {
    if (s == shard) continue;
    for (std::size_t c = 0; c < queues_[s].channels(); ++c) {
      // Lanes are urgency-ordered, so the first compatible deadlined wave
      // of each lane is that lane's candidate.
      for (std::size_t i = 0; i < queues_[s].size(c, mu_); ++i) {
        QueuedWave& w = queues_[s].wave_at(c, i, mu_);
        if (w.deadline == ServiceClock::time_point::max()) break;
        if (best && !w.more_urgent_than(*best)) break;
        const std::uint64_t cycles = priced_for(shard, w.requests);
        if (cycles == kIncompatibleCycles) continue;
        best = &w;
        best_victim = s;
        best_vc = c;
        best_i = i;
        best_cycles = cycles;
        break;
      }
    }
  }
  if (!best) return std::nullopt;
  return land_steal(shard, best_victim, best_vc, best_i, best_cycles);
}

std::optional<Dispatcher::NextWave> Dispatcher::try_steal_for(
    std::size_t shard) {
  if (auto urgent = try_steal_urgent_for(shard)) return urgent;
  // No deadlined wave anywhere: the load-relief steal. Victim order:
  // queued cost, descending; within the victim, channels by queued cost
  // descending (relieve the bus that is furthest behind).
  std::vector<std::size_t> victims;
  victims.reserve(queues_.size());
  for (std::size_t s = 0; s < queues_.size(); ++s)
    if (s != shard && !queues_[s].empty(mu_)) victims.push_back(s);
  std::sort(victims.begin(), victims.end(), [&](auto a, auto b) {
    return queues_[a].queued_cycles(mu_) > queues_[b].queued_cycles(mu_);
  });
  for (const std::size_t victim : victims) {
    std::vector<std::size_t> vchans;
    for (std::size_t c = 0; c < queues_[victim].channels(); ++c)
      if (!queues_[victim].empty(c, mu_)) vchans.push_back(c);
    std::sort(vchans.begin(), vchans.end(), [&](auto a, auto b) {
      return queues_[victim].queued_cycles(a, mu_) >
             queues_[victim].queued_cycles(b, mu_);
    });
    for (const std::size_t vc : vchans) {
      for (std::size_t i = 0; i < queues_[victim].size(vc, mu_); ++i) {
        const std::uint64_t cycles =
            priced_for(shard, queues_[victim].wave_at(vc, i, mu_).requests);
        if (cycles == kIncompatibleCycles) continue;
        return land_steal(shard, victim, vc, i, cycles);
      }
    }
  }
  return std::nullopt;
}

std::vector<Dispatcher::NextWave> Dispatcher::next_waves_for(
    std::size_t shard) {
  NTTPIM_EXPECT(shard < shards());
  sync::MutexLock lk(mu_);
  for (;;) {
    ShardQueue& own = queues_[shard];
    if (!own.empty(mu_)) {
      // Own waves are compatible by construction (dispatch() only assigns
      // compatible shards) and already priced for this backend. One wave
      // per channel; channels left empty-handed rebalance from the
      // most-loaded sibling so the merged pass keeps every bus busy.
      std::vector<NextWave> group;
      std::vector<std::size_t> starved;
      for (std::size_t c = 0; c < own.channels(); ++c) {
        if (own.empty(c, mu_)) {
          starved.push_back(c);
          continue;
        }
        QueuedWave wave = own.take_oldest(c, mu_);
        own.begin_wave(c, wave.estimated_cycles, mu_);
        group.push_back(NextWave{std::move(wave.requests), wave.wave_id,
                                 wave.estimated_cycles, c,
                                 /*stolen=*/false, /*rebalanced=*/false});
      }
      for (const std::size_t c : starved) {
        std::size_t donor = own.channels();
        for (std::size_t d = 0; d < own.channels(); ++d) {
          if (own.empty(d, mu_)) continue;
          if (donor == own.channels() ||
              own.queued_cycles(d, mu_) > own.queued_cycles(donor, mu_))
            donor = d;
        }
        if (donor == own.channels()) break;  // nothing left to spread
        QueuedWave wave = own.take_oldest(donor, mu_);
        own.begin_wave(c, wave.estimated_cycles, mu_);
        group.push_back(NextWave{std::move(wave.requests), wave.wave_id,
                                 wave.estimated_cycles, c,
                                 /*stolen=*/false, /*rebalanced=*/true});
      }
      space_cv_.notify_all();
      return group;
    }
    // Only an entirely empty shard crosses shard boundaries: local
    // rebalance above strictly precedes remote stealing.
    if (auto stolen = try_steal_for(shard)) {
      std::vector<NextWave> group;
      group.push_back(std::move(*stolen));
      return group;
    }
    if (closed_) return {};
    ready_cv_.wait(lk);
  }
}

void Dispatcher::complete(std::size_t shard, std::uint64_t estimated_cycles,
                          std::size_t channel) {
  const sync::MutexLock lk(mu_);
  queues_[shard].finish_wave(channel, estimated_cycles, mu_);
}

void Dispatcher::close() {
  {
    const sync::MutexLock lk(mu_);
    closed_ = true;
  }
  ready_cv_.notify_all();
  space_cv_.notify_all();
}

std::uint64_t Dispatcher::backlog_cycles(std::size_t shard) const {
  const sync::MutexLock lk(mu_);
  return queues_[shard].backlog_cycles(mu_);
}

std::uint64_t Dispatcher::backlog_cycles(std::size_t shard,
                                         std::size_t channel) const {
  const sync::MutexLock lk(mu_);
  return queues_[shard].backlog_cycles(channel, mu_);
}

Dispatcher::ShardBacklog Dispatcher::backlog_snapshot(
    std::size_t shard) const {
  const sync::MutexLock lk(mu_);
  const ShardQueue& q = queues_[shard];
  ShardBacklog snap;
  snap.channel_cycles.reserve(q.channels());
  for (std::size_t c = 0; c < q.channels(); ++c) {
    const std::uint64_t cycles = q.backlog_cycles(c, mu_);
    snap.channel_cycles.push_back(cycles);
    snap.total_cycles += cycles;
  }
  return snap;
}

}  // namespace nttpim::service
