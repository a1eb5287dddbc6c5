#include "service/dispatcher.h"

#include <algorithm>
#include <cmath>
#include <limits>
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
  const double scaled = std::ceil(static_cast<double>(estimate_(shard, wave)) *
                                  cfg_.shards[shard].cost_scale);
  // Saturate: converting a double past the uint64 range is undefined.
  constexpr auto kMaxPrice = std::numeric_limits<std::uint64_t>::max();
  return scaled >= static_cast<double>(kMaxPrice)
             ? kMaxPrice
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
  // price).
  std::vector<std::uint64_t> price(queues_.size());
  for (std::size_t s = 0; s < queues_.size(); ++s)
    price[s] = priced_for(s, wave);
  for (;;) {
    // Pick the target first, then wait for space *there*, re-picking after
    // every wake (backlogs moved while we slept). Smallest completion
    // estimate (channel backlog + this wave's price) among (shard, channel)
    // pairs with space; when every channel is full, smallest overall (and
    // the wait below applies). Ties resolve to the first pair in
    // shard-major order.
    std::size_t target_s = queues_.size();
    std::size_t target_c = 0;
    auto best = std::numeric_limits<std::uint64_t>::max();
    bool target_has_space = false;
    for (std::size_t s = 0; s < queues_.size(); ++s) {
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
                                            std::size_t vc) {
  const std::uint64_t cycles =
      priced_for(shard, queues_[victim].front(vc, mu_).requests);
  // Land the loot on the thief's least-backlogged channel.
  std::size_t tc = 0;
  for (std::size_t c = 1; c < queues_[shard].channels(); ++c)
    if (queues_[shard].backlog_cycles(c, mu_) <
        queues_[shard].backlog_cycles(tc, mu_))
      tc = c;
  QueuedWave wave = queues_[victim].take_oldest(vc, mu_);
  queues_[shard].begin_wave(tc, cycles, mu_);
  space_cv_.notify_all();
  return NextWave{std::move(wave.requests), wave.wave_id, cycles, tc,
                  /*stolen=*/true, /*rebalanced=*/false};
}

std::optional<Dispatcher::NextWave> Dispatcher::try_steal_urgent_for(
    std::size_t shard) {
  // Deadline-pressure target selection: of every peer wave that carries a
  // *real* deadline, take the one with the earliest (deadline, arrival)
  // key — an idle shard is the fastest path to execution, so it should
  // relieve the wave closest to missing, not the merely largest backlog.
  // Lanes are urgency-ordered, so each lane's front is its candidate.
  std::size_t best_victim = 0, best_vc = 0;
  const QueuedWave* best = nullptr;
  for (std::size_t s = 0; s < queues_.size(); ++s) {
    if (s == shard) continue;
    for (std::size_t c = 0; c < queues_[s].channels(); ++c) {
      if (queues_[s].empty(c, mu_)) continue;
      const QueuedWave& w = queues_[s].front(c, mu_);
      if (w.deadline == ServiceClock::time_point::max()) continue;
      if (best && !w.more_urgent_than(*best)) continue;
      best = &w;
      best_victim = s;
      best_vc = c;
    }
  }
  if (!best) return std::nullopt;
  return land_steal(shard, best_victim, best_vc);
}

std::optional<Dispatcher::NextWave> Dispatcher::try_steal_for(
    std::size_t shard) {
  if (auto urgent = try_steal_urgent_for(shard)) return urgent;
  // No deadlined wave anywhere: the load-relief steal relieves the peer
  // with the most queued cost, on its most-loaded channel (the bus that is
  // furthest behind). Ties go to the lowest index.
  std::size_t victim = queues_.size();
  for (std::size_t s = 0; s < queues_.size(); ++s) {
    if (s == shard || queues_[s].empty(mu_)) continue;
    if (victim == queues_.size() ||
        queues_[s].queued_cycles(mu_) > queues_[victim].queued_cycles(mu_))
      victim = s;
  }
  if (victim == queues_.size()) return std::nullopt;
  const ShardQueue& q = queues_[victim];
  std::size_t vc = q.channels();
  for (std::size_t c = 0; c < q.channels(); ++c) {
    if (q.empty(c, mu_)) continue;
    if (vc == q.channels() ||
        q.queued_cycles(c, mu_) > q.queued_cycles(vc, mu_))
      vc = c;
  }
  return land_steal(shard, victim, vc);
}

std::vector<Dispatcher::NextWave> Dispatcher::next_waves_for(
    std::size_t shard) {
  NTTPIM_EXPECT(shard < shards());
  sync::MutexLock lk(mu_);
  for (;;) {
    ShardQueue& own = queues_[shard];
    if (!own.empty(mu_)) {
      // Own waves are already priced for this backend. One wave per
      // channel; channels left empty-handed rebalance from the most-loaded
      // sibling so the merged pass keeps every bus busy.
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
