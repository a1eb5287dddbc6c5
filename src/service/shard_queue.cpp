#include "service/shard_queue.h"

#include <algorithm>
#include <utility>

#include "common/check.h"

namespace nttpim::service {

ShardQueue::ShardQueue(std::size_t capacity_waves, std::size_t num_channels)
    : capacity_(capacity_waves), channels_(num_channels) {
  NTTPIM_EXPECT_MSG(capacity_waves >= 1,
                    "a shard queue must hold at least one wave per channel");
  NTTPIM_EXPECT_MSG(num_channels >= 1,
                    "a shard queue needs at least one channel");
}

const ShardQueue::Channel& ShardQueue::chan(std::size_t channel) const {
  NTTPIM_EXPECT_MSG(channel < channels_.size(), "channel index out of range");
  return channels_[channel];
}

ShardQueue::Channel& ShardQueue::chan(std::size_t channel) {
  NTTPIM_EXPECT_MSG(channel < channels_.size(), "channel index out of range");
  return channels_[channel];
}

bool ShardQueue::empty(sync::Mutex& mu) const noexcept {
  (void)mu;
  for (const Channel& c : channels_)
    if (!c.waves.empty()) return false;
  return true;
}

std::uint64_t ShardQueue::queued_cycles(sync::Mutex& mu) const noexcept {
  (void)mu;
  std::uint64_t total = 0;
  for (const Channel& c : channels_) total += c.queued_cycles;
  return total;
}

std::uint64_t ShardQueue::backlog_cycles(sync::Mutex& mu) const noexcept {
  (void)mu;
  std::uint64_t total = 0;
  for (const Channel& c : channels_)
    total += c.queued_cycles + c.executing_cycles;
  return total;
}

void ShardQueue::push(std::size_t channel, QueuedWave&& wave,
                      sync::Mutex& mu) {
  (void)mu;
  // No capacity check: full() is advisory (see the header) — the open
  // Dispatcher blocks on it, the closing one pushes past it to drain.
  Channel& c = chan(channel);
  c.queued_cycles += wave.estimated_cycles;
  // (deadline, arrival)-ordered lane: insert ahead of every strictly
  // less-urgent wave. upper_bound keeps equal keys in insertion order,
  // and deadline-less waves (key +inf, seq ascending) land at the back —
  // exactly the FIFO append, taken without a search.
  if (c.waves.empty() || !wave.more_urgent_than(c.waves.back())) {
    c.waves.push_back(std::move(wave));
    return;
  }
  const auto pos = std::upper_bound(
      c.waves.begin(), c.waves.end(), wave,
      [](const QueuedWave& a, const QueuedWave& b) {
        return a.more_urgent_than(b);
      });
  c.waves.insert(pos, std::move(wave));
}

std::uint64_t ShardQueue::queued_cycles_before(
    std::size_t channel, ServiceClock::time_point deadline, std::uint64_t seq,
    sync::Mutex& mu) const {
  (void)mu;
  QueuedWave key;
  key.deadline = deadline;
  key.seq = seq;
  std::uint64_t cycles = 0;
  for (const QueuedWave& w : chan(channel).waves) {
    if (!w.more_urgent_than(key)) break;  // lane is ordered by urgency
    cycles += w.estimated_cycles;
  }
  return cycles;
}

QueuedWave& ShardQueue::front(std::size_t channel, sync::Mutex& mu) {
  (void)mu;
  Channel& c = chan(channel);
  NTTPIM_EXPECT_MSG(!c.waves.empty(), "front of an empty channel");
  return c.waves.front();
}

QueuedWave ShardQueue::take_oldest(std::size_t channel, sync::Mutex& mu) {
  QueuedWave wave = std::move(front(channel, mu));
  Channel& c = chan(channel);
  c.waves.pop_front();
  c.queued_cycles -= wave.estimated_cycles;
  return wave;
}

void ShardQueue::begin_wave(std::size_t channel, std::uint64_t estimated_cycles,
                            sync::Mutex& mu) {
  (void)mu;
  chan(channel).executing_cycles += estimated_cycles;
}

void ShardQueue::finish_wave(std::size_t channel,
                             std::uint64_t estimated_cycles, sync::Mutex& mu) {
  (void)mu;
  Channel& c = chan(channel);
  NTTPIM_EXPECT_MSG(c.executing_cycles >= estimated_cycles,
                    "finishing a wave that never began");
  c.executing_cycles -= estimated_cycles;
}

}  // namespace nttpim::service
