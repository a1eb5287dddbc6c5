#include "service/wave_former.h"

#include <algorithm>
#include <utility>

#include "common/check.h"

namespace nttpim::service {

namespace {

/// Cut order: earlier effective deadline, then higher priority, then
/// earlier arrival.
bool cuts_before(const Request& a, const Request& b) {
  const auto da = a.qos.edf_deadline();
  const auto db = b.qos.edf_deadline();
  if (da != db) return da < db;
  if (a.qos.priority != b.qos.priority) return a.qos.priority > b.qos.priority;
  return a.seq < b.seq;
}

}  // namespace

WaveFormer::WaveFormer(const Config& config)
    : cfg_(config), paused_(config.start_paused) {
  // >= 2 so a multiply (2 items) always fits: a kBlock submit whose request
  // can never fit would wait forever.
  NTTPIM_EXPECT_MSG(cfg_.capacity_items >= 2,
                    "queue capacity must admit a multiply (2 batch items)");
  NTTPIM_EXPECT_MSG(cfg_.flush_window.count() >= 0,
                    "flush window must be non-negative");
}

WaveFormer::SubmitResult WaveFormer::submit(Request&& request,
                                            SubmitInfo* info) {
  const std::size_t items = request.batch_items();
  sync::MutexLock lk(mu_);
  if (cfg_.overflow == OverflowPolicy::kBlock) {
    // Explicit wait loop, not a predicate lambda: the thread-safety
    // analysis treats a lambda as a separate function, so a predicate
    // touching guarded members could not be checked against mu_.
    while (!closed_ && pending_items_ + items > cfg_.capacity_items)
      space_cv_.wait(lk);
    if (closed_) return SubmitResult::kClosed;
  } else {
    if (closed_) return SubmitResult::kClosed;
    if (pending_items_ + items > cfg_.capacity_items)
      return SubmitResult::kRejected;
  }
  request.enqueued = now();
  request.seq = next_seq_++;
  if (info != nullptr) {
    info->seq = request.seq;
    info->enqueued = request.enqueued;
  }
  pending_items_ += items;
  arrivals_.push_back({request.enqueued});
  // The newest seq sorts after every equal key, so a classless request
  // lands at the back: check the back first and skip the search.
  if (queue_.empty() || !cuts_before(request, queue_.back())) {
    queue_.push_back(std::move(request));
  } else {
    const auto pos =
        std::upper_bound(queue_.begin(), queue_.end(), request, cuts_before);
    queue_.insert(pos, std::move(request));
  }
  // Wake after unlocking, so woken consumers do not contend with this
  // producer (or the next one) for mu_. notify_all: several consumers may
  // be parked with different predicates (waiting for any work vs. waiting
  // for a full wave of their own cap).
  lk.unlock();
  ready_cv_.notify_all();
  return SubmitResult::kAccepted;
}

ServiceClock::time_point WaveFormer::flush_deadline() const {
  // The window always measures against the *oldest* request; the earliest
  // pending deadline (the cut-order front's, +inf if none) tightens it, so
  // a latency-critical request never waits out the coalescing window
  // behind bulk traffic.
  return std::min(arrivals_.front().enqueued + cfg_.flush_window,
                  queue_.front().qos.edf_deadline());
}

std::vector<Request> WaveFormer::cut_wave(std::size_t max_items) {
  std::vector<Request> wave;
  std::size_t taken = 0;
  while (!queue_.empty()) {
    const std::size_t items = queue_.front().batch_items();
    // Never split below one request per wave; otherwise respect the cap
    // (a trailing multiply that would overflow waits for the next wave).
    if (taken != 0 && taken + items > max_items) break;
    taken += items;
    arrivals_[queue_.front().seq - arrivals_base_].cut = true;
    wave.push_back(std::move(queue_.front()));
    queue_.pop_front();
    if (taken >= max_items) break;
  }
  while (!arrivals_.empty() && arrivals_.front().cut) {
    arrivals_.pop_front();
    ++arrivals_base_;
  }
  pending_items_ -= taken;
  // Stamp the cut: one monotone wave id shared by every request of the
  // wave (the trace/stats join key downstream), and the cut time the
  // stage breakdown splits former residency from shard-queue wait at.
  const std::uint64_t wave_id = next_wave_id_++;
  const ServiceClock::time_point cut = now();
  for (Request& r : wave) {
    r.wave_id = wave_id;
    r.cut_at = cut;
  }
  return wave;
}

std::vector<Request> WaveFormer::next_wave(std::size_t max_items) {
  NTTPIM_EXPECT_MSG(max_items >= 1,
                    "a wave must hold at least one batch item");
  sync::MutexLock lk(mu_);
  for (;;) {
    while (!closed_ && (paused_ || queue_.empty())) ready_cv_.wait(lk);
    if (queue_.empty()) {
      if (closed_) return {};
      continue;  // paused was lifted with nothing queued, or a spurious wake
    }

    // Wave forming: flush when this caller's wave is full or when the
    // *oldest* request has been waiting flush_window (the earliest
    // pending deadline tightens that — see flush_deadline()). close()
    // flushes immediately (drain fast); pause() re-gates a consumer even
    // mid-forming, so a staged backlog never leaks out as a partial wave
    // while paused.
    //
    // The deadline is recomputed against the *current* front after every
    // wake. Computing it once per wait (the previous code) let a waiter
    // whose wave was taken by another consumer time out against the
    // departed front's deadline and flush the new front's requests before
    // their window elapsed, shrinking coalesced waves.
    for (;;) {
      if (closed_ || paused_) break;
      if (queue_.empty()) break;  // another consumer took the wave
      if (pending_items_ >= max_items) break;
      const auto deadline = flush_deadline();
      if (now() >= deadline) break;
      if (cfg_.clock)
        ready_cv_.wait(lk);  // fake time: tick()/submit/close re-wakes us
      else
        ready_cv_.wait_until(lk, deadline);
    }
    if (paused_ && !closed_) continue;
    if (queue_.empty()) continue;  // another consumer took the wave

    std::vector<Request> wave = cut_wave(max_items);
    space_cv_.notify_all();
    return wave;
  }
}

void WaveFormer::pause() {
  const sync::MutexLock lk(mu_);
  paused_ = true;
}

void WaveFormer::resume() {
  {
    const sync::MutexLock lk(mu_);
    paused_ = false;
  }
  ready_cv_.notify_all();
}

void WaveFormer::tick() {
  // Taking the lock (not just notifying) closes the race with a consumer
  // that read the fake time before the caller advanced it but has not yet
  // parked on the condition variable.
  const sync::MutexLock lk(mu_);
  ready_cv_.notify_all();
}

void WaveFormer::close() {
  {
    const sync::MutexLock lk(mu_);
    closed_ = true;
    paused_ = false;  // a paused former still drains on shutdown
  }
  ready_cv_.notify_all();
  space_cv_.notify_all();
}

std::size_t WaveFormer::pending_items() const {
  const sync::MutexLock lk(mu_);
  return pending_items_;
}

bool WaveFormer::closed() const {
  const sync::MutexLock lk(mu_);
  return closed_;
}

}  // namespace nttpim::service
