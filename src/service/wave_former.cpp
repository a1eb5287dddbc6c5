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
  request.enqueued = ServiceClock::now();
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

bool WaveFormer::due(ServiceClock::time_point now,
                     std::size_t max_items) const {
  // pause() re-gates cutting even mid-forming, so a staged backlog never
  // leaks out as a partial wave while paused; close() flushes at once
  // (drain fast).
  if (queue_.empty() || (paused_ && !closed_)) return false;
  return closed_ || pending_items_ >= max_items || now >= flush_deadline();
}

std::vector<Request> WaveFormer::cut_wave(ServiceClock::time_point now,
                                          std::size_t max_items) {
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
  for (Request& r : wave) {
    r.wave_id = wave_id;
    r.cut_at = now;
  }
  space_cv_.notify_all();
  return wave;
}

std::vector<Request> WaveFormer::cut_if_due(ServiceClock::time_point now,
                                            std::size_t max_items) {
  NTTPIM_EXPECT_MSG(max_items >= 1,
                    "a wave must hold at least one batch item");
  const sync::MutexLock lk(mu_);
  if (!due(now, max_items)) return {};
  return cut_wave(now, max_items);
}

std::vector<Request> WaveFormer::next_wave(std::size_t max_items) {
  NTTPIM_EXPECT_MSG(max_items >= 1,
                    "a wave must hold at least one batch item");
  sync::MutexLock lk(mu_);
  for (;;) {
    while (!closed_ && (paused_ || queue_.empty())) ready_cv_.wait(lk);
    if (queue_.empty()) return {};  // closed and drained
    const ServiceClock::time_point now = ServiceClock::now();
    if (due(now, max_items)) return cut_wave(now, max_items);
    // Sleep until the flush instant of the *current* backlog; every wake
    // (that instant, a submit, resume or close) judges again against
    // whatever is pending then. An instant computed once per wait would
    // let a waiter whose wave another consumer took time out against the
    // departed front's deadline and flush the new front before its
    // window elapsed, shrinking coalesced waves.
    ready_cv_.wait_until(lk, flush_deadline());
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

void WaveFormer::close() {
  {
    const sync::MutexLock lk(mu_);
    closed_ = true;
    paused_ = false;  // a paused former still drains on shutdown
  }
  ready_cv_.notify_all();
  space_cv_.notify_all();
}

}  // namespace nttpim::service
