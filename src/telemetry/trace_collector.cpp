#include "telemetry/trace_collector.h"

#include <utility>

#include "telemetry/ring_buffer.h"

namespace nttpim::telemetry {

namespace {

/// Collector ids start at 1: a default-constructed (disabled) collector
/// keeps id 0 and never consults the thread_local cache.
std::atomic<std::uint64_t> g_next_collector_id{1};

// Per-thread ring cache, two levels. The single slot below is the emit
// fast path (one comparison); the vector is the full registry of every
// (collector id, ring) this thread has registered, consulted on a slot
// miss so a thread alternating between collectors re-registers its
// existing rings instead of duplicating them. In both, the collector id
// guards against staleness: ids are monotone and never reused, so an
// entry for a destroyed collector can never match a live one. Threads
// are matched ONLY through this thread_local state, never by
// std::thread::id — the OS recycles thread ids, and matching on them
// let a new thread adopt a dead thread's ring and name. Entries for
// destroyed collectors linger (a pointer pair per collector the thread
// ever emitted to) but are never dereferenced.
thread_local std::uint64_t t_collector_id = 0;
thread_local void* t_buffer = nullptr;
thread_local std::vector<std::pair<std::uint64_t, void*>> t_rings;

}  // namespace

struct TraceCollector::ThreadBuffer {
  ThreadBuffer(std::size_t capacity, std::uint64_t tid, std::string name)
      : ring(capacity), tid(tid), name(std::move(name)) {}

  EventRing ring;
  std::uint64_t tid;
  std::string name;
  std::atomic<std::uint64_t> recorded{0};
  std::atomic<std::uint64_t> dropped{0};
};

TraceCollector::TraceCollector() = default;

TraceCollector::TraceCollector(const Config& config)
    : cfg_(config),
      id_(config.enabled
              ? g_next_collector_id.fetch_add(1, std::memory_order_relaxed)
              : 0) {
  enabled_.store(config.enabled, std::memory_order_relaxed);
}

TraceCollector::~TraceCollector() = default;

void TraceCollector::emit(const TraceEvent& event) {
  if (!enabled()) return;
  ThreadBuffer* buf = t_collector_id == id_
                          ? static_cast<ThreadBuffer*>(t_buffer)
                          : register_thread({});
  if (buf->ring.try_push(event)) {
    buf->recorded.fetch_add(1, std::memory_order_relaxed);
  } else {
    buf->dropped.fetch_add(1, std::memory_order_relaxed);
  }
}

void TraceCollector::set_thread_name(std::string_view name) {
  if (!enabled()) return;
  register_thread(name);
}

TraceCollector::ThreadBuffer* TraceCollector::register_thread(
    std::string_view name) {
  const sync::MutexLock lock(mu_);
  // This thread's ring for *this* collector, if it made one before (the
  // fast-path slot may have been overwritten by another collector). Only
  // the thread_local registry identifies the thread — see its comment.
  ThreadBuffer* buf = nullptr;
  for (const auto& [cid, ptr] : t_rings) {
    if (cid == id_) {
      buf = static_cast<ThreadBuffer*>(ptr);
      break;
    }
  }
  if (buf == nullptr) {
    const std::uint64_t tid = buffers_.size() + 1;
    buffers_.push_back(std::make_unique<ThreadBuffer>(
        cfg_.ring_capacity, tid,
        name.empty() ? "thread-" + std::to_string(tid) : std::string(name)));
    buf = buffers_.back().get();
    t_rings.emplace_back(id_, buf);
  } else if (!name.empty()) {
    buf->name = name;
  }
  t_collector_id = id_;
  t_buffer = buf;
  return buf;
}

TraceCollector::Snapshot TraceCollector::drain() {
  Snapshot snapshot;
  const sync::MutexLock lock(mu_);
  snapshot.threads.reserve(buffers_.size());
  for (const auto& buf : buffers_) {
    ThreadTrace trace;
    trace.name = buf->name;
    trace.tid = buf->tid;
    buf->ring.drain_into(trace.events);
    snapshot.dropped_events += buf->dropped.load(std::memory_order_relaxed);
    snapshot.threads.push_back(std::move(trace));
  }
  return snapshot;
}

void TraceCollector::reset() {
  const sync::MutexLock lock(mu_);
  std::vector<TraceEvent> discard;
  for (const auto& buf : buffers_) {
    discard.clear();
    buf->ring.drain_into(discard);
    buf->recorded.store(0, std::memory_order_relaxed);
    buf->dropped.store(0, std::memory_order_relaxed);
  }
}

std::uint64_t TraceCollector::total_events() const {
  const sync::MutexLock lock(mu_);
  std::uint64_t total = 0;
  for (const auto& buf : buffers_)
    total += buf->recorded.load(std::memory_order_relaxed);
  return total;
}

std::uint64_t TraceCollector::dropped_events() const {
  const sync::MutexLock lock(mu_);
  std::uint64_t total = 0;
  for (const auto& buf : buffers_)
    total += buf->dropped.load(std::memory_order_relaxed);
  return total;
}

std::size_t TraceCollector::thread_count() const {
  const sync::MutexLock lock(mu_);
  return buffers_.size();
}

}  // namespace nttpim::telemetry
