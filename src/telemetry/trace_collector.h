// TraceCollector — the runtime half of the telemetry subsystem.
//
// Owns one bounded SPSC EventRing per producing thread, registered
// lazily on the thread's first emit (or set_thread_name). The emit hot
// path costs one relaxed atomic load and a branch when tracing is
// disabled, and is lock-free and allocation-free when enabled: the
// calling thread caches its ring in a thread_local slot, so only the
// very first event from a thread takes the registration mutex. Drains
// (exporting) and counter reads are cold-path and serialized under that
// same mutex, which producers never touch.
//
// Timestamps are nanoseconds since the collector's construction
// (now_ns / to_ns); exporters convert to trace-viewer units.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "sync/mutex.h"
#include "telemetry/trace_event.h"

namespace nttpim::telemetry {

class TraceCollector {
 public:
  struct Config {
    /// Master gate, fixed at construction. Disabled (the default): no
    /// ring is ever allocated and emit() is one relaxed load + branch.
    bool enabled = false;
    /// Per-thread ring capacity in events, rounded up to a power of two.
    /// Overflow drops the new event and counts it (dropped_events()).
    std::size_t ring_capacity = 1 << 14;
  };

  TraceCollector();
  explicit TraceCollector(const Config& config);
  ~TraceCollector();

  TraceCollector(const TraceCollector&) = delete;
  TraceCollector& operator=(const TraceCollector&) = delete;

  bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Nanoseconds since this collector's construction — the ts_ns unit
  /// of every event it stores.
  std::int64_t now_ns() const noexcept {
    return to_ns(std::chrono::steady_clock::now());
  }
  std::int64_t to_ns(std::chrono::steady_clock::time_point tp) const noexcept {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(tp - epoch_)
        .count();
  }

  /// Record one event on the calling thread's ring. If the ring is full
  /// the event is dropped and counted — never blocks, never tears.
  void emit(const TraceEvent& event);

  /// Label the calling thread's track in exported traces ("shard-0",
  /// ...); unnamed threads show as "thread-<tid>". Call sites
  /// should guard any name-string construction behind enabled() — this
  /// is a no-op (and allocates nothing) when tracing is disabled.
  void set_thread_name(std::string_view name);

  struct ThreadTrace {
    std::string name;
    std::uint64_t tid = 0;  ///< stable per-thread id (registration order)
    std::vector<TraceEvent> events;  ///< in emit order for this thread
  };
  struct Snapshot {
    std::vector<ThreadTrace> threads;
    std::uint64_t dropped_events = 0;
  };

  /// Consume every published event. Producers may keep emitting
  /// concurrently; their in-flight events simply land in the next drain.
  Snapshot drain();

  /// Drop all buffered events and zero the recorded/dropped counters.
  /// Like the service's stats epoch, meant to be called at a quiesce
  /// point — events emitted concurrently with the reset may land on
  /// either side of it.
  void reset();

  /// Events recorded (excluding drops) / dropped since the last reset.
  std::uint64_t total_events() const;
  std::uint64_t dropped_events() const;
  /// Threads that have registered a ring.
  std::size_t thread_count() const;

 private:
  struct ThreadBuffer;

  /// Cold path: find-or-create the calling thread's ring via the
  /// thread-local (collector id -> ring) registry — never by thread id,
  /// which the OS recycles (a new thread must never adopt a dead thread's
  /// ring or name). A thread alternating between collectors re-registers
  /// its existing ring instead of duplicating it. Optionally (re)names the
  /// ring and refreshes the thread_local fast-path cache. Returns the ring
  /// buffer.
  ThreadBuffer* register_thread(std::string_view name);

  const Config cfg_{};
  /// Globally unique (monotone, never reused) id of this collector when
  /// enabled; keys the thread_local ring cache so a stale cache entry
  /// from a destroyed collector can never be mistaken for ours.
  const std::uint64_t id_ = 0;
  std::atomic<bool> enabled_{false};
  const std::chrono::steady_clock::time_point epoch_ =
      std::chrono::steady_clock::now();

  /// Registration, drains, counter reads. Guards the buffer *vector*
  /// only: each ThreadBuffer's ring is an SPSC channel its owning
  /// producer writes lock-free (the reason there is no PT_GUARDED_BY —
  /// the pointees are deliberately accessed outside the lock).
  mutable sync::Mutex mu_;
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_ NTTPIM_GUARDED_BY(mu_);
};

}  // namespace nttpim::telemetry
