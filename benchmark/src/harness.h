// Shared pieces of the benchmark workloads: seeded input pools with their
// CPU-reference outputs, latency statistics, repeated set-up timing, the
// result record printed as JSON, and the in-memory span recorder behind
// the traced run.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "ntt/params.h"
#include "sync/mutex.h"

namespace nttpim::benchmark {

using Clock = std::chrono::steady_clock;

inline double us_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::micro>(to - from).count();
}

/// The modeled device clock of every PIM backend the benchmark builds.
inline constexpr double kFreqMhz = 1200.0;
/// Per-bank CU buffers (Nb) of every PIM backend the benchmark builds.
inline constexpr std::size_t kNumBuffers = 4;
/// Cases generated per (modulus, operation) key.
inline constexpr std::size_t kCasesPerKey = 32;

/// One invocation of the benchmark executable.
struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;  ///< measured window (split into passes when traced)
  bool trace = false;   ///< per-layer run instead of the end-to-end run
  std::string trace_path;
};

enum class OpKind { kForward, kInverse, kMultiply };

/// One operation's inputs and its CPU-reference output.
struct Case {
  std::vector<std::uint32_t> a;
  std::vector<std::uint32_t> b;  ///< second operand (multiplies only)
  std::vector<std::uint32_t> expected;
};

/// The seeded cases of one (modulus, operation) key.
struct KeyPool {
  std::shared_ptr<const ntt::NttParams> params;
  OpKind kind = OpKind::kForward;
  std::vector<Case> cases;
};

/// kCasesPerKey cases for every (modulus, kind) pair: `moduli` distinct
/// 30-bit NTT-friendly primes for n, pools ordered modulus-major. Outputs
/// come from the ntt reference kernels, so a result compared against
/// `expected` is checked against an independent CPU computation.
std::vector<KeyPool> make_pools(std::size_t n, std::size_t moduli,
                                const std::vector<OpKind>& kinds,
                                std::uint64_t seed);

/// Nearest-rank percentile (q in [0, 1]); 0 for an empty sample.
double percentile(std::vector<double> samples, double q);
double mean(const std::vector<double>& samples);
double median(std::vector<double> samples);

/// What one measured pass of a workload observed from the client side.
struct PassStats {
  /// Per-op latency (µs); +inf for an op that failed, so it misses any
  /// latency limit.
  std::vector<double> latency_us;
  /// Generator lag (µs): open loop, how late each send left against its
  /// schedule; closed loop, a client's own time from receiving a result
  /// to issuing its next op.
  std::vector<double> lag_us;
  std::vector<double> submit_call_us;  ///< duration of each submit() call
  /// When each latency sample completed, in seconds from the pass start.
  std::vector<double> done_s;
  /// Ops one latency sample stands for (a kernel sample is a whole wave).
  double ops_per_sample = 1;
  /// Sends follow a schedule (open loop): the rate is the schedule's, not
  /// the host's.
  bool paced = false;
  std::uint64_t attempted = 0;
  std::uint64_t completed = 0;   ///< ops that returned a result
  std::uint64_t mismatches = 0;  ///< returned results != CPU reference
  std::uint64_t errors = 0;      ///< ops that failed with an exception
  double elapsed_s = 0;

  double ops_per_s() const {
    return elapsed_s > 0 ? static_cast<double>(completed) / elapsed_s : 0;
  }
  /// Mean of the finite latencies.
  double mean_latency_us() const;
};

/// Slice length of the end-to-end timing figures, in seconds.
inline constexpr double kSliceS = 0.25;

/// The end-to-end timing figures of a pass. The window is cut into equal
/// slices of about kSliceS and each figure is the best slice's: the lowest
/// p50 and p90 and the highest completion rate. Other tenants of a shared
/// host only ever add time, in episodes of seconds, so the best slice
/// estimates what the code itself costs; the whole window would measure
/// the neighbours. A paced (open-loop) pass reports its whole-window rate
/// instead: there a slice's rate is its share of the arrival schedule,
/// not host speed.
struct Figures {
  double ops_per_s = 0;
  double p50_us = 0;
  double p90_us = 0;
};
Figures best_slices(const PassStats& pass);

/// Runs `make` `reps` times, timing each call, and returns the last
/// instance; earlier ones are destroyed before the next call so peak
/// memory holds one. `median_s` receives the median set-up time.
template <class Make>
auto timed_setup(int reps, double& median_s, Make make) {
  std::vector<double> seconds;
  decltype(make()) kept{};
  for (int i = 0; i < reps; ++i) {
    kept = {};
    const auto t0 = Clock::now();
    kept = make();
    seconds.push_back(us_between(t0, Clock::now()) / 1e6);
  }
  median_s = median(seconds);
  return kept;
}

/// The record one run prints: counters, metric values in emit order and
/// failed self-checks.
class Result {
 public:
  void set(std::string name, double value) {
    metrics_.emplace_back(std::move(name), value);
  }
  /// A self-check that failed; the run reports correct = false.
  void fail_check(std::string what) { errors_.push_back(std::move(what)); }
  /// Adds a pass's ops to the totals: attempted, and every op that did not
  /// return the reference result.
  void count(const PassStats& pass) {
    attempted += pass.attempted;
    failed += pass.attempted - (pass.completed - pass.mismatches);
  }

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  std::string json(const RunConfig& config) const;

 private:
  std::vector<std::pair<std::string, double>> metrics_;
  std::vector<std::string> errors_;
};

/// In-memory span recorder for the traced run: one span per call the
/// benchmark makes into a layer, tagged with the benchmark's request id.
/// Each thread appends to its own buffer without locking; buffers are read
/// only by chrome_events(), after every recording thread has stopped.
class SpanRecorder {
 public:
  /// `epoch` aligns the spans with the service's trace (its collector's
  /// epoch), so both share one timeline in the viewer.
  explicit SpanRecorder(Clock::time_point epoch);

  void record(const char* name, std::uint64_t request,
              Clock::time_point begin, Clock::time_point end);

  /// Chrome trace-event objects on their own process track, comma-joined.
  std::string chrome_events() const;

 private:
  struct Span {
    const char* name;
    std::uint64_t request;
    std::int64_t begin_ns;
    std::int64_t end_ns;
  };
  struct Buffer {
    std::size_t index = 0;
    std::vector<Span> spans;
  };
  Buffer& local();

  const Clock::time_point epoch_;
  /// Process-unique id, so a thread's cached buffer pointer can never be
  /// taken for one of a later recorder built at the same address.
  const std::uint64_t id_;
  mutable sync::Mutex mu_;
  std::vector<std::unique_ptr<Buffer>> buffers_ NTTPIM_GUARDED_BY(mu_);
};

/// Writes a Chrome trace: `service_json` (a telemetry::chrome_trace_json
/// document, or empty) with the recorder's spans appended.
void write_trace(const std::string& path, const std::string& service_json,
                 const SpanRecorder& spans);

/// ru_maxrss of this process, in MB.
double peak_rss_mb();

}  // namespace nttpim::benchmark
