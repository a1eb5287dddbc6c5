#include "harness.h"

#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <numeric>
#include <sstream>
#include <stdexcept>

#include "ntt/negacyclic.h"
#include "ntt/poly.h"
#include "ntt/primes.h"

namespace nttpim::benchmark {

std::vector<KeyPool> make_pools(std::size_t n, std::size_t moduli,
                                const std::vector<OpKind>& kinds,
                                std::uint64_t seed) {
  std::mt19937_64 rng(seed * 0x9E3779B97F4A7C15ULL + n);
  std::vector<KeyPool> pools;
  for (const std::uint32_t q : ntt::find_ntt_primes(n, 30, moduli)) {
    const auto params = std::make_shared<const ntt::NttParams>(n, q);
    std::uniform_int_distribution<std::uint32_t> coeff(0, q - 1);
    const auto random_poly = [&] {
      std::vector<std::uint32_t> p(n);
      for (auto& x : p) x = coeff(rng);
      return p;
    };
    for (const OpKind kind : kinds) {
      KeyPool pool{params, kind, {}};
      for (std::size_t i = 0; i < kCasesPerKey; ++i) {
        Case c;
        c.a = random_poly();
        c.expected = c.a;
        switch (kind) {
          case OpKind::kForward:
            ntt::forward_negacyclic_ntt(c.expected, *params);
            break;
          case OpKind::kInverse:
            ntt::inverse_negacyclic_ntt(c.expected, *params);
            break;
          case OpKind::kMultiply:
            c.b = random_poly();
            c.expected = ntt::negacyclic_convolution_ntt(c.a, c.b, *params);
            break;
        }
        pool.cases.push_back(std::move(c));
      }
      pools.push_back(std::move(pool));
    }
  }
  return pools;
}

double percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(samples.size())));
  const std::size_t k = rank == 0 ? 0 : rank - 1;
  std::nth_element(samples.begin(), samples.begin() + k, samples.end());
  return samples[k];
}

double mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0;
  return std::accumulate(samples.begin(), samples.end(), 0.0) /
         static_cast<double>(samples.size());
}

double median(std::vector<double> samples) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const std::size_t m = samples.size() / 2;
  return samples.size() % 2 ? samples[m] : (samples[m - 1] + samples[m]) / 2;
}

double PassStats::mean_latency_us() const {
  double sum = 0;
  std::size_t count = 0;
  for (const double us : latency_us)
    if (std::isfinite(us)) {
      sum += us;
      ++count;
    }
  return count ? sum / static_cast<double>(count) : 0;
}

Figures best_slices(const PassStats& pass) {
  const std::size_t slices = std::max<std::size_t>(
      1, static_cast<std::size_t>(pass.elapsed_s / kSliceS));
  const double slice_s = pass.elapsed_s / static_cast<double>(slices);
  std::vector<std::vector<double>> latency(slices);
  for (std::size_t i = 0; i < pass.latency_us.size(); ++i)
    latency[std::min(slices - 1,
                     static_cast<std::size_t>(pass.done_s[i] / slice_s))]
        .push_back(pass.latency_us[i]);
  Figures best{0, std::numeric_limits<double>::infinity(),
               std::numeric_limits<double>::infinity()};
  for (const std::vector<double>& slice : latency) {
    if (slice.empty()) continue;
    best.ops_per_s =
        std::max(best.ops_per_s, static_cast<double>(slice.size()) *
                                     pass.ops_per_sample / slice_s);
    best.p50_us = std::min(best.p50_us, percentile(slice, 0.5));
    best.p90_us = std::min(best.p90_us, percentile(slice, 0.9));
  }
  if (pass.paced) best.ops_per_s = pass.ops_per_s();
  return best;
}

namespace {

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) >= 0x20) out.push_back(c);
  }
  return out + "\"";
}

/// Every digit of a double; non-finite values become null, which run.py
/// rejects.
std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

std::string Result::json(const RunConfig& config) const {
  std::ostringstream out;
  out << "{\"workload\": " << quoted(config.workload)
      << ", \"seed\": " << config.seed << ", \"trace\": " << config.trace
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"errors\": [";
  for (std::size_t i = 0; i < errors_.size(); ++i)
    out << (i ? ", " : "") << quoted(errors_[i]);
  out << "], \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i)
    out << (i ? ", " : "") << quoted(metrics_[i].first) << ": "
        << number(metrics_[i].second);
  out << "}}";
  return out.str();
}

namespace {
std::atomic<std::uint64_t> next_recorder_id{1};
}  // namespace

SpanRecorder::SpanRecorder(Clock::time_point epoch)
    : epoch_(epoch),
      id_(next_recorder_id.fetch_add(1, std::memory_order_relaxed)) {}

SpanRecorder::Buffer& SpanRecorder::local() {
  thread_local std::uint64_t cached_id = 0;
  thread_local Buffer* cached = nullptr;
  if (cached_id != id_) {
    const sync::MutexLock lk(mu_);
    buffers_.push_back(std::make_unique<Buffer>());
    buffers_.back()->index = buffers_.size() - 1;
    buffers_.back()->spans.reserve(1 << 14);
    cached = buffers_.back().get();
    cached_id = id_;
  }
  return *cached;
}

void SpanRecorder::record(const char* name, std::uint64_t request,
                          Clock::time_point begin, Clock::time_point end) {
  const auto ns = [this](Clock::time_point t) {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_)
        .count();
  };
  local().spans.push_back({name, request, ns(begin), ns(end)});
}

std::string SpanRecorder::chrome_events() const {
  // pid 2 keeps the benchmark's tracks apart from the service's (pid 1).
  std::ostringstream out;
  out << "{\"ph\": \"M\", \"pid\": 2, \"name\": \"process_name\", "
         "\"args\": {\"name\": \"benchmark\"}}";
  char buf[64];
  const sync::MutexLock lk(mu_);
  for (const auto& buffer : buffers_) {
    out << ",\n    {\"ph\": \"M\", \"pid\": 2, \"tid\": " << buffer->index
        << ", \"name\": \"thread_name\", \"args\": {\"name\": \"bench-"
        << buffer->index << "\"}}";
    for (const Span& s : buffer->spans) {
      out << ",\n    {\"ph\": \"X\", \"pid\": 2, \"tid\": " << buffer->index;
      std::snprintf(buf, sizeof buf, ", \"ts\": %.3f, \"dur\": %.3f",
                    static_cast<double>(s.begin_ns) / 1e3,
                    static_cast<double>(s.end_ns - s.begin_ns) / 1e3);
      out << buf << ", \"cat\": \"benchmark\", \"name\": \"" << s.name
          << "\", \"args\": {\"req\": " << s.request << "}}";
    }
  }
  return out.str();
}

void write_trace(const std::string& path, const std::string& service_json,
                 const SpanRecorder& spans) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write trace " + path);
  // The service document is one object whose last member is the
  // traceEvents array: splice the spans in before that array closes.
  const std::size_t close = service_json.rfind(']');
  if (close == std::string::npos) {
    out << "{\n  \"displayTimeUnit\": \"ms\",\n  \"traceEvents\": [\n    "
        << spans.chrome_events() << "\n  ]\n}\n";
  } else {
    out << service_json.substr(0, close) << ",\n    " << spans.chrome_events()
        << service_json.substr(close);
  }
  if (!out) throw std::runtime_error("failed writing trace " + path);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace nttpim::benchmark
