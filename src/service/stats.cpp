#include "service/stats.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace nttpim::service {

namespace {

/// p-th percentile (nearest-rank) of a scratch copy of the window: the
/// smallest sample x such that at least p% of the population is <= x, i.e.
/// the ceil(p/100 * n)-th smallest value. The floor() variant this
/// replaces was off by one rank — p50 over [1..100] returned the 51st
/// value, and p50 of a 2-sample window returned the max.
double percentile(std::vector<double>& sorted_scratch, double p) {
  if (sorted_scratch.empty()) return 0;
  const auto n = sorted_scratch.size();
  auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(n)));
  if (rank > 0) --rank;  // 1-based nearest rank -> 0-based index
  if (rank >= n) rank = n - 1;
  std::nth_element(sorted_scratch.begin(), sorted_scratch.begin() + rank,
                   sorted_scratch.end());
  return sorted_scratch[rank];
}

}  // namespace

LatencyRecorder::LatencyRecorder(std::size_t capacity) : capacity_(capacity) {
  NTTPIM_EXPECT_MSG(capacity >= 1, "latency window needs at least 1 sample");
  window_.reserve(std::min<std::size_t>(capacity, 1024));
}

void LatencyRecorder::record(double us) {
  ++count_;
  sum_us_ += us;
  max_us_ = std::max(max_us_, us);
  if (window_.size() < capacity_) {
    window_.push_back(us);
  } else {
    window_[next_] = us;
    next_ = (next_ + 1) % capacity_;
  }
}

void LatencyRecorder::reset() {
  window_.clear();
  next_ = 0;
  count_ = 0;
  sum_us_ = 0;
  max_us_ = 0;
}

LatencySummary LatencyRecorder::summary() const {
  std::vector<double> scratch = window_;
  LatencySummary s;
  s.count = count_;
  s.mean_us = count_ ? sum_us_ / static_cast<double>(count_) : 0;
  s.max_us = max_us_;
  s.p50_us = percentile(scratch, 50);
  s.p95_us = percentile(scratch, 95);
  s.p99_us = percentile(scratch, 99);
  return s;
}

}  // namespace nttpim::service
