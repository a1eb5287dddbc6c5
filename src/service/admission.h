// Per-tenant token-bucket admission control.
//
// Admission sits *ahead of* the bounded request queue (see
// NttService::enqueue): a tenant that exceeds its contracted rate is shed
// immediately — its requests fail with AdmissionShedError without ever
// costing queue capacity, coalescing delay or a wave slot. That is the
// difference between admission and backpressure: backpressure (the
// former's bounded queue) protects the service from *aggregate* overload
// and punishes whoever submits next, while admission protects the
// well-behaved tenants from a flooding one and punishes exactly the
// flooder.
//
// Each tenant gets a classic token bucket: `burst` tokens of capacity,
// refilled continuously at `rate_per_sec`. One request costs one token;
// a request that finds the bucket empty is shed. Tenants beyond the
// configured vector (and tenants whose entry is unlimited()) are always
// admitted — admission is opt-in per tenant.
//
// Time is a parameter: admit() takes the instant it judges at
// (NttService passes the request's submit stamp), so the refill
// arithmetic is testable to exact token counts without sleeping.
#pragma once

#include <cstdint>
#include <vector>

#include "service/request.h"
#include "sync/mutex.h"

namespace nttpim::service {

/// Rate contract of one tenant.
struct TokenBucketConfig {
  /// Sustained admission rate, tokens (requests) per second. 0 means the
  /// bucket never refills — the tenant gets exactly `burst` requests, a
  /// deterministic cap the staged tests rely on. Must be >= 0.
  double rate_per_sec = 0;
  /// Bucket capacity: the burst a tenant can spend at once (and the level
  /// a fresh bucket starts at). <= 0 marks the tenant unlimited.
  double burst = 0;

  bool unlimited() const noexcept { return burst <= 0; }
};

/// Thread-safe token-bucket bank, one bucket per configured tenant.
class AdmissionController {
 public:
  enum class Decision { kAdmit, kShed };

  /// Bucket per tenant id; tenants at or beyond the end are unlimited.
  explicit AdmissionController(std::vector<TokenBucketConfig> tenants);

  /// Charge one token to `tenant`'s bucket at time `now`. kShed when the
  /// bucket, refilled to `now`, holds less than one token; unlimited
  /// tenants always admit without touching any bucket. A `now` earlier
  /// than the bucket's last refill refills nothing.
  Decision admit(std::uint32_t tenant, ServiceClock::time_point now);

 private:
  /// A bucket starts full and never refills above its burst, so it needs
  /// no start time: the first admit, at any `now`, finds it full.
  struct Bucket {
    double tokens = 0;
    ServiceClock::time_point last{};  ///< refill high-water mark
  };

  const std::vector<TokenBucketConfig> tenants_;
  sync::Mutex mu_;
  /// Parallel to tenants_.
  std::vector<Bucket> buckets_ NTTPIM_GUARDED_BY(mu_);
};

}  // namespace nttpim::service
