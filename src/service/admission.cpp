#include "service/admission.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "common/check.h"

namespace nttpim::service {

AdmissionController::AdmissionController(
    std::vector<TokenBucketConfig> tenants)
    : tenants_(std::move(tenants)), buckets_(tenants_.size()) {
  for (std::size_t t = 0; t < tenants_.size(); ++t) {
    NTTPIM_EXPECT_MSG(tenants_[t].rate_per_sec >= 0,
                      "token-bucket refill rate must be >= 0");
    // A fresh bucket is full: a tenant's first burst is always admitted.
    buckets_[t].tokens = std::max(tenants_[t].burst, 0.0);
  }
}

AdmissionController::Decision AdmissionController::admit(
    std::uint32_t tenant, ServiceClock::time_point now) {
  if (tenant >= tenants_.size() || tenants_[tenant].unlimited())
    return Decision::kAdmit;
  const TokenBucketConfig& tc = tenants_[tenant];
  const sync::MutexLock lk(mu_);
  Bucket& b = buckets_[tenant];
  if (now > b.last) {
    // Refill for the time elapsed since the last refill, capped at burst.
    const double elapsed_sec =
        std::chrono::duration<double>(now - b.last).count();
    b.tokens = std::min(tc.burst, b.tokens + tc.rate_per_sec * elapsed_sec);
    b.last = now;
  }
  if (b.tokens < 1.0) return Decision::kShed;
  b.tokens -= 1.0;
  return Decision::kAdmit;
}

}  // namespace nttpim::service
