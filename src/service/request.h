// Request types of the async NTT serving runtime.
//
// A Request is the unit clients hand to NttService::submit(): one
// polynomial to transform (forward or inverse negacyclic NTT) or one
// negacyclic product of two polynomials. The service owns the coefficient
// data for the request's lifetime — clients move vectors in and receive
// the result through a std::future or a fire-and-forget callback, so no
// client buffer has to stay alive while the request sits in the queue.
//
// Parameter sets travel as shared_ptr<const NttParams>: requests outlive
// the submitting call, so a reference-held parameter set would be a
// use-after-free trap. Sharing one parameter object across thousands of
// requests is also what keeps per-request overhead at two pointer copies.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "ntt/params.h"

namespace nttpim::service {

/// Clock every service latency figure is measured on.
using ServiceClock = std::chrono::steady_clock;

/// What submit() does when the bounded request queue is full.
enum class OverflowPolicy {
  kBlock,   ///< block the submitting thread until space frees up
  kReject,  ///< fail the request immediately (QueueFullError in its future)
};

/// Backpressure rejection under OverflowPolicy::kReject: delivered through
/// the request's future/callback, never thrown at the submit() call site.
class QueueFullError : public std::runtime_error {
 public:
  QueueFullError()
      : std::runtime_error(
            "NttService queue full (OverflowPolicy::kReject)") {}
};

/// The service stopped accepting work (shutdown() raced the submission).
class ServiceStoppedError : public std::runtime_error {
 public:
  ServiceStoppedError()
      : std::runtime_error("NttService is shut down") {}
};

/// The request's tenant exhausted its token bucket (see
/// service/admission.h): shed *before* the bounded queue, so a flooding
/// tenant never costs queue space or coalescing delay. Delivered through
/// the request's future/callback like every other submission failure.
class AdmissionShedError : public std::runtime_error {
 public:
  AdmissionShedError()
      : std::runtime_error(
            "request shed by per-tenant admission control") {}
};

/// QoS class of one request: which tenant issued it and how urgent it is.
/// The class travels with the request through every layer — admission
/// buckets and per-class stats key on `tenant`, wave forming orders by
/// `deadline` (with `priority` breaking ties). A default-constructed class
/// is "classless": tenant 0, priority 0, no deadline — its requests form
/// waves in arrival order.
struct RequestClass {
  /// Tenant id, in [0, ServiceConfig::qos.num_classes). Indexes the
  /// admission bucket and the per-class stats slot.
  std::uint32_t tenant = 0;
  /// Larger = more urgent. Orders requests with equal effective deadlines
  /// (in particular, all deadline-less requests against each other).
  int priority = 0;
  /// Absolute completion target. Requests with a deadline jump coalescing
  /// delay (the former flushes no later than the earliest pending
  /// deadline) and sort ahead of deadline-less traffic everywhere.
  std::optional<ServiceClock::time_point> deadline;

  /// Deadline used for EDF ordering: the explicit one, or +inf so
  /// deadline-less requests sort after every deadlined one.
  ServiceClock::time_point edf_deadline() const noexcept {
    return deadline ? *deadline : ServiceClock::time_point::max();
  }
};

/// Per-request options of every NttService::submit() variant, so growing
/// the submission surface never multiplies overloads again. Wave forming
/// and per-tenant admission both act on the `qos` class.
struct SubmitOptions {
  /// Transform direction (transforms only; ignored by submit_multiply).
  bool inverse = false;
  /// Tenant / priority / deadline of the request (see RequestClass).
  RequestClass qos;
};

/// Fire-and-forget completion hook. Exactly one of (result, error) is
/// meaningful: error == nullptr on success. Runs on a shard worker thread;
/// it must not throw (exceptions are swallowed to keep the shard alive) and
/// must not call back into the submitting service's blocking APIs
/// (drain/shutdown) — that would deadlock the worker on itself.
using Callback =
    std::function<void(std::vector<std::uint32_t>&& result,
                       std::exception_ptr error)>;

/// One queued unit of work. Internal to the service and its wave-former;
/// clients only ever see the submit() signatures.
struct Request {
  enum class Kind {
    kTransform,  ///< forward/inverse negacyclic NTT of `a`
    kMultiply,   ///< negacyclic product `a * b` in Z_q[X]/(X^N + 1)
  };

  Kind kind = Kind::kTransform;
  std::vector<std::uint32_t> a;
  std::vector<std::uint32_t> b;  ///< second operand, kMultiply only
  std::shared_ptr<const ntt::NttParams> params;
  bool inverse = false;  ///< direction, kTransform only
  RequestClass qos;      ///< tenant / priority / deadline (see SubmitOptions)
  std::promise<std::vector<std::uint32_t>> promise;
  Callback callback;      ///< when set, the promise is not used
  /// Stamped at NttService::submit entry, before admission — the zero
  /// point of the telemetry stage breakdown (admission wait =
  /// enqueued - submitted).
  ServiceClock::time_point submitted{};
  ServiceClock::time_point enqueued{};  ///< stamped by the wave-former
  /// Stamped by the wave-former when the request is cut into a wave;
  /// shard-queue wait in the stage breakdown starts here.
  ServiceClock::time_point cut_at{};
  /// Stamped by the shard right after deliver() returned; the completion
  /// stage of the breakdown ends here.
  ServiceClock::time_point delivered{};
  /// Arrival sequence number, stamped by the wave-former. The FIFO
  /// tie-break of every QoS ordering — (deadline, priority, seq) — so
  /// classless traffic keeps exact submission order even under a fake
  /// clock where many requests share one timestamp.
  std::uint64_t seq = 0;
  /// Monotone id of the wave the former cut this request into (1-based;
  /// 0 = not cut yet). Every request of a wave shares it — the join key
  /// of the wave's trace events.
  std::uint64_t wave_id = 0;

  /// Batch items this request contributes to a wave's *forward* engine
  /// pass: a multiply transforms both operands.
  std::size_t batch_items() const noexcept {
    return kind == Kind::kMultiply ? 2 : 1;
  }

  /// Complete the request with `result` (moves it out).
  void deliver(std::vector<std::uint32_t>&& result) {
    if (callback) {
      try {
        callback(std::move(result), nullptr);
      } catch (...) {  // see Callback: must-not-throw contract
      }
    } else {
      promise.set_value(std::move(result));
    }
  }

  /// Complete the request with an error.
  void fail(std::exception_ptr error) {
    if (callback) {
      try {
        callback({}, std::move(error));
      } catch (...) {
      }
    } else {
      promise.set_exception(std::move(error));
    }
  }
};

}  // namespace nttpim::service
