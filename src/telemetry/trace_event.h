// Fixed-size POD trace events of the serving-stack telemetry subsystem.
//
// One TraceEvent is one timestamped point on a request's or wave's
// lifecycle through the serving runtime (src/service/): submission and
// admission on the client thread, then — on the shard that pulled the
// wave — the wave-former's cut, the engine passes, and delivery or
// failure. Events are deliberately a fixed-size trivially-copyable value
// type: the per-thread rings (ring_buffer.h) store them by plain struct
// assignment, so the producing hot path never allocates and a reader can
// never observe a torn event (publication is a single release store of
// the ring head, after the slot is fully written).
//
// The payload is the join key set of the serving stack: `seq` (the
// wave-former's arrival sequence number) identifies a request across its
// whole life; `wave_id` (monotone, stamped at cut time) identifies a wave
// from its cut through execution; shard/tenant/cycles attribute the event.
// Exporters (chrome_trace.h) stitch these keys back into per-request flow
// chains.
#pragma once

#include <cstddef>
#include <cstdint>
#include <type_traits>

namespace nttpim::telemetry {

/// Lifecycle points the serving stack emits. The emitting thread is part
/// of the meaning: Submit/Admit/Shed/FormerEnqueue come from the client
/// thread inside NttService::submit, and WaveCut/ExecuteBegin/ExecuteEnd/
/// DeadlineMiss/Complete/Fail from the shard worker that pulled the wave.
/// Every accepted request ends in exactly one Complete or Fail.
enum class EventKind : std::uint8_t {
  kSubmit = 0,     ///< a request entered NttService::submit (per request)
  kAdmit,          ///< per-tenant admission let it pass (admission on only)
  kShed,           ///< admission shed it — no seq was ever assigned
  kFormerEnqueue,  ///< accepted into the wave-former's bounded queue
  kWaveCut,        ///< the former cut it into a wave (one event per request)
  kExecuteBegin,   ///< a worker started the wave's engine pass(es)
  kExecuteEnd,     ///< the wave's engine pass(es) finished (even on error)
  kDeadlineMiss,   ///< the request completed after its deadline
  kComplete,       ///< the request's result was delivered
  kFail,           ///< the request's wave failed; its error was delivered
};

/// Exporter/debug name of one kind ("submit", "wave_cut", ...).
const char* to_string(EventKind kind) noexcept;

/// Request-less sentinel for TraceEvent::seq: wave-scoped events carry
/// only the wave, and a shed request never received a sequence number.
inline constexpr std::uint64_t kNoSeq = ~std::uint64_t{0};

/// One fixed-size trace sample (40 bytes). Fields a kind does not use
/// stay at their zero/sentinel defaults.
struct TraceEvent {
  std::int64_t ts_ns = 0;      ///< ns since the collector's epoch
  std::uint64_t seq = kNoSeq;  ///< request arrival seq (kNoSeq = none)
  std::uint64_t wave_id = 0;   ///< monotone wave id (0 = not cut yet)
  std::uint64_t cycles = 0;    ///< ExecuteEnd: the wave's modeled cycles
  EventKind kind = EventKind::kSubmit;
  std::uint16_t shard = 0;   ///< shard that pulled the wave
  std::uint32_t tenant = 0;  ///< RequestClass::tenant of the request/wave
};

static_assert(std::is_trivially_copyable_v<TraceEvent>,
              "ring slots are written by struct assignment");

}  // namespace nttpim::telemetry
