// Chrome trace-event JSON exporter (loadable in Perfetto / chrome://tracing).
//
// Renders a TraceCollector::Snapshot as the classic trace-event format:
// one track per registered thread (client threads, one per shard worker),
// waves and request lifecycle stages as "X" complete events (a wave's
// "cut wave" slice runs from its cut to its ExecuteBegin), admission
// verdicts and deadline misses as "i" instants, and each request as an
// "s"/"t"/"f" flow chain keyed by its seq — the arrow in the viewer that
// stitches submit -> queued -> cut -> execute -> complete (or fail)
// across threads.
//
// The exporter is tolerant of incomplete chains (a drained-mid-flight
// request, or pieces lost to ring overflow): a slice whose closing
// anchor is missing gets a minimal duration, and flow pieces are only
// emitted for events actually present.
#pragma once

#include <iosfwd>
#include <string>

#include "telemetry/trace_collector.h"

namespace nttpim::telemetry {

/// Write `snapshot` as Chrome trace-event JSON to `os`.
void write_chrome_trace(std::ostream& os,
                        const TraceCollector::Snapshot& snapshot);

/// Convenience wrapper rendering to a string (tests, small traces).
std::string chrome_trace_json(const TraceCollector::Snapshot& snapshot);

}  // namespace nttpim::telemetry
