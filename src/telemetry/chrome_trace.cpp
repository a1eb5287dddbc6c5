#include "telemetry/chrome_trace.h"

#include <cstdint>
#include <iomanip>
#include <ostream>
#include <sstream>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "telemetry/trace_event.h"

namespace nttpim::telemetry {

namespace {

// All events share one synthetic process; threads are real tracks.
constexpr int kPid = 1;

// Slices whose closing anchor never arrived (drained mid-flight, or the
// anchor was dropped on ring overflow) get 1 ns so the viewer shows them.
constexpr std::int64_t kMinDurNs = 1;

/// Trace-event timestamps are microseconds; keep nanosecond precision
/// as three fixed decimals (also keeps the output deterministic for the
/// golden-file test).
std::string us(std::int64_t ns) {
  std::ostringstream out;
  out << std::fixed << std::setprecision(3) << static_cast<double>(ns) / 1e3;
  return out.str();
}

std::string escape(const std::string& in) {
  std::string out;
  out.reserve(in.size());
  for (const char c : in) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) >= 0x20) out.push_back(c);
  }
  return out;
}

/// Comma/indent bookkeeping for the flat traceEvents array.
class EventArray {
 public:
  explicit EventArray(std::ostream& os) : os_(os) {
    os_ << "{\n  \"displayTimeUnit\": \"ms\",\n  \"traceEvents\": [";
  }

  std::ostream& event() {
    if (!first_) os_ << ',';
    first_ = false;
    os_ << "\n    ";
    return os_;
  }

  void finish() { os_ << "\n  ]\n}\n"; }

 private:
  std::ostream& os_;
  bool first_ = true;
};

/// Incremental {"k": v, ...} builder for the "args" payload.
class Args {
 public:
  Args& add(const char* key, std::uint64_t value) {
    if (!body_.empty()) body_ += ", ";
    body_ += '"';
    body_ += key;
    body_ += "\": ";
    body_ += std::to_string(value);
    return *this;
  }

  std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

void meta(EventArray& out, std::uint64_t tid, const std::string& name) {
  out.event() << "{\"ph\": \"M\", \"pid\": " << kPid << ", \"tid\": " << tid
              << ", \"name\": \"thread_name\", \"args\": {\"name\": \""
              << escape(name) << "\"}}";
}

void slice(EventArray& out, std::uint64_t tid, const char* cat,
           const std::string& name, std::int64_t ts_ns, std::int64_t dur_ns,
           const std::string& args) {
  if (dur_ns < kMinDurNs) dur_ns = kMinDurNs;
  out.event() << "{\"ph\": \"X\", \"pid\": " << kPid << ", \"tid\": " << tid
              << ", \"ts\": " << us(ts_ns) << ", \"dur\": " << us(dur_ns)
              << ", \"cat\": \"" << cat << "\", \"name\": \"" << escape(name)
              << "\", \"args\": " << args << "}";
}

void instant(EventArray& out, std::uint64_t tid, const char* cat,
             const std::string& name, std::int64_t ts_ns,
             const std::string& args) {
  out.event() << "{\"ph\": \"i\", \"s\": \"t\", \"pid\": " << kPid
              << ", \"tid\": " << tid << ", \"ts\": " << us(ts_ns)
              << ", \"cat\": \"" << cat << "\", \"name\": \"" << escape(name)
              << "\", \"args\": " << args << "}";
}

/// One piece of a request's flow arrow: ph is "s" (start), "t" (step)
/// or "f" (end); the id is the request's seq. The piece binds to the
/// slice open at ts on that thread, which is why flow pieces are always
/// emitted right after their enclosing slice.
void flow(EventArray& out, std::uint64_t tid, const char* ph,
          std::int64_t ts_ns, std::uint64_t id) {
  std::ostream& os = out.event();
  os << "{\"ph\": \"" << ph << "\", \"pid\": " << kPid << ", \"tid\": " << tid
     << ", \"ts\": " << us(ts_ns)
     << ", \"cat\": \"request\", \"name\": \"request\", \"id\": " << id;
  // "bp": "e" binds the terminating piece to its enclosing slice, like
  // the start/step pieces are.
  if (ph[0] == 'f') os << ", \"bp\": \"e\"";
  os << "}";
}

struct RequestIndex {
  std::int64_t enqueue_ts = -1;
  std::int64_t cut_ts = -1;
};

struct WaveIndex {
  std::int64_t exec_begin_ts = -1;
  std::int64_t exec_end_ts = -1;
  std::uint64_t cycles = 0;  ///< modeled cycles, booked on ExecuteEnd
  std::vector<std::uint64_t> seqs;
};

}  // namespace

void write_chrome_trace(std::ostream& os,
                        const TraceCollector::Snapshot& snapshot) {
  // Pass 1: index the closing anchors each slice/flow needs, keyed by
  // the join keys the events carry (request seq, wave id).
  std::unordered_map<std::uint64_t, RequestIndex> requests;
  std::unordered_map<std::uint64_t, WaveIndex> waves;
  for (const TraceCollector::ThreadTrace& thread : snapshot.threads) {
    for (const TraceEvent& e : thread.events) {
      switch (e.kind) {
        case EventKind::kFormerEnqueue:
          if (e.seq != kNoSeq) requests[e.seq].enqueue_ts = e.ts_ns;
          break;
        case EventKind::kWaveCut:
          if (e.seq != kNoSeq) {
            requests[e.seq].cut_ts = e.ts_ns;
            waves[e.wave_id].seqs.push_back(e.seq);
          }
          break;
        case EventKind::kExecuteBegin:
          waves[e.wave_id].exec_begin_ts = e.ts_ns;
          break;
        case EventKind::kExecuteEnd:
          waves[e.wave_id].exec_end_ts = e.ts_ns;
          waves[e.wave_id].cycles = e.cycles;
          break;
        default:
          break;
      }
    }
  }

  EventArray out(os);
  out.event() << "{\"ph\": \"M\", \"pid\": " << kPid
              << ", \"name\": \"process_name\", \"args\": {\"name\": "
              << "\"nttpim-service\"}}";
  for (const TraceCollector::ThreadTrace& thread : snapshot.threads)
    meta(out, thread.tid, thread.name);

  // Pass 2: stream every thread's events in emit order.
  std::unordered_set<std::uint64_t> cut_slice_emitted;
  for (const TraceCollector::ThreadTrace& thread : snapshot.threads) {
    const std::uint64_t tid = thread.tid;
    for (std::size_t i = 0; i < thread.events.size(); ++i) {
      const TraceEvent& e = thread.events[i];
      switch (e.kind) {
        case EventKind::kSubmit: {
          std::int64_t end = -1;
          if (e.seq != kNoSeq) {
            const auto it = requests.find(e.seq);
            if (it != requests.end()) end = it->second.enqueue_ts;
          } else if (i + 1 < thread.events.size() &&
                     thread.events[i + 1].kind == EventKind::kShed) {
            end = thread.events[i + 1].ts_ns;  // shed submits pair locally
          }
          Args args;
          if (e.seq != kNoSeq) args.add("seq", e.seq);
          args.add("tenant", e.tenant);
          slice(out, tid, "request", "submit", e.ts_ns, end - e.ts_ns,
                args.str());
          if (e.seq != kNoSeq) flow(out, tid, "s", e.ts_ns, e.seq);
          break;
        }
        case EventKind::kAdmit:
          instant(out, tid, "request", "admit", e.ts_ns,
                  Args().add("seq", e.seq).add("tenant", e.tenant).str());
          break;
        case EventKind::kShed:
          instant(out, tid, "request", "shed", e.ts_ns,
                  Args().add("tenant", e.tenant).str());
          break;
        case EventKind::kFormerEnqueue: {
          std::int64_t end = -1;
          const auto it = requests.find(e.seq);
          if (it != requests.end()) end = it->second.cut_ts;
          slice(out, tid, "request", "queued", e.ts_ns, end - e.ts_ns,
                Args().add("seq", e.seq).add("tenant", e.tenant).str());
          break;
        }
        case EventKind::kWaveCut: {
          if (cut_slice_emitted.insert(e.wave_id).second) {
            const WaveIndex& wave = waves[e.wave_id];
            slice(out, tid, "wave", "cut wave " + std::to_string(e.wave_id),
                  e.ts_ns, wave.exec_begin_ts - e.ts_ns,
                  Args()
                      .add("wave", e.wave_id)
                      .add("requests", wave.seqs.size())
                      .str());
          }
          if (e.seq != kNoSeq) flow(out, tid, "t", e.ts_ns, e.seq);
          break;
        }
        case EventKind::kExecuteBegin: {
          const WaveIndex& wave = waves[e.wave_id];
          slice(out, tid, "wave", "wave " + std::to_string(e.wave_id),
                e.ts_ns, wave.exec_end_ts - e.ts_ns,
                Args()
                    .add("wave", e.wave_id)
                    .add("shard", e.shard)
                    .add("cycles", wave.cycles)
                    .str());
          for (const std::uint64_t seq : wave.seqs)
            flow(out, tid, "t", e.ts_ns, seq);
          break;
        }
        case EventKind::kExecuteEnd:
          break;  // consumed as the ExecuteBegin slice's duration and cycles
        case EventKind::kDeadlineMiss:
          instant(out, tid, "request", "deadline miss", e.ts_ns,
                  Args().add("seq", e.seq).add("tenant", e.tenant).str());
          break;
        case EventKind::kComplete:
        case EventKind::kFail:
          slice(out, tid, "request",
                e.kind == EventKind::kComplete ? "complete" : "fail", e.ts_ns,
                kMinDurNs,
                Args()
                    .add("seq", e.seq)
                    .add("wave", e.wave_id)
                    .add("tenant", e.tenant)
                    .str());
          flow(out, tid, "f", e.ts_ns, e.seq);
          break;
      }
    }
  }
  out.finish();
}

std::string chrome_trace_json(const TraceCollector::Snapshot& snapshot) {
  std::ostringstream out;
  write_chrome_trace(out, snapshot);
  return out.str();
}

}  // namespace nttpim::telemetry
