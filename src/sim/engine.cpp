#include "sim/engine.h"

#include <algorithm>
#include <limits>
#include <vector>

#include "common/check.h"
#include "dram/bank.h"

namespace nttpim::sim {

using dram::CmdKind;
using dram::Command;

namespace {

/// Per-bank refresh state machine: a due refresh proceeds through up to
/// three bus commands (PRE if a row is open, REF, restoring ACT), each
/// scheduled competitively so other banks keep using the bus in between.
enum class RefreshStep : std::uint8_t { kNone, kNeedRef, kNeedRestore };

/// A run of consecutive commands for one bank, and the trace index of its
/// first command (what TimelineEvent::trace_index reports).
struct Segment {
  std::span<const Command> commands;
  std::size_t bank;
  std::size_t first_index;
};

/// Rejects a command that may not run in bank `bank`'s program, before
/// any timing or functional state indexes by it.
void validate(const Command& cmd, std::size_t bank, std::size_t num_buffers) {
  NTTPIM_EXPECT_MSG(cmd.bank == bank, "command in another bank's program");
  NTTPIM_EXPECT_MSG(std::max(cmd.buf, cmd.buf2) < num_buffers,
                    "command references a buffer beyond Nb");
}

/// Per-bank scheduling state.
struct BankState {
  BankState(const dram::DramTiming& timing, std::size_t num_buffers)
      : timing(timing),
        buf_avail(num_buffers, 0),
        next_refresh(timing.trefi) {}

  dram::BankTiming timing;
  std::vector<std::uint64_t> buf_avail;  ///< buffer busy-until timestamps
  std::uint64_t cu_next_issue = 0;       ///< CU pipeline initiation slot
  std::uint64_t cu_last_end = 0;         ///< completion of last compute
  std::uint64_t scalar_ready = 0;        ///< scalar register file readiness
  std::uint64_t next_refresh = 0;        ///< next tREFI deadline
  RefreshStep refresh_step = RefreshStep::kNone;
  std::int64_t saved_row = dram::BankTiming::kNoOpenRow;

  // Program cursor: `head` walks the current segment up to `seg_end`, then
  // the bank's next segment in [next_segment, last_segment) takes over.
  const Command* head = nullptr;  ///< nullptr once the program is drained
  const Command* seg_end = nullptr;
  std::size_t head_index = 0;     ///< trace index of *head
  std::size_t next_segment = 0;
  std::size_t last_segment = 0;

  /// The keyed loop's decision for this bank: its next action is a refresh
  /// step rather than its head command.
  bool refresh_next = false;

  bool done() const noexcept { return head == nullptr; }
};

/// The timing pass: per-bank program cursors, the commit rules and the
/// transparent-refresh state machine. It touches no functional state. The
/// keyed and reference entry points differ only in how the next (bank,
/// cycle) pair is selected each step.
class Scheduler {
 public:
  /// `segments` holds every bank's program, grouped by bank in ascending
  /// bank order, each bank's segments in program order.
  Scheduler(const EngineConfig& config, const dram::DramGeometry& g,
            std::size_t num_buffers, std::span<const Segment> segments)
      : config_(config), t_(config.timing), segments_(segments) {
    NTTPIM_EXPECT_MSG(g.num_channels >= 1 && g.banks % g.num_channels == 0,
                      "banks must divide evenly across channels");
    bus_free_.assign(g.num_channels, 0);
    channel_makespan_.assign(g.num_channels, 0);
    banks_.reserve(g.banks);
    channel_.reserve(g.banks);
    for (std::size_t b = 0; b < g.banks; ++b) {
      banks_.emplace_back(t_, num_buffers);
      channel_.push_back(g.channel_of(b));
    }
    for (std::size_t i = 0; i < segments.size(); ++i) {
      BankState& bs = banks_[segments[i].bank];
      if (bs.next_segment == bs.last_segment) bs.next_segment = i;
      bs.last_segment = i + 1;
    }
    for (std::size_t b = 0; b < g.banks; ++b) load_head(b);
  }

  /// The schedule's statistics: everything but butterflies and energy,
  /// which the functional pass completes.
  RunStats run(bool keyed) {
    if (keyed)
      run_keyed();
    else
      run_full_rescan();
    stats_.cycles = *std::max_element(channel_makespan_.begin(),
                                      channel_makespan_.end());
    stats_.channel_makespans = std::move(channel_makespan_);
    stats_.ns = static_cast<double>(stats_.cycles) * t_.ns_per_cycle();
    return std::move(stats_);
  }

 private:
  // Earliest cycle >= t_min at which the head command of `bs` could issue.
  // Every branch composes max() with bank-local readiness, so
  // earliest(bs, cmd, t) == max(t, earliest(bs, cmd, 0)) — the separability
  // the keyed scheduler's per-bank keys rely on.
  std::uint64_t earliest(const BankState& bs, const Command& cmd,
                         std::uint64_t t_min) const {
    std::uint64_t e = t_min;
    switch (cmd.kind) {
      case CmdKind::kAct:
        e = bs.timing.earliest_act(e);
        break;
      case CmdKind::kPre:
        e = bs.timing.earliest_pre(e);
        break;
      case CmdKind::kCuRead:
        e = bs.timing.earliest_column(e);
        e = std::max(e, bs.buf_avail[cmd.buf]);
        break;
      case CmdKind::kCuWrite:
        e = bs.timing.earliest_column(e);
        e = std::max(e, bs.buf_avail[cmd.buf]);
        break;
      case CmdKind::kC1:
        e = std::max(e, bs.cu_next_issue);
        e = std::max(e, bs.buf_avail[cmd.buf]);
        break;
      case CmdKind::kC2:
        e = std::max(e, bs.cu_next_issue);
        e = std::max(e, bs.buf_avail[cmd.buf]);
        e = std::max(e, bs.buf_avail[cmd.buf2]);
        break;
      case CmdKind::kParam:
        // Parameter registers feed the TFG/BU; don't clobber in-flight ops.
        e = std::max(e, bs.cu_last_end);
        break;
      case CmdKind::kBufZero:
        e = std::max(e, bs.buf_avail[cmd.buf]);
        break;
      case CmdKind::kScalarRead:
        e = bs.timing.earliest_column(e);
        e = std::max(e, bs.buf_avail[0]);
        break;
      case CmdKind::kScalarWrite:
        e = bs.timing.earliest_column(e);
        e = std::max(e, bs.buf_avail[0]);
        e = std::max(e, bs.scalar_ready);
        break;
      case CmdKind::kScalarBu:
        e = std::max(e, bs.cu_next_issue);
        e = std::max(e, bs.scalar_ready);
        break;
      case CmdKind::kRefresh:
        NTTPIM_CHECK_MSG(false, "refresh is engine-inserted, not mapped");
    }
    return e;
  }

  // Transparent refresh, as a real MC performs it: close the open row,
  // issue REF, and restore the row so the trace's open-row assumptions
  // continue to hold. The PRE/ACT bookkeeping is charged to the refresh
  // energy (refresh_pj), not the trace's activation counts. A refresh has
  // no functional effect (cells keep their contents, and the restored row
  // is the one the program left open), so only this pass models it.
  //
  // Earliest start >= t_min of the bank's next refresh action (kNone means
  // the tREFI deadline passed and the first step must be chosen). Same
  // max-separability as earliest().
  std::uint64_t refresh_action_time(const BankState& bs,
                                    std::uint64_t t_min) const {
    switch (bs.refresh_step) {
      case RefreshStep::kNeedRef:
        return bs.timing.earliest_refresh(t_min);
      case RefreshStep::kNeedRestore:
        return bs.timing.earliest_act(t_min);
      case RefreshStep::kNone:
        return bs.timing.open_row() == dram::BankTiming::kNoOpenRow
                   ? bs.timing.earliest_refresh(t_min)
                   : bs.timing.earliest_pre(t_min);
    }
    return t_min;
  }

  // Commit the head command of bank `b` at cycle `at`, then advance the
  // bank's program.
  void commit(std::size_t b, std::uint64_t at) {
    BankState& bs = banks_[b];
    const Command& cmd = *bs.head;
    std::uint64_t end = at + 1;
    std::uint64_t bus_cycles = 1;
    switch (cmd.kind) {
      case CmdKind::kAct:
        bs.timing.issue_act(at, cmd.row);
        end = at + t_.trcd;
        ++stats_.activations;
        break;
      case CmdKind::kPre:
        bs.timing.issue_pre(at);
        end = at + t_.trp;
        ++stats_.precharges;
        break;
      case CmdKind::kCuRead: {
        const std::uint64_t ready = bs.timing.issue_read(at);
        bs.buf_avail[cmd.buf] = ready;
        end = ready;
        ++stats_.column_reads;
        break;
      }
      case CmdKind::kCuWrite: {
        const std::uint64_t done = bs.timing.issue_write(at);
        bs.buf_avail[cmd.buf] = done;
        end = done;
        ++stats_.column_writes;
        break;
      }
      case CmdKind::kC1: {
        const std::uint64_t result = at + t_.c1_latency;
        bs.cu_next_issue = at + t_.c1_interval;
        bs.cu_last_end = std::max(bs.cu_last_end, result);
        bs.buf_avail[cmd.buf] = result;
        end = result;
        ++stats_.compute_ops;
        break;
      }
      case CmdKind::kC2: {
        const std::uint64_t result = at + t_.c2_latency;
        bs.cu_next_issue = at + t_.c2_interval;
        bs.cu_last_end = std::max(bs.cu_last_end, result);
        bs.buf_avail[cmd.buf] = result;
        bs.buf_avail[cmd.buf2] = result;
        end = result;
        ++stats_.compute_ops;
        break;
      }
      case CmdKind::kParam: {
        bus_cycles = t_.param_bus_cycles;
        const std::uint64_t applied = at + t_.param_latency;
        bs.cu_next_issue = std::max(bs.cu_next_issue, applied);
        bs.cu_last_end = std::max(bs.cu_last_end, applied);
        end = applied;
        ++stats_.param_loads;
        break;
      }
      case CmdKind::kBufZero:
        bs.buf_avail[cmd.buf] = at + t_.bufzero_latency;
        end = at + t_.bufzero_latency;
        break;
      case CmdKind::kScalarRead: {
        const std::uint64_t ready = bs.timing.issue_read(at);
        bs.buf_avail[0] = ready;
        bs.scalar_ready = std::max(bs.scalar_ready, ready);
        end = ready;
        ++stats_.column_reads;
        break;
      }
      case CmdKind::kScalarWrite: {
        const std::uint64_t done = bs.timing.issue_write(at);
        bs.buf_avail[0] = done;
        end = done;
        ++stats_.column_writes;
        break;
      }
      case CmdKind::kScalarBu: {
        const std::uint64_t result = at + t_.scalar_bu_latency;
        bs.cu_next_issue = result;
        bs.cu_last_end = std::max(bs.cu_last_end, result);
        bs.scalar_ready = result;
        end = result;
        ++stats_.compute_ops;
        break;
      }
      case CmdKind::kRefresh:
        NTTPIM_CHECK_MSG(false, "refresh is engine-inserted, not mapped");
    }
    const std::size_t ch = channel_[b];
    bus_free_[ch] = at + bus_cycles;
    stats_.bus_busy_cycles += bus_cycles;
    channel_makespan_[ch] = std::max(channel_makespan_[ch], end);
    if (config_.record_timeline)
      stats_.timeline.push_back(
          TimelineEvent{bs.head_index, cmd.kind, cmd.bank, at, end});
    ++stats_.commands;
    ++bs.head;
    ++bs.head_index;
    load_head(b);
  }

  // Make the next command of bank `b`'s program its head, moving on to the
  // bank's next non-empty segment at a segment's end (the head becomes
  // nullptr once the program is drained). A command is validated as it
  // becomes a head, before any timing or functional state indexes by it.
  void load_head(std::size_t b) {
    BankState& bs = banks_[b];
    while (bs.head == bs.seg_end) {
      if (bs.next_segment == bs.last_segment) {
        bs.head = bs.seg_end = nullptr;
        return;
      }
      const Segment& seg = segments_[bs.next_segment++];
      bs.head = seg.commands.data();
      bs.seg_end = bs.head + seg.commands.size();
      bs.head_index = seg.first_index;
    }
    validate(*bs.head, b, bs.buf_avail.size());
  }

  void commit_refresh_step(std::size_t b, std::uint64_t at) {
    BankState& bs = banks_[b];
    const std::size_t ch = channel_[b];
    switch (bs.refresh_step) {
      case RefreshStep::kNone:  // first step: PRE if open, else REF
        if (bs.timing.open_row() != dram::BankTiming::kNoOpenRow) {
          bs.saved_row = bs.timing.open_row();
          bs.timing.issue_pre(at);
          bs.refresh_step = RefreshStep::kNeedRef;
        } else {
          bs.saved_row = dram::BankTiming::kNoOpenRow;
          bs.timing.issue_refresh(at);
          ++stats_.refreshes;
          bs.next_refresh += t_.trefi;
          channel_makespan_[ch] = std::max(channel_makespan_[ch],
                                           at + t_.trfc);
          bs.refresh_step = RefreshStep::kNone;
          if (config_.record_timeline)
            stats_.timeline.push_back(
                TimelineEvent{static_cast<std::size_t>(-1),
                              CmdKind::kRefresh,
                              static_cast<std::uint16_t>(b), at,
                              at + t_.trfc});
        }
        break;
      case RefreshStep::kNeedRef:
        bs.timing.issue_refresh(at);
        ++stats_.refreshes;
        bs.next_refresh += t_.trefi;
        channel_makespan_[ch] = std::max(channel_makespan_[ch],
                                         at + t_.trfc);
        bs.refresh_step = bs.saved_row == dram::BankTiming::kNoOpenRow
                              ? RefreshStep::kNone
                              : RefreshStep::kNeedRestore;
        if (config_.record_timeline)
          stats_.timeline.push_back(
              TimelineEvent{static_cast<std::size_t>(-1), CmdKind::kRefresh,
                            static_cast<std::uint16_t>(b), at,
                            at + t_.trfc});
        break;
      case RefreshStep::kNeedRestore:
        bs.timing.issue_act(at, static_cast<std::uint32_t>(bs.saved_row));
        bs.refresh_step = RefreshStep::kNone;
        bs.saved_row = dram::BankTiming::kNoOpenRow;
        break;
    }
    bus_free_[ch] = at + 1;
  }

  // Reference scheduling loop: repeatedly perform the oldest-ready action —
  // either a bank's head command, or a due refresh sequence for a bank
  // whose head cannot issue before its tREFI deadline. Ties rotate
  // round-robin across banks — a fixed priority would let a low-numbered
  // bank stream while starving the others (convoy effect), destroying the
  // bank-level parallelism the architecture is built for.
  //
  // Every step rescans every bank and re-derives its earliest issue cycle
  // from the live timing state: O(trace x banks) BankTiming queries.
  // Retained as the golden model the keyed scheduler is property-tested
  // against.
  void run_full_rescan() {
    std::size_t rr_start = 0;
    while (true) {
      std::size_t best_bank = banks_.size();
      bool best_is_refresh = false;
      std::uint64_t best_time = std::numeric_limits<std::uint64_t>::max();
      for (std::size_t offset = 0; offset < banks_.size(); ++offset) {
        const std::size_t b = (rr_start + offset) % banks_.size();
        BankState& bs = banks_[b];
        const std::uint64_t bus_free = bus_free_[channel_[b]];
        const bool mid_refresh = bs.refresh_step != RefreshStep::kNone;
        if (bs.done() && !mid_refresh) continue;
        std::uint64_t e;
        bool is_refresh;
        if (mid_refresh) {
          // Finish an in-flight refresh sequence before trace commands.
          is_refresh = true;
          e = refresh_action_time(bs, bus_free);
        } else if (bs.done()) {
          continue;
        } else {
          e = earliest(bs, *bs.head, bus_free);
          is_refresh = config_.enable_refresh && e >= bs.next_refresh;
          if (is_refresh) e = refresh_action_time(bs, bus_free);
        }
        if (e < best_time) {
          best_time = e;
          best_bank = b;
          best_is_refresh = is_refresh;
        }
      }
      if (best_bank == banks_.size()) break;  // all work drained
      if (best_is_refresh) {
        commit_refresh_step(best_bank, best_time);
        continue;
      }
      commit(best_bank, best_time);
      rr_start = (best_bank + 1) % banks_.size();
    }
  }

  static constexpr std::uint64_t kNever =
      std::numeric_limits<std::uint64_t>::max();

  // Re-derive bank `b`'s key after it committed (or at the start of the
  // run): the bus-independent earliest cycle of its next action, with the
  // refresh decision folded in. Mid-refresh the key is the next refresh
  // step's time — the row may be transiently closed, and the reference loop
  // never consults the head command in that state either. Otherwise the
  // head command's time, unless that already reaches the tREFI deadline.
  // The bank then still flips to its refresh action once its channel's
  // bus_free reaches `threshold_[b]` (see run_keyed). A drained bank's key
  // is kNever.
  void rekey(std::size_t b) {
    BankState& bs = banks_[b];
    threshold_[b] = kNever;
    bs.refresh_next = bs.refresh_step != RefreshStep::kNone;
    if (bs.refresh_next) {
      key_[b] = refresh_action_time(bs, 0);
    } else if (bs.done()) {
      key_[b] = kNever;
    } else {
      key_[b] = earliest(bs, *bs.head, 0);
      if (config_.enable_refresh) {
        if (key_[b] >= bs.next_refresh)
          flip_to_refresh(b);
        else
          threshold_[b] = bs.next_refresh;
      }
    }
  }

  void flip_to_refresh(std::size_t b) {
    banks_[b].refresh_next = true;
    key_[b] = refresh_action_time(banks_[b], 0);
    threshold_[b] = kNever;
  }

  // Keyed scheduling loop: the same selection rule and tie rotation as
  // run_full_rescan, over per-bank keys refreshed only for the bank that
  // commits. Every timing constraint separates as max(bus_free, local),
  // so a bank's reference time is max(bus_free of its channel, key) — and
  // its refresh decision e >= next_refresh, with e below the deadline at
  // rekey time, can only flip later by the monotone bus_free reaching the
  // threshold. Each step takes the minimum over banks, then the first bank
  // in rotation order from rr_start that reaches it: the reference's
  // strict-< scan from rr_start picks exactly that bank. Refresh steps do
  // not advance the rotation.
  void run_keyed() {
    const std::size_t banks = banks_.size();
    key_.resize(banks);
    threshold_.resize(banks);
    for (std::size_t b = 0; b < banks; ++b) rekey(b);
    std::size_t rr_start = 0;
    while (true) {
      std::uint64_t best = kNever;
      for (std::size_t b = 0; b < banks; ++b) {
        const std::uint64_t bus_free = bus_free_[channel_[b]];
        if (bus_free >= threshold_[b]) flip_to_refresh(b);
        best = std::min(best, std::max(bus_free, key_[b]));
      }
      if (best == kNever) break;  // all work drained
      std::size_t b = rr_start;
      while (std::max(bus_free_[channel_[b]], key_[b]) != best)
        b = b + 1 == banks ? 0 : b + 1;
      if (banks_[b].refresh_next) {
        commit_refresh_step(b, best);
      } else {
        commit(b, best);
        rr_start = b + 1 == banks ? 0 : b + 1;
      }
      rekey(b);
    }
  }

  const EngineConfig& config_;
  const dram::DramTiming& t_;
  std::span<const Segment> segments_;
  std::vector<BankState> banks_;
  std::vector<std::size_t> channel_;  ///< bank -> channel (command bus)
  std::vector<std::uint64_t> bus_free_;  ///< per-channel bus availability
  std::vector<std::uint64_t> channel_makespan_;  ///< max is the makespan
  // Keyed loop only: per-bank key and refresh threshold (see rekey).
  std::vector<std::uint64_t> key_;
  std::vector<std::uint64_t> threshold_;
  RunStats stats_;
};

/// The flat-trace adapter: split `trace` into maximal same-bank runs and
/// group them by bank, keeping each bank's runs in trace order.
std::vector<Segment> partition_by_bank(std::span<const Command> trace,
                                       std::size_t banks) {
  std::vector<Segment> runs;
  for (std::size_t i = 0; i < trace.size();) {
    const std::size_t bank = trace[i].bank;
    NTTPIM_EXPECT_MSG(bank < banks, "command targets a nonexistent bank");
    std::size_t end = i + 1;
    while (end < trace.size() && trace[end].bank == bank) ++end;
    runs.push_back({trace.subspan(i, end - i), bank, i});
    i = end;
  }
  std::stable_sort(runs.begin(), runs.end(),
                   [](const Segment& a, const Segment& b) {
                     return a.bank < b.bank;
                   });
  return runs;
}

/// Programs as segments, indexed by position in their bank-major
/// concatenation.
std::vector<Segment> program_segments(std::span<const BankProgram> programs,
                                      std::size_t banks) {
  NTTPIM_EXPECT_MSG(programs.size() <= banks, "more programs than banks");
  std::vector<Segment> segments;
  std::size_t index = 0;
  for (std::size_t b = 0; b < programs.size(); ++b)
    for (const std::span<const Command> seg : programs[b]) {
      segments.push_back({seg, b, index});
      index += seg.size();
    }
  return segments;
}

/// The functional pass: each bank's segments, in program order, through
/// that bank's PimBank. Banks share no functional state, so walking them
/// one after another leaves the device as any interleaving would.
void apply_segments(pim::PimDevice& device, std::span<const Segment> segments) {
  for (const Segment& seg : segments) {
    pim::PimBank& bank = device.bank(seg.bank);
    for (const Command& cmd : seg.commands) {
      validate(cmd, seg.bank, device.num_buffers());
      bank.apply(cmd);
    }
  }
}

/// Both passes: the schedule, then the functional pass, whose butterfly
/// count completes the energy estimate.
RunStats execute(const EngineConfig& config, pim::PimDevice& device,
                 std::span<const Segment> segments, bool keyed) {
  RunStats stats =
      Scheduler(config, device.geometry(), device.num_buffers(), segments)
          .run(keyed);
  const auto butterflies = [&device] {
    std::uint64_t total = 0;
    for (std::size_t b = 0; b < device.num_banks(); ++b)
      total += device.bank(b).cu().butterfly_count();
    return total;
  };
  const std::uint64_t before = butterflies();
  apply_segments(device, segments);
  stats.butterflies = butterflies() - before;

  dram::EnergyCounts counts;
  counts.activations = stats.activations;
  counts.column_transfers = stats.column_reads + stats.column_writes;
  counts.butterflies = stats.butterflies;
  counts.param_loads = stats.param_loads;
  counts.refreshes = stats.refreshes;
  stats.energy = dram::compute_energy(config.energy, counts, stats.ns);
  return stats;
}

}  // namespace

RunStats Engine::run(pim::PimDevice& device,
                     std::span<const BankProgram> programs) const {
  const auto segments = program_segments(programs, device.num_banks());
  return execute(config_, device, segments, /*keyed=*/true);
}

RunStats Engine::run(pim::PimDevice& device,
                     std::span<const dram::Command> trace) const {
  const auto segments = partition_by_bank(trace, device.num_banks());
  return execute(config_, device, segments, /*keyed=*/true);
}

RunStats Engine::run_reference(pim::PimDevice& device,
                               std::span<const BankProgram> programs) const {
  const auto segments = program_segments(programs, device.num_banks());
  return execute(config_, device, segments, /*keyed=*/false);
}

RunStats Engine::run_reference(pim::PimDevice& device,
                               std::span<const dram::Command> trace) const {
  const auto segments = partition_by_bank(trace, device.num_banks());
  return execute(config_, device, segments, /*keyed=*/false);
}

void Engine::apply(pim::PimDevice& device,
                   std::span<const BankProgram> programs) {
  apply_segments(device, program_segments(programs, device.num_banks()));
}

}  // namespace nttpim::sim
