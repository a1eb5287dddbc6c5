// DRAM bank model: functional cell-array storage plus the timing state
// machine that enforces the Table-I constraints.
//
// The two concerns are deliberately separate classes: DramArray is the
// "unmodified cell array" (the paper's key constraint — PIM never changes
// it), BankTiming is the per-bank scheduling state the memory controller /
// simulation engine consults. The simulation engine composes them.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "dram/config.h"

namespace nttpim::dram {

/// Functional storage of one bank, addressed by (row, atom, lane).
class DramArray {
 public:
  explicit DramArray(const DramGeometry& geometry);

  const DramGeometry& geometry() const noexcept { return geometry_; }

  std::uint32_t read_word(std::uint32_t row, std::uint32_t atom,
                          std::uint32_t lane) const;
  void write_word(std::uint32_t row, std::uint32_t atom, std::uint32_t lane,
                  std::uint32_t value);

  /// Whole-atom access (the granularity of CU-read / CU-write).
  std::span<const std::uint32_t> read_atom(std::uint32_t row,
                                           std::uint32_t atom) const;
  void write_atom(std::uint32_t row, std::uint32_t atom,
                  std::span<const std::uint32_t> words);

  /// Bulk host access in storage order (row by row from `first_row`,
  /// atoms in order within a row), bounds-checked once per call: how the
  /// host interface places and reads back a polynomial (pim/host.h).
  void write_words(std::uint32_t first_row,
                   std::span<const std::uint32_t> words);
  void read_words(std::uint32_t first_row, std::span<std::uint32_t> out) const;

 private:
  std::size_t offset(std::uint32_t row, std::uint32_t atom,
                     std::uint32_t lane) const;
  /// Offset of `first_row`'s first word, after checking that `count` words
  /// from there stay in the bank.
  std::size_t rows_offset(std::uint32_t first_row, std::size_t count) const;

  DramGeometry geometry_;
  std::vector<std::uint32_t> words_;
};

/// Per-bank timing state machine.
///
/// All methods take/return absolute cycle timestamps. `earliest_*` answers
/// "given the constraints, at which cycle >= t_min could this command
/// issue?"; `issue_*` commits the command at a chosen cycle and updates
/// state. The engine is responsible for also honoring bus and buffer/CU
/// constraints before committing.
class BankTiming {
 public:
  explicit BankTiming(const DramTiming& timing);

  static constexpr std::int64_t kNoOpenRow = -1;

  std::int64_t open_row() const noexcept { return open_row_; }

  std::uint64_t earliest_act(std::uint64_t t_min) const;
  std::uint64_t earliest_pre(std::uint64_t t_min) const;
  /// Earliest issue cycle for a column command (CU/scalar read or write);
  /// requires an open row (checked) and tRCD / tCCD spacing.
  std::uint64_t earliest_column(std::uint64_t t_min) const;

  void issue_act(std::uint64_t t, std::uint32_t row);
  void issue_pre(std::uint64_t t);
  /// Per-bank refresh: requires a closed bank; busy for tRFC.
  std::uint64_t earliest_refresh(std::uint64_t t_min) const;
  void issue_refresh(std::uint64_t t);
  /// Column read issued at t; returns the cycle data is valid in the buffer.
  std::uint64_t issue_read(std::uint64_t t);
  /// Column write issued at t; returns the cycle the write completes in the
  /// array (write recovery starts then).
  std::uint64_t issue_write(std::uint64_t t);

  // Statistics.
  std::uint64_t act_count() const noexcept { return act_count_; }
  std::uint64_t pre_count() const noexcept { return pre_count_; }
  std::uint64_t read_count() const noexcept { return read_count_; }
  std::uint64_t write_count() const noexcept { return write_count_; }
  std::uint64_t refresh_count() const noexcept { return refresh_count_; }

 private:
  const DramTiming timing_;
  std::int64_t open_row_ = kNoOpenRow;
  std::uint64_t t_act_ = 0;           ///< cycle of the last ACT
  std::uint64_t t_ready_act_ = 0;     ///< earliest next ACT (tRP after PRE)
  std::uint64_t t_col_ready_ = 0;     ///< earliest next column cmd (tCCD)
  std::uint64_t t_wr_recovery_ = 0;   ///< earliest PRE w.r.t. write recovery
  std::uint64_t t_rd_to_pre_ = 0;     ///< earliest PRE w.r.t. read completion
  bool row_ever_opened_ = false;
  std::uint64_t act_count_ = 0;
  std::uint64_t pre_count_ = 0;
  std::uint64_t read_count_ = 0;
  std::uint64_t write_count_ = 0;
  std::uint64_t refresh_count_ = 0;
};

}  // namespace nttpim::dram
