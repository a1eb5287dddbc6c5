#include "dram/bank.h"

#include <algorithm>

#include "common/check.h"

namespace nttpim::dram {

// ---------------------------------------------------------------- DramArray

DramArray::DramArray(const DramGeometry& geometry)
    : geometry_(geometry),
      words_(geometry.rows_per_bank * geometry.words_per_row(), 0) {}

std::size_t DramArray::offset(std::uint32_t row, std::uint32_t atom,
                              std::uint32_t lane) const {
  NTTPIM_EXPECT(row < geometry_.rows_per_bank);
  NTTPIM_EXPECT(atom < geometry_.atoms_per_row);
  NTTPIM_EXPECT(lane < geometry_.words_per_atom());
  return (static_cast<std::size_t>(row) * geometry_.atoms_per_row + atom) *
             geometry_.words_per_atom() +
         lane;
}

std::uint32_t DramArray::read_word(std::uint32_t row, std::uint32_t atom,
                                   std::uint32_t lane) const {
  return words_[offset(row, atom, lane)];
}

void DramArray::write_word(std::uint32_t row, std::uint32_t atom,
                           std::uint32_t lane, std::uint32_t value) {
  words_[offset(row, atom, lane)] = value;
}

std::span<const std::uint32_t> DramArray::read_atom(std::uint32_t row,
                                                    std::uint32_t atom) const {
  const std::size_t base = offset(row, atom, 0);
  return {words_.data() + base, geometry_.words_per_atom()};
}

void DramArray::write_atom(std::uint32_t row, std::uint32_t atom,
                           std::span<const std::uint32_t> words) {
  NTTPIM_EXPECT(words.size() == geometry_.words_per_atom());
  const std::size_t base = offset(row, atom, 0);
  std::copy(words.begin(), words.end(), words_.begin() + base);
}

std::size_t DramArray::rows_offset(std::uint32_t first_row,
                                   std::size_t count) const {
  NTTPIM_EXPECT(first_row < geometry_.rows_per_bank);
  const std::size_t first =
      static_cast<std::size_t>(first_row) * geometry_.words_per_row();
  NTTPIM_EXPECT(count <= words_.size() - first);
  return first;
}

void DramArray::write_words(std::uint32_t first_row,
                            std::span<const std::uint32_t> words) {
  const std::size_t first = rows_offset(first_row, words.size());
  std::copy(words.begin(), words.end(), words_.begin() + first);
}

void DramArray::read_words(std::uint32_t first_row,
                           std::span<std::uint32_t> out) const {
  const std::size_t first = rows_offset(first_row, out.size());
  std::copy_n(words_.begin() + first, out.size(), out.begin());
}

// --------------------------------------------------------------- BankTiming

BankTiming::BankTiming(const DramTiming& timing) : timing_(timing) {}

std::uint64_t BankTiming::earliest_act(std::uint64_t t_min) const {
  NTTPIM_CHECK_MSG(open_row_ == kNoOpenRow,
                   "ACT issued while a row is open (missing PRE)");
  return std::max(t_min, t_ready_act_);
}

std::uint64_t BankTiming::earliest_pre(std::uint64_t t_min) const {
  NTTPIM_CHECK_MSG(open_row_ != kNoOpenRow, "PRE issued with no open row");
  std::uint64_t t = std::max(t_min, t_act_ + timing_.tras);
  t = std::max(t, t_wr_recovery_);
  t = std::max(t, t_rd_to_pre_);
  return t;
}

std::uint64_t BankTiming::earliest_column(std::uint64_t t_min) const {
  NTTPIM_CHECK_MSG(open_row_ != kNoOpenRow,
                   "column command issued with no open row");
  std::uint64_t t = std::max(t_min, t_act_ + timing_.trcd);
  t = std::max(t, t_col_ready_);
  return t;
}

void BankTiming::issue_act(std::uint64_t t, std::uint32_t row) {
  NTTPIM_CHECK(t >= earliest_act(t));
  open_row_ = row;
  t_act_ = t;
  row_ever_opened_ = true;
  ++act_count_;
}

void BankTiming::issue_pre(std::uint64_t t) {
  NTTPIM_CHECK(t >= earliest_pre(t));
  open_row_ = kNoOpenRow;
  t_ready_act_ = t + timing_.trp;
  ++pre_count_;
}

std::uint64_t BankTiming::earliest_refresh(std::uint64_t t_min) const {
  NTTPIM_CHECK_MSG(open_row_ == kNoOpenRow,
                   "refresh requires a precharged bank");
  return std::max(t_min, t_ready_act_);
}

void BankTiming::issue_refresh(std::uint64_t t) {
  NTTPIM_CHECK(t >= earliest_refresh(t));
  t_ready_act_ = t + timing_.trfc;
  ++refresh_count_;
}

std::uint64_t BankTiming::issue_read(std::uint64_t t) {
  NTTPIM_CHECK(t >= earliest_column(t));
  t_col_ready_ = t + timing_.tccd;
  const std::uint64_t data_ready = t + timing_.cl + timing_.burst;
  t_rd_to_pre_ = std::max(t_rd_to_pre_, t + timing_.tccd + timing_.burst);
  ++read_count_;
  return data_ready;
}

std::uint64_t BankTiming::issue_write(std::uint64_t t) {
  NTTPIM_CHECK(t >= earliest_column(t));
  t_col_ready_ = t + timing_.tccd;
  const std::uint64_t data_end = t + timing_.cwl + timing_.burst;
  t_wr_recovery_ = std::max(t_wr_recovery_, data_end + timing_.twr);
  ++write_count_;
  return data_end;
}

}  // namespace nttpim::dram
