#include <gtest/gtest.h>

#include <span>
#include <stdexcept>
#include <vector>

#include "dram/bank.h"
#include "dram/command.h"
#include "dram/config.h"
#include "dram/energy.h"

namespace nttpim::dram {
namespace {

// ------------------------------------------------------------------ config

TEST(Config, Table1Defaults) {
  const DramTiming t = hbm2e_timing();
  EXPECT_EQ(t.cl, 14u);
  EXPECT_EQ(t.tccd, 2u);
  EXPECT_EQ(t.trp, 14u);
  EXPECT_EQ(t.tras, 34u);
  EXPECT_EQ(t.trcd, 14u);
  EXPECT_EQ(t.twr, 16u);
  EXPECT_DOUBLE_EQ(t.freq_mhz, 1200.0);

  const DramGeometry g = hbm2e_geometry();
  EXPECT_EQ(g.atom_bytes, 32u);
  EXPECT_EQ(g.atoms_per_row, 32u);
  EXPECT_EQ(g.rows_per_bank, 32768u);
  EXPECT_EQ(g.words_per_atom(), 8u);
  EXPECT_EQ(g.words_per_row(), 256u);
}

TEST(Config, FrequencyScalingKeepsNanoseconds) {
  const DramTiming base = hbm2e_timing();
  const DramTiming slow = base.at_frequency(300.0);
  // 14 cycles @1200 = 11.67ns -> 3.5 cycles @300 -> rounds up to 4.
  EXPECT_EQ(slow.trcd, 4u);
  EXPECT_EQ(slow.trp, 4u);
  EXPECT_EQ(slow.cl, 4u);
  EXPECT_EQ(slow.tras, 9u);  // 28.33ns -> 8.5 -> 9
  EXPECT_EQ(slow.twr, 4u);
  // CU latencies are cycle-fixed (logic scales with the clock).
  EXPECT_EQ(slow.c1_latency, base.c1_latency);
  EXPECT_EQ(slow.c2_latency, base.c2_latency);
  EXPECT_EQ(slow.scalar_bu_latency, base.scalar_bu_latency);
}

TEST(Config, FrequencyIdentityAtNominal) {
  const DramTiming base = hbm2e_timing();
  const DramTiming same = base.at_frequency(1200.0);
  EXPECT_EQ(same.cl, base.cl);
  EXPECT_EQ(same.tras, base.tras);
  EXPECT_EQ(same.burst, base.burst);
}

TEST(Config, NsPerCycle) {
  const DramTiming t = hbm2e_timing();
  EXPECT_NEAR(t.ns_per_cycle(), 0.8333, 1e-3);
  EXPECT_NEAR(t.cycles_to_us(12000), 10.0, 1e-9);
  EXPECT_THROW(t.at_frequency(0), std::invalid_argument);
}

// ------------------------------------------------------------------- array

TEST(DramArray, WordAddressingRoundTrips) {
  DramGeometry g = hbm2e_geometry();
  g.rows_per_bank = 16;  // keep the test array small
  DramArray array(g);
  array.write_word(3, 7, 5, 0xdeadbeef);
  EXPECT_EQ(array.read_word(3, 7, 5), 0xdeadbeefu);
  EXPECT_EQ(array.read_word(3, 7, 4), 0u);

  // Bulk access agrees with (row, atom, lane): storage order is row, then
  // atom, then lane.
  std::vector<std::uint32_t> row3(g.words_per_row());
  array.read_words(3, row3);
  EXPECT_EQ(row3[7 * 8 + 5], 0xdeadbeefu);
  row3[7 * 8 + 6] = 42;
  array.write_words(3, row3);
  EXPECT_EQ(array.read_word(3, 7, 6), 42u);
}

TEST(DramArray, BulkAccessSpansRowsAndStaysInTheBank) {
  DramGeometry g = hbm2e_geometry();
  g.rows_per_bank = 4;
  DramArray array(g);
  const std::size_t row_words = g.words_per_row();
  std::vector<std::uint32_t> words(row_words + 3);
  for (std::size_t i = 0; i < words.size(); ++i)
    words[i] = static_cast<std::uint32_t>(i + 1);
  array.write_words(2, words);  // all of row 2 and row 3's first atom
  EXPECT_EQ(array.read_word(2, 0, 0), 1u);
  EXPECT_EQ(array.read_word(3, 0, 2), row_words + 3);
  EXPECT_EQ(array.read_word(3, 0, 3), 0u);
  std::vector<std::uint32_t> back(words.size());
  array.read_words(2, back);
  EXPECT_EQ(back, words);
  // Past the last row, or starting beyond it, is refused before any word
  // moves.
  EXPECT_THROW(array.write_words(3, words), std::invalid_argument);
  EXPECT_THROW(array.read_words(4, std::span<std::uint32_t>{}),
               std::invalid_argument);
  EXPECT_EQ(array.read_word(3, 1, 0), 0u);
}

TEST(DramArray, AtomAccess) {
  DramGeometry g = hbm2e_geometry();
  g.rows_per_bank = 4;
  DramArray array(g);
  const std::vector<std::uint32_t> atom{1, 2, 3, 4, 5, 6, 7, 8};
  array.write_atom(1, 2, atom);
  const auto view = array.read_atom(1, 2);
  EXPECT_TRUE(std::equal(view.begin(), view.end(), atom.begin()));
}

TEST(DramArray, OutOfRangeThrows) {
  DramGeometry g = hbm2e_geometry();
  g.rows_per_bank = 4;
  DramArray array(g);
  EXPECT_THROW(array.read_word(4, 0, 0), std::invalid_argument);
  EXPECT_THROW(array.read_word(0, 32, 0), std::invalid_argument);
  EXPECT_THROW(array.read_word(0, 0, 8), std::invalid_argument);
}

// ------------------------------------------------------------- bank timing

TEST(BankTiming, ActToColumnRespectsTrcd) {
  const DramTiming t = hbm2e_timing();
  BankTiming bank(t);
  bank.issue_act(100, 5);
  EXPECT_EQ(bank.open_row(), 5);
  // A column command at t=100 must be deferred to 100 + tRCD.
  EXPECT_EQ(bank.earliest_column(100), 100 + t.trcd);
  // After tRCD has long passed, t_min dominates.
  EXPECT_EQ(bank.earliest_column(200), 200u);
}

TEST(BankTiming, ColumnToColumnRespectsTccd) {
  const DramTiming t = hbm2e_timing();
  BankTiming bank(t);
  bank.issue_act(0, 1);
  const std::uint64_t first = bank.earliest_column(0);
  bank.issue_read(first);
  EXPECT_EQ(bank.earliest_column(first), first + t.tccd);
}

TEST(BankTiming, ReadDataLatencyIsClPlusBurst) {
  const DramTiming t = hbm2e_timing();
  BankTiming bank(t);
  bank.issue_act(0, 1);
  const std::uint64_t at = bank.earliest_column(0);
  EXPECT_EQ(bank.issue_read(at), at + t.cl + t.burst);
}

TEST(BankTiming, PrechargeRespectsTras) {
  const DramTiming t = hbm2e_timing();
  BankTiming bank(t);
  bank.issue_act(10, 1);
  EXPECT_EQ(bank.earliest_pre(10), 10 + t.tras);
}

TEST(BankTiming, PrechargeRespectsWriteRecovery) {
  const DramTiming t = hbm2e_timing();
  BankTiming bank(t);
  bank.issue_act(0, 1);
  const std::uint64_t wr_at = bank.earliest_column(0);
  const std::uint64_t data_end = bank.issue_write(wr_at);
  EXPECT_EQ(data_end, wr_at + t.cwl + t.burst);
  // PRE must wait until tWR after the write data finished.
  EXPECT_GE(bank.earliest_pre(0), data_end + t.twr);
}

TEST(BankTiming, ActAfterPrechargeRespectsTrp) {
  const DramTiming t = hbm2e_timing();
  BankTiming bank(t);
  bank.issue_act(0, 1);
  const std::uint64_t pre_at = bank.earliest_pre(0);
  bank.issue_pre(pre_at);
  EXPECT_EQ(bank.open_row(), BankTiming::kNoOpenRow);
  EXPECT_EQ(bank.earliest_act(0), pre_at + t.trp);
}

TEST(BankTiming, IllegalTransitionsThrow) {
  const DramTiming t = hbm2e_timing();
  BankTiming bank(t);
  EXPECT_THROW(bank.earliest_pre(0), std::logic_error);     // nothing open
  EXPECT_THROW(bank.earliest_column(0), std::logic_error);  // nothing open
  bank.issue_act(0, 3);
  EXPECT_THROW(bank.earliest_act(100), std::logic_error);  // already open
}

TEST(BankTiming, CountsCommands) {
  const DramTiming t = hbm2e_timing();
  BankTiming bank(t);
  bank.issue_act(0, 1);
  const auto c1 = bank.earliest_column(0);
  bank.issue_read(c1);
  bank.issue_write(bank.earliest_column(c1));
  bank.issue_pre(bank.earliest_pre(0));
  EXPECT_EQ(bank.act_count(), 1u);
  EXPECT_EQ(bank.read_count(), 1u);
  EXPECT_EQ(bank.write_count(), 1u);
  EXPECT_EQ(bank.pre_count(), 1u);
}

// ----------------------------------------------------------------- energy

TEST(Energy, BreakdownArithmetic) {
  EnergyParams params;
  params.act_pre_pj = 1000;
  params.column_pj = 100;
  params.bu_op_pj = 10;
  params.param_pj = 5;
  params.background_mw = 50;

  EnergyCounts counts;
  counts.activations = 4;
  counts.column_transfers = 20;
  counts.butterflies = 100;
  counts.param_loads = 2;

  const auto e = compute_energy(params, counts, /*elapsed_ns=*/2000);
  EXPECT_DOUBLE_EQ(e.activation_nj, 4.0);
  EXPECT_DOUBLE_EQ(e.column_nj, 2.0);
  EXPECT_DOUBLE_EQ(e.compute_nj, 1.0);
  EXPECT_DOUBLE_EQ(e.param_nj, 0.01);
  EXPECT_DOUBLE_EQ(e.background_nj, 100.0);  // 50 mW * 2000 ns = 100 nJ
  EXPECT_DOUBLE_EQ(e.total_nj(), 4.0 + 2.0 + 1.0 + 0.01 + 100.0);
}

// ---------------------------------------------------------------- command

TEST(Command, DescribeIsHumanReadable) {
  Command act{.kind = CmdKind::kAct, .row = 7};
  EXPECT_NE(describe(act).find("ACT"), std::string::npos);
  EXPECT_NE(describe(act).find("row=7"), std::string::npos);

  Command c2{.kind = CmdKind::kC2, .buf = 0, .buf2 = 1, .tfg_reset = true};
  const auto s = describe(c2);
  EXPECT_NE(s.find("C2"), std::string::npos);
  EXPECT_NE(s.find("tfg-reset"), std::string::npos);
}

TEST(Command, KindPredicates) {
  EXPECT_TRUE(is_column_command(CmdKind::kCuRead));
  EXPECT_TRUE(is_column_command(CmdKind::kScalarWrite));
  EXPECT_FALSE(is_column_command(CmdKind::kC1));
  EXPECT_TRUE(is_compute_command(CmdKind::kC2));
  EXPECT_TRUE(is_compute_command(CmdKind::kScalarBu));
  EXPECT_FALSE(is_compute_command(CmdKind::kAct));
}

}  // namespace
}  // namespace nttpim::dram
