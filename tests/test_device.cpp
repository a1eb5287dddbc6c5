#include "pim/device.h"

#include <gtest/gtest.h>

#include "common/random.h"
#include "ntt/params.h"
#include "ntt/reference.h"
#include "pim/host.h"

namespace nttpim::pim {
namespace {

using dram::CmdKind;
using dram::Command;
using dram::ParamReg;

dram::DramGeometry small_geometry(std::size_t banks = 1) {
  dram::DramGeometry g = dram::hbm2e_geometry(banks);
  g.rows_per_bank = 64;
  return g;
}

TEST(PimBank, ActPreTracksFunctionalRow) {
  PimBank bank(small_geometry(), 2);
  EXPECT_EQ(bank.functional_open_row(), -1);
  bank.apply({.kind = CmdKind::kAct, .row = 3});
  EXPECT_EQ(bank.functional_open_row(), 3);
  bank.apply({.kind = CmdKind::kPre});
  EXPECT_EQ(bank.functional_open_row(), -1);
}

TEST(PimBank, DoubleActOrPreThrows) {
  PimBank bank(small_geometry(), 2);
  bank.apply({.kind = CmdKind::kAct, .row = 3});
  EXPECT_THROW(bank.apply({.kind = CmdKind::kAct, .row = 4}),
               std::logic_error);
  bank.apply({.kind = CmdKind::kPre});
  EXPECT_THROW(bank.apply({.kind = CmdKind::kPre}), std::logic_error);
}

TEST(PimBank, CuReadWriteMoveAtoms) {
  PimBank bank(small_geometry(), 2);
  const std::vector<std::uint32_t> atom{10, 20, 30, 40, 50, 60, 70, 80};
  bank.array().write_atom(5, 3, atom);

  bank.apply({.kind = CmdKind::kAct, .row = 5});
  bank.apply({.kind = CmdKind::kCuRead, .row = 5, .atom = 3, .buf = 1});
  EXPECT_TRUE(std::equal(atom.begin(), atom.end(),
                         bank.buffer(1).words.begin()));

  bank.apply({.kind = CmdKind::kCuWrite, .row = 5, .atom = 4, .buf = 1});
  const auto copied = bank.array().read_atom(5, 4);
  EXPECT_TRUE(std::equal(atom.begin(), atom.end(), copied.begin()));
}

TEST(PimBank, RowMismatchThrows) {
  PimBank bank(small_geometry(), 2);
  bank.apply({.kind = CmdKind::kAct, .row = 5});
  EXPECT_THROW(
      bank.apply({.kind = CmdKind::kCuRead, .row = 6, .atom = 0, .buf = 0}),
      std::logic_error);
}

TEST(PimBank, BufferIndexBeyondNbThrows) {
  PimBank bank(small_geometry(), 2);
  bank.apply({.kind = CmdKind::kAct, .row = 0});
  EXPECT_THROW(
      bank.apply({.kind = CmdKind::kCuRead, .row = 0, .atom = 0, .buf = 2}),
      std::invalid_argument);
}

TEST(PimBank, BufZeroClears) {
  PimBank bank(small_geometry(), 3);
  bank.array().write_atom(0, 0, std::vector<std::uint32_t>(8, 9));
  bank.apply({.kind = CmdKind::kAct, .row = 0});
  bank.apply({.kind = CmdKind::kCuRead, .row = 0, .atom = 0, .buf = 2});
  bank.apply({.kind = CmdKind::kBufZero, .buf = 2});
  for (const auto w : bank.buffer(2).words) EXPECT_EQ(w, 0u);
}

TEST(PimBank, ScalarReadModifyWrite) {
  PimBank bank(small_geometry(), 1);
  bank.apply({.kind = CmdKind::kParam,
              .param_reg = ParamReg::kModulus,
              .param_value = 97});
  bank.array().write_atom(2, 1, {{11, 22, 33, 44, 55, 66, 77, 88}});

  bank.apply({.kind = CmdKind::kAct, .row = 2});
  bank.apply({.kind = CmdKind::kScalarRead,
              .row = 2,
              .atom = 1,
              .lane = 4,
              .scalar_reg = 0});
  EXPECT_EQ(bank.cu().scalar_reg(0), 55u);

  // Overwrite lane 4 with register 0's value after clearing it via a BU on
  // (55, 55) with w=1: reg0 = 110 mod 97 = 13.
  bank.apply({.kind = CmdKind::kScalarRead,
              .row = 2,
              .atom = 1,
              .lane = 4,
              .scalar_reg = 1});
  bank.apply({.kind = CmdKind::kScalarBu, .tfg_reset = true});
  bank.apply({.kind = CmdKind::kScalarWrite,
              .row = 2,
              .atom = 1,
              .lane = 4,
              .scalar_reg = 0});
  EXPECT_EQ(bank.array().read_word(2, 1, 4), 13u);
  // Untouched lanes survive the read-modify-write.
  EXPECT_EQ(bank.array().read_word(2, 1, 0), 11u);
  EXPECT_EQ(bank.array().read_word(2, 1, 7), 88u);
}

TEST(PimDevice, IndependentBanks) {
  PimDevice device(small_geometry(4), 2);
  EXPECT_EQ(device.num_banks(), 4u);
  device.bank(0).array().write_word(0, 0, 0, 111);
  device.bank(3).array().write_word(0, 0, 0, 333);
  EXPECT_EQ(device.bank(0).array().read_word(0, 0, 0), 111u);
  EXPECT_EQ(device.bank(1).array().read_word(0, 0, 0), 0u);
  EXPECT_EQ(device.bank(3).array().read_word(0, 0, 0), 333u);
  EXPECT_THROW(device.bank(4), std::invalid_argument);
}

TEST(Host, LoadAppliesBitReversal) {
  PimDevice device(small_geometry(), 2);
  const ntt::NttParams p = ntt::NttParams::create(16);
  Rng rng(5);
  const auto poly = rng.residues(16, p.q());
  load_polynomial(device.bank(0), 0, poly);

  for (std::uint32_t i = 0; i < 16; ++i) {
    const auto slot = bit_reverse(i, 4);
    EXPECT_EQ(device.bank(0).array().read_word(0, slot / kAtomWords,
                                               slot % kAtomWords),
              poly[i]);
  }
}

TEST(Host, ReadResultReturnsStorageOrder) {
  PimDevice device(small_geometry(), 2);
  std::vector<std::uint32_t> data(512);
  for (std::size_t i = 0; i < data.size(); ++i)
    data[i] = static_cast<std::uint32_t>(i * 7);
  // Write rows 2..3 word by word and read back through the host helper.
  for (std::uint32_t i = 0; i < data.size(); ++i)
    device.bank(0).array().write_word(2 + i / 256, (i % 256) / kAtomWords,
                                      i % kAtomWords, data[i]);
  EXPECT_EQ(read_result(device.bank(0), 2, 512), data);
}

TEST(Host, RoundTripLoadThenRead) {
  // load_polynomial followed by read_result returns the bit-reversed poly;
  // reversing again restores the original (involution).
  PimDevice device(small_geometry(), 2);
  const ntt::NttParams p = ntt::NttParams::create(64);
  Rng rng(6);
  const auto poly = rng.residues(64, p.q());
  load_polynomial(device.bank(0), 1, poly);
  auto stored = read_result(device.bank(0), 1, 64);
  bit_reverse_permute(stored);
  EXPECT_EQ(stored, poly);
}

}  // namespace
}  // namespace nttpim::pim
