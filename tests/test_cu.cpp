#include "pim/cu.h"

#include <gtest/gtest.h>

#include "common/bitutil.h"
#include "common/random.h"
#include "ntt/modular.h"
#include "ntt/params.h"
#include "ntt/reference.h"

namespace nttpim::pim {
namespace {

using dram::ParamReg;

// Configure a CU with the parameters the memory controller would send.
ComputeUnit make_cu(const ntt::NttParams& p, unsigned c1_stages = 3) {
  ComputeUnit cu;
  cu.load_param(ParamReg::kModulus, p.q());
  cu.load_param(ParamReg::kC1Root,
                p.omega_pow(p.n() >> c1_stages));
  return cu;
}

TEST(ComputeUnitC1, EightPointNttMatchesReference) {
  const ntt::NttParams p = ntt::NttParams::create(8);
  ComputeUnit cu = make_cu(p);

  Rng rng(1);
  for (int trial = 0; trial < 20; ++trial) {
    const auto input = rng.residues(8, p.q());
    AtomBuffer buf;
    auto bitrev = input;
    bit_reverse_permute(bitrev);
    std::copy(bitrev.begin(), bitrev.end(), buf.words.begin());

    cu.exec_c1(buf, 3);

    auto expected = input;
    ntt::forward_ntt(expected, p);
    EXPECT_TRUE(std::equal(buf.words.begin(), buf.words.end(),
                           expected.begin()));
  }
}

TEST(ComputeUnitC1, SubAtomSizes) {
  // stages=1 and 2 compute 2- and 4-point NTTs on the low lanes.
  for (const unsigned stages : {1u, 2u}) {
    const std::size_t n = std::size_t{1} << stages;
    const ntt::NttParams p = ntt::NttParams::create(n);
    ComputeUnit cu = make_cu(p, stages);

    Rng rng(stages);
    const auto input = rng.residues(n, p.q());
    AtomBuffer buf;
    auto bitrev = input;
    bit_reverse_permute(bitrev);
    std::copy(bitrev.begin(), bitrev.end(), buf.words.begin());

    cu.exec_c1(buf, stages);

    auto expected = input;
    ntt::forward_ntt(expected, p);
    for (std::size_t i = 0; i < n; ++i)
      EXPECT_EQ(buf.words[i], expected[i]) << "stages=" << stages;
  }
}

TEST(ComputeUnitC1, CountsButterflies) {
  const ntt::NttParams p = ntt::NttParams::create(8);
  ComputeUnit cu = make_cu(p);
  AtomBuffer buf;
  cu.exec_c1(buf, 3);
  EXPECT_EQ(cu.butterfly_count(), 12u);  // 3 stages x 4 BUs
}

TEST(ComputeUnitC1, RejectsBadStageCount) {
  const ntt::NttParams p = ntt::NttParams::create(8);
  ComputeUnit cu = make_cu(p);
  AtomBuffer buf;
  EXPECT_THROW(cu.exec_c1(buf, 0), std::invalid_argument);
  EXPECT_THROW(cu.exec_c1(buf, 4), std::invalid_argument);
}

TEST(ComputeUnitC2, VectorizedDitButterfly) {
  const ntt::NttParams p = ntt::NttParams::create(1024);
  ComputeUnit cu = make_cu(p);
  const std::uint32_t q = p.q();

  // Program the TFG like the MC does for a stage with step w and start w0.
  const std::uint32_t w0 = p.omega_pow(5);
  const std::uint32_t step = p.omega_pow(3);
  cu.load_param(ParamReg::kTfgOmega0, w0);
  cu.load_param(ParamReg::kTfgStep, step);

  Rng rng(2);
  AtomBuffer pb, sb;
  std::vector<std::uint32_t> a = rng.residues(8, q);
  std::vector<std::uint32_t> b = rng.residues(8, q);
  std::copy(a.begin(), a.end(), pb.words.begin());
  std::copy(b.begin(), b.end(), sb.words.begin());

  cu.exec_c2(pb, sb, /*tfg_reset=*/true);

  std::uint64_t w = w0;
  for (std::size_t j = 0; j < kAtomWords; ++j) {
    const std::uint64_t t = ntt::mul_mod(b[j], w, q);
    EXPECT_EQ(pb.words[j], ntt::add_mod(a[j], t, q));
    EXPECT_EQ(sb.words[j], ntt::sub_mod(a[j], t, q));
    w = ntt::mul_mod(w, step, q);
  }
}

TEST(ComputeUnitC2, TfgContinuesAcrossCommands) {
  // Without a reset, the second C2 must continue the geometric sequence —
  // the property that lets the MC avoid per-command PARAM traffic.
  const ntt::NttParams p = ntt::NttParams::create(256);
  ComputeUnit cu = make_cu(p);
  cu.load_param(ParamReg::kTfgOmega0, 1);
  cu.load_param(ParamReg::kTfgStep, p.omega());

  AtomBuffer pb, sb;
  pb.words.fill(0);
  sb.words.fill(1);  // P=0, S=1: after C2, S side = -w_j
  cu.exec_c2(pb, sb, true);
  AtomBuffer pb2, sb2;
  pb2.words.fill(0);
  sb2.words.fill(1);
  cu.exec_c2(pb2, sb2, false);

  for (std::size_t j = 0; j < kAtomWords; ++j) {
    EXPECT_EQ(pb.words[j], p.omega_pow(j));       // 0 + w_j * 1
    EXPECT_EQ(pb2.words[j], p.omega_pow(8 + j));  // sequence continued
  }
}

TEST(ComputeUnitC2, ZeroOperandTrickScales) {
  // C2 with P = 0 leaves w_j * S[j] in P: the scaling pass primitive.
  const ntt::NttParams p = ntt::NttParams::create(64);
  ComputeUnit cu = make_cu(p);
  cu.load_param(ParamReg::kTfgOmega0, p.n_inv());
  cu.load_param(ParamReg::kTfgStep, 1);

  Rng rng(3);
  AtomBuffer pb, sb;
  pb.clear();
  const auto data = rng.residues(8, p.q());
  std::copy(data.begin(), data.end(), sb.words.begin());

  cu.exec_c2(pb, sb, true);
  for (std::size_t j = 0; j < kAtomWords; ++j)
    EXPECT_EQ(pb.words[j], ntt::mul_mod(data[j], p.n_inv(), p.q()));
}

TEST(ComputeUnitC2, RejectsAliasedBuffers) {
  const ntt::NttParams p = ntt::NttParams::create(8);
  ComputeUnit cu = make_cu(p);
  AtomBuffer buf;
  EXPECT_THROW(cu.exec_c2(buf, buf, false), std::invalid_argument);
}

TEST(ComputeUnitScalar, ButterflyOnRegisters) {
  const ntt::NttParams p = ntt::NttParams::create(16);
  ComputeUnit cu = make_cu(p);
  const std::uint32_t q = p.q();
  const std::uint32_t w0 = p.omega_pow(2);
  cu.load_param(ParamReg::kTfgOmega0, w0);
  cu.load_param(ParamReg::kTfgStep, p.omega());

  cu.set_scalar_reg(0, 100);
  cu.set_scalar_reg(1, 200);
  cu.exec_scalar_bu(/*tfg_reset=*/true);

  const std::uint64_t t = ntt::mul_mod(200, w0, q);
  EXPECT_EQ(cu.scalar_reg(0), ntt::add_mod(100, t, q));
  EXPECT_EQ(cu.scalar_reg(1), ntt::sub_mod(100, t, q));
  EXPECT_EQ(cu.butterfly_count(), 1u);
}

TEST(ComputeUnitScalar, RegisterIndexChecked) {
  ComputeUnit cu;
  cu.load_param(ParamReg::kModulus, 17);
  EXPECT_THROW(cu.set_scalar_reg(2, 1), std::invalid_argument);
  EXPECT_THROW(cu.scalar_reg(5), std::invalid_argument);
}

TEST(ComputeUnit, ModulusParamResetsTfg) {
  ComputeUnit cu;
  cu.load_param(ParamReg::kModulus, 97);
  cu.load_param(ParamReg::kTfgStep, 3);
  cu.load_param(ParamReg::kTfgOmega0, 5);
  cu.load_param(ParamReg::kModulus, 17);  // re-parameterize (new NTT call)
  EXPECT_EQ(cu.modulus(), 17u);
  // TFG state rebuilt for the new modulus: omega0 = step = current = 1, so
  // every twiddle is 1, with or without a reset. With (r0, r1) = (0, 1) a
  // scalar butterfly leaves its twiddle in r0.
  for (const bool reset : {false, false, true, false}) {
    cu.set_scalar_reg(0, 0);
    cu.set_scalar_reg(1, 1);
    cu.exec_scalar_bu(reset);
    EXPECT_EQ(cu.scalar_reg(0), 1u);
  }
}

TEST(ComputeUnit, RejectsDegenerateModulus) {
  ComputeUnit cu;
  EXPECT_THROW(cu.load_param(ParamReg::kModulus, 0),
               std::invalid_argument);
  EXPECT_THROW(cu.load_param(ParamReg::kModulus, 1),
               std::invalid_argument);
  // Beyond the BU datapath's 31-bit modulus range.
  EXPECT_THROW(cu.load_param(ParamReg::kModulus, (1u << 31) + 1),
               std::invalid_argument);
}

}  // namespace
}  // namespace nttpim::pim
