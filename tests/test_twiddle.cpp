// The CU's twiddle factor generator (TFG) against a chain model of the
// hardware with plain `%` arithmetic: one modular multiply per twiddle,
// omega <- omega * step. The CU takes the same step, and each butterfly's
// product, with Barrett reduction and a branch-free combine (pim/cu.h);
// the model is what those must reproduce value for value.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <vector>

#include "common/random.h"
#include "ntt/modular.h"
#include "ntt/params.h"
#include "pim/cu.h"

namespace nttpim::pim {
namespace {

using dram::ParamReg;
using ntt::mul_mod;

/// The hardware TFG as a chain. A modulus load rebuilds it at
/// omega0 = step = current = 1; an omega0 load leaves the running sequence
/// alone; a step load continues from the current value; a reset reloads
/// omega0.
class ChainTfg {
 public:
  explicit ChainTfg(std::uint32_t q) : q_(q) {}
  void set_omega0(std::uint32_t v) { omega0_ = v % q_; }
  void set_step(std::uint32_t v) { step_ = v % q_; }
  void reset() { current_ = omega0_; }
  std::uint32_t next() {
    const std::uint32_t value = current_;
    current_ = static_cast<std::uint32_t>(mul_mod(current_, step_, q_));
    return value;
  }

 private:
  std::uint32_t q_;
  std::uint32_t omega0_ = 1;
  std::uint32_t step_ = 1;
  std::uint32_t current_ = 1;
};

/// The CU's functional semantics over ChainTfg, with plain `%` arithmetic:
/// the model a CU command stream is checked against.
class ChainCu {
 public:
  void load_param(ParamReg reg, std::uint32_t value) {
    switch (reg) {
      case ParamReg::kModulus:
        q_ = value;
        tfg_ = ChainTfg(q_);
        break;
      case ParamReg::kTfgOmega0:
        tfg_.set_omega0(value);
        break;
      case ParamReg::kTfgStep:
        tfg_.set_step(value);
        break;
      case ParamReg::kC1Root:
        c1_root_ = value % q_;
        break;
    }
  }
  void exec_c1(AtomBuffer& buf, unsigned stages) {
    const std::size_t points = std::size_t{1} << stages;
    for (unsigned s = 1; s <= stages; ++s) {
      const std::size_t m = std::size_t{1} << (s - 1);
      const std::uint64_t step =
          ntt::pow_mod(c1_root_, std::uint64_t{1} << (stages - s), q_);
      for (std::size_t k = 0; k < points; k += 2 * m) {
        std::uint64_t w = 1;
        for (std::size_t j = 0; j < m; ++j) {
          butterfly(buf.words[k + j], buf.words[k + j + m], w);
          w = mul_mod(w, step, q_);
        }
      }
    }
  }
  void exec_c2(AtomBuffer& p, AtomBuffer& s, bool reset) {
    if (reset) tfg_.reset();
    for (std::size_t j = 0; j < kAtomWords; ++j)
      butterfly(p.words[j], s.words[j], tfg_.next());
  }
  void set_scalar_reg(unsigned index, std::uint32_t value) {
    scalar_[index] = value % q_;
  }
  std::uint32_t scalar_reg(unsigned index) const { return scalar_[index]; }
  void exec_scalar_bu(bool reset) {
    if (reset) tfg_.reset();
    butterfly(scalar_[0], scalar_[1], tfg_.next());
  }

 private:
  void butterfly(std::uint32_t& a, std::uint32_t& b, std::uint64_t w) const {
    const std::uint64_t u = a;
    const std::uint64_t t = mul_mod(b, w, q_);
    a = static_cast<std::uint32_t>(ntt::add_mod(u, t, q_));
    b = static_cast<std::uint32_t>(ntt::sub_mod(u, t, q_));
  }

  std::uint32_t q_ = 3;
  ChainTfg tfg_{3};
  std::uint32_t c1_root_ = 1;
  std::uint32_t scalar_[2] = {0, 0};
};

/// The twiddle the next scalar butterfly draws: with (r0, r1) = (0, 1) it
/// leaves w in r0.
template <typename Cu>
std::uint32_t draw(Cu& cu, bool reset = false) {
  cu.set_scalar_reg(0, 0);
  cu.set_scalar_reg(1, 1);
  cu.exec_scalar_bu(reset);
  return cu.scalar_reg(0);
}

ComputeUnit cu_with(std::uint32_t q, std::uint32_t omega0,
                    std::uint32_t step) {
  ComputeUnit cu;
  cu.load_param(ParamReg::kModulus, q);
  cu.load_param(ParamReg::kTfgOmega0, omega0);
  cu.load_param(ParamReg::kTfgStep, step);
  return cu;
}

TEST(TwiddleGenerator, GeometricSequence) {
  const std::uint32_t q = 12289;
  ComputeUnit cu = cu_with(q, 7, 3);
  std::uint64_t expected = 7;
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(draw(cu, i == 0), expected);
    expected = mul_mod(expected, 3, q);
  }
}

TEST(TwiddleGenerator, ResetReloadsOmega0) {
  ComputeUnit cu = cu_with(97, 5, 2);
  EXPECT_EQ(draw(cu, true), 5u);
  EXPECT_EQ(draw(cu), 10u);
  EXPECT_EQ(draw(cu, true), 5u);  // back to the start
}

TEST(TwiddleGenerator, Omega0LoadDoesNotDisturbCurrent) {
  ComputeUnit cu = cu_with(97, 5, 1);
  EXPECT_EQ(draw(cu, true), 5u);
  cu.load_param(ParamReg::kTfgOmega0, 11);  // PARAM arrives mid-sequence
  EXPECT_EQ(draw(cu), 5u);                  // sequence continues (step=1)
  EXPECT_EQ(draw(cu, true), 11u);  // only reset consumes the new omega0
}

TEST(TwiddleGenerator, StepLoadContinuesFromCurrent) {
  ComputeUnit cu = cu_with(97, 5, 2);
  EXPECT_EQ(draw(cu, true), 5u);
  EXPECT_EQ(draw(cu), 10u);
  cu.load_param(ParamReg::kTfgStep, 3);  // current is 20
  EXPECT_EQ(draw(cu), 20u);
  EXPECT_EQ(draw(cu), 60u);
}

TEST(TwiddleGenerator, MatchesStageTwiddlesOfReference) {
  // The TFG with step w_s reproduces the DIT stage-s twiddles w_s^j.
  const ntt::NttParams p = ntt::NttParams::create(256);
  for (unsigned s = 1; s <= p.log2n(); ++s) {
    ComputeUnit cu = cu_with(p.q(), 1, p.stage_step(s));
    const std::size_t m = std::size_t{1} << (s - 1);
    for (std::size_t j = 0; j < m; ++j) {
      EXPECT_EQ(draw(cu, j == 0), ntt::pow_mod(p.stage_step(s), j, p.q()))
          << "s=" << s << " j=" << j;
    }
  }
}

TEST(TwiddleGenerator, ValuesReducedModQ) {
  ComputeUnit cu = cu_with(7, 100, 100);  // both > q: must be reduced
  EXPECT_LT(draw(cu, true), 7u);
  EXPECT_LT(draw(cu), 7u);
}

TEST(TwiddleGenerator, LongSequenceAtTheLargestModulus) {
  // One reset, then 773 twiddles at the largest modulus the CU takes: the
  // Barrett step stays exact along the whole chain.
  const std::uint32_t q = 2147483647u;
  ComputeUnit cu = cu_with(q, 123456789, 987654321);
  ChainTfg chain(q);
  chain.set_omega0(123456789);
  chain.set_step(987654321);
  chain.reset();
  for (int i = 0; i < 773; ++i) ASSERT_EQ(draw(cu, i == 0), chain.next()) << i;
}

// Random command streams through a CU and through ChainCu must leave the
// same buffers and registers after every command. The streams mix
// modulus, omega0, step and C1-root PARAMs, C1, and C2 and scalar
// butterflies with and without a TFG reset, over four moduli up to the
// largest the CU takes.
TEST(TwiddleGeneratorProperty, RandomStreamsMatchTheChain) {
  const std::array<std::uint32_t, 4> moduli = {12289u, 998244353u,
                                              2013265921u, 2147483647u};
  Rng rng(2024);
  const auto pool = [&rng](std::size_t size) {
    std::vector<std::uint32_t> values(size);
    for (auto& v : values) v = static_cast<std::uint32_t>(rng.next_u64());
    return values;
  };
  const std::vector<std::uint32_t> omega0s = pool(64);
  const std::vector<std::uint32_t> steps = pool(5);
  const std::vector<std::uint32_t> roots = pool(5);
  const auto pick = [&rng](const std::vector<std::uint32_t>& values) {
    return values[rng.next_below(values.size())];
  };

  ComputeUnit cu;
  ChainCu model;
  std::array<AtomBuffer, 2> cu_bufs{}, model_bufs{};
  for (int op = 0; op < 12000; ++op) {
    const auto kind = rng.next_below(100);
    if (kind < 1) {
      const std::uint32_t q = moduli[rng.next_below(moduli.size())];
      cu.load_param(ParamReg::kModulus, q);
      model.load_param(ParamReg::kModulus, q);
    } else if (kind < 21) {
      const std::uint32_t v = pick(omega0s);
      cu.load_param(ParamReg::kTfgOmega0, v);
      model.load_param(ParamReg::kTfgOmega0, v);
    } else if (kind < 26) {
      const std::uint32_t v = pick(steps);
      cu.load_param(ParamReg::kTfgStep, v);
      model.load_param(ParamReg::kTfgStep, v);
    } else if (kind < 28) {
      const std::uint32_t v = pick(roots);
      cu.load_param(ParamReg::kC1Root, v);
      model.load_param(ParamReg::kC1Root, v);
    } else if (kind < 33) {
      const auto stages = static_cast<unsigned>(rng.next_in(1, 3));
      cu.exec_c1(cu_bufs[0], stages);
      model.exec_c1(model_bufs[0], stages);
    } else if (kind < 83) {
      const bool reset = rng.next_below(3) == 0;
      cu.exec_c2(cu_bufs[0], cu_bufs[1], reset);
      model.exec_c2(model_bufs[0], model_bufs[1], reset);
    } else if (kind < 93) {
      const bool reset = rng.next_below(3) == 0;
      cu.exec_scalar_bu(reset);
      model.exec_scalar_bu(reset);
    } else {
      // Fresh operands: random words (not always reduced) in both buffers
      // and both scalar registers.
      for (std::size_t b = 0; b < 2; ++b)
        for (std::size_t j = 0; j < kAtomWords; ++j)
          cu_bufs[b].words[j] = model_bufs[b].words[j] =
              static_cast<std::uint32_t>(rng.next_u64());
      for (unsigned r = 0; r < 2; ++r) {
        const auto v = static_cast<std::uint32_t>(rng.next_u64());
        cu.set_scalar_reg(r, v);
        model.set_scalar_reg(r, v);
      }
    }
    ASSERT_EQ(cu_bufs[0].words, model_bufs[0].words) << "op " << op;
    ASSERT_EQ(cu_bufs[1].words, model_bufs[1].words) << "op " << op;
    ASSERT_EQ(cu.scalar_reg(0), model.scalar_reg(0)) << "op " << op;
    ASSERT_EQ(cu.scalar_reg(1), model.scalar_reg(1)) << "op " << op;
  }
}

// One reset-free stream of 1024 C2s (8192 twiddles), with step and omega0
// loads mid-sequence and no reset at all: the sequence runs on from the
// modulus load's (1, 1) start through every step change.
TEST(TwiddleGeneratorProperty, ResetFreeStreamMatchesTheChain) {
  const std::uint32_t q = 2013265921u;
  Rng rng(7);
  ComputeUnit cu;
  ChainCu model;
  cu.load_param(ParamReg::kModulus, q);
  model.load_param(ParamReg::kModulus, q);
  AtomBuffer cu_p{}, cu_s{}, model_p{}, model_s{};
  for (int op = 0; op < 1024; ++op) {
    if (op % 97 == 0) {
      const auto v = static_cast<std::uint32_t>(rng.next_in(2, q - 1));
      cu.load_param(ParamReg::kTfgStep, v);
      model.load_param(ParamReg::kTfgStep, v);
    }
    if (op % 31 == 0) {
      const auto v = static_cast<std::uint32_t>(rng.next_u64());
      cu.load_param(ParamReg::kTfgOmega0, v);  // never consumed: no reset
      model.load_param(ParamReg::kTfgOmega0, v);
    }
    for (std::size_t j = 0; j < kAtomWords; ++j) {
      cu_p.words[j] = model_p.words[j] =
          rng.next_mod(q);
      cu_s.words[j] = model_s.words[j] =
          rng.next_mod(q);
    }
    cu.exec_c2(cu_p, cu_s, false);
    model.exec_c2(model_p, model_s, false);
    ASSERT_EQ(cu_p.words, model_p.words) << "op " << op;
    ASSERT_EQ(cu_s.words, model_s.words) << "op " << op;
  }
}

}  // namespace
}  // namespace nttpim::pim
