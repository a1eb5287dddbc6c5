#include "pim/cu.h"

#include "common/check.h"
#include "ntt/modular.h"

namespace nttpim::pim {

void ComputeUnit::refresh_c1_powers() {
  // exec_c1 stage s of `stages` <= 3 steps by c1_root^(2^(stages-s)), so
  // its twiddle j is c1_root^(j << (stages-s)), an exponent below 4.
  const std::uint32_t root = barrett_.reduce(c1_root_);
  std::uint32_t power = 1;
  for (ntt::ShoupMul& entry : c1_pow_) {
    entry = ntt::make_shoup(power, q_);
    power = barrett_.mul(power, root);
  }
}

void ComputeUnit::load_param(dram::ParamReg reg, std::uint32_t value) {
  switch (reg) {
    case dram::ParamReg::kModulus:
      // The BU's reduction pipelines (Montgomery in hardware, Barrett and
      // Shoup here) handle 31-bit moduli; reject out-of-range values up
      // front rather than from inside the reducer's constructor.
      NTTPIM_EXPECT_MSG(value > 1 && value < (1u << 31),
                        "modulus must be in (1, 2^31)");
      q_ = value;
      barrett_ = ntt::Barrett32(q_);
      omega0_ = step_ = current_ = 1;
      refresh_c1_powers();
      break;
    case dram::ParamReg::kTfgOmega0:
      omega0_ = value % q_;
      break;
    case dram::ParamReg::kTfgStep:
      step_ = value % q_;
      break;
    case dram::ParamReg::kC1Root:
      c1_root_ = value % q_;
      refresh_c1_powers();
      break;
  }
}

void ComputeUnit::exec_c1(AtomBuffer& buf, unsigned stages) {
  NTTPIM_EXPECT_MSG(stages >= 1 && stages <= 3,
                    "C1 supports 1..log2(Na) stages");
  const std::size_t points = std::size_t{1} << stages;
  NTTPIM_CHECK(points <= kAtomWords);
  // `stages` DIT stages over the first 2^stages words; stage s's twiddle
  // step is c1_root^(2^(stages-s)) — squaring the root register per stage,
  // exactly what the tiny C1 twiddle logic does in hardware (its powers
  // precomputed here at PARAM-load time).
  for (unsigned s = 1; s <= stages; ++s) {
    const std::size_t m = std::size_t{1} << (s - 1);
    const unsigned shift = stages - s;
    for (std::size_t k = 0; k < points; k += 2 * m)
      for (std::size_t j = 0; j < m; ++j)
        ntt::shoup_butterfly(buf.words[k + j], buf.words[k + j + m],
                             c1_pow_[j << shift], q_);
  }
  butterflies_ += (points / 2) * stages;
}

void ComputeUnit::exec_c2(AtomBuffer& p, AtomBuffer& s, bool tfg_reset) {
  NTTPIM_EXPECT_MSG(&p != &s, "C2 operand buffers must be distinct");
  if (tfg_reset) current_ = omega0_;
  for (std::size_t j = 0; j < kAtomWords; ++j)
    ntt::dit_butterfly(p.words[j], s.words[j],
                       barrett_.mul(s.words[j], next_twiddle()), q_);
  butterflies_ += kAtomWords;
}

void ComputeUnit::set_scalar_reg(unsigned index, std::uint32_t value) {
  NTTPIM_EXPECT(index < 2);
  scalar_[index] = value % q_;
}

std::uint32_t ComputeUnit::scalar_reg(unsigned index) const {
  NTTPIM_EXPECT(index < 2);
  return scalar_[index];
}

void ComputeUnit::exec_scalar_bu(bool tfg_reset) {
  if (tfg_reset) current_ = omega0_;
  ntt::dit_butterfly(scalar_[0], scalar_[1],
                     barrett_.mul(scalar_[1], next_twiddle()), q_);
  ++butterflies_;
}

}  // namespace nttpim::pim
