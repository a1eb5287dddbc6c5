// Compute Unit (CU) functional model — paper Fig. 2 (right), Algorithms 1–2.
//
// The CU contains: a fully pipelined butterfly unit (two ModAdd/Sub, one
// ModMult with Montgomery reduction), the twiddle factor generator (TFG),
// two scalar operand registers, parameter registers loaded via PARAM
// commands, and a crossbar connecting buffers to the BU registers.
//
// This class implements the *functional* semantics; latencies live in
// DramTiming and are accounted by the simulation engine. The TFG makes each
// twiddle on the fly, omega <- omega * step, one modular multiply per
// butterfly (the scheme of Aysu et al. [21] the paper adopts). The host
// model takes that step and the butterfly's product with Barrett reduction
// (ntt/barrett.h) and combines them without a branch (ntt::dit_butterfly):
// bit-exact with the plain `%` forms in modular.h and with the hardware's
// Montgomery pipeline. A C1's twiddles are the four powers of its root,
// fixed at PARAM time, so they are Shoup constants (ntt/shoup.h).
#pragma once

#include <array>
#include <cstdint>

#include "dram/command.h"
#include "ntt/barrett.h"
#include "ntt/shoup.h"
#include "pim/buffer.h"

namespace nttpim::pim {

class ComputeUnit {
 public:
  ComputeUnit() { refresh_c1_powers(); }

  /// PARAM command: load a parameter register. A modulus load restarts
  /// the TFG at omega0 = step = current = 1; an omega0 load leaves the
  /// running sequence alone (only a reset consumes it); a step load
  /// continues the sequence from its current value.
  void load_param(dram::ParamReg reg, std::uint32_t value);

  std::uint32_t modulus() const noexcept { return q_; }

  /// C1: in-buffer NTT of one atom — `stages` DIT stages (bit-reversed
  /// layout within the atom), using the C1 root parameter register.
  /// Counts 4*stages butterflies.
  void exec_c1(AtomBuffer& buf, unsigned stages);

  /// C2: Na-way vectorized DIT butterfly across two buffers:
  ///   (p[j], s[j]) <- (p[j] + w_j * s[j],  p[j] - w_j * s[j])
  /// with w_j produced by the TFG (reset first if `tfg_reset`).
  void exec_c2(AtomBuffer& p, AtomBuffer& s, bool tfg_reset);

  /// Scalar path (single-buffer fallback): registers.
  void set_scalar_reg(unsigned index, std::uint32_t value);
  std::uint32_t scalar_reg(unsigned index) const;

  /// One scalar butterfly on (r0, r1) with a TFG twiddle.
  void exec_scalar_bu(bool tfg_reset);

  /// Total butterfly operations executed (for the energy model).
  std::uint64_t butterfly_count() const noexcept { return butterflies_; }

 private:
  /// The TFG's output for this butterfly; advances current <- current * step.
  std::uint32_t next_twiddle() noexcept {
    const std::uint32_t value = current_;
    current_ = barrett_.mul(current_, step_);
    return value;
  }
  /// Re-derive c1_pow_ after a modulus or C1-root parameter load.
  void refresh_c1_powers();

  std::uint32_t q_ = 3;  ///< placeholder modulus until PARAM arrives
  ntt::Barrett32 barrett_{3};  ///< host-side stand-in for the BU's reducer
  std::uint32_t c1_root_ = 1;
  /// c1_root^e for e = 0..3: the only twiddles a C1 of <= 3 stages uses.
  std::array<ntt::ShoupMul, 4> c1_pow_{};

  // TFG registers.
  std::uint32_t omega0_ = 1;
  std::uint32_t step_ = 1;
  std::uint32_t current_ = 1;

  std::uint32_t scalar_[2] = {0, 0};
  std::uint64_t butterflies_ = 0;
};

}  // namespace nttpim::pim
