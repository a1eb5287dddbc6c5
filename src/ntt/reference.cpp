#include "ntt/reference.h"

#include <array>

#include "common/bitutil.h"
#include "common/check.h"
#include "ntt/modular.h"

namespace nttpim::ntt {

std::vector<std::uint32_t> naive_dft(std::span<const std::uint32_t> a,
                                     const NttParams& params) {
  NTTPIM_EXPECT(a.size() == params.n());
  const std::uint64_t q = params.q();
  const std::size_t n = params.n();
  std::vector<std::uint32_t> x(n);
  for (std::size_t k = 0; k < n; ++k) {
    std::uint64_t acc = 0;
    const std::uint64_t wk = params.omega_pow(k);
    std::uint64_t w = 1;  // omega^{ik}, stepped by omega^k per i
    for (std::size_t i = 0; i < n; ++i) {
      acc = add_mod(acc, mul_mod(a[i], w, q), q);
      w = mul_mod(w, wk, q);
    }
    x[k] = static_cast<std::uint32_t>(acc);
  }
  return x;
}

std::vector<std::uint32_t> naive_idft(std::span<const std::uint32_t> x,
                                      const NttParams& params) {
  NTTPIM_EXPECT(x.size() == params.n());
  const std::uint64_t q = params.q();
  const std::size_t n = params.n();
  std::vector<std::uint32_t> a(n);
  for (std::size_t i = 0; i < n; ++i) {
    std::uint64_t acc = 0;
    const std::uint64_t wi = pow_mod(params.omega_inv(), i, q);
    std::uint64_t w = 1;
    for (std::size_t k = 0; k < n; ++k) {
      acc = add_mod(acc, mul_mod(x[k], w, q), q);
      w = mul_mod(w, wi, q);
    }
    a[i] = static_cast<std::uint32_t>(mul_mod(acc, params.n_inv(), q));
  }
  return a;
}

namespace {

// Shared DIT kernel over a twiddle base (omega for forward, omega^-1 for
// unscaled inverse).
void dit_kernel(std::span<std::uint32_t> a, const NttParams& params,
                std::uint32_t twiddle_base) {
  NTTPIM_EXPECT(a.size() == params.n());
  const std::size_t n = a.size();
  const std::uint64_t q = params.q();
  // steps[s - 1] = base^(n >> s) for stage s in [1, log2 n]: the last stage
  // uses base^1, and each earlier stage squares the next one's step.
  const unsigned log2n = exact_log2(n);
  std::array<std::uint64_t, 64> steps{};
  if (log2n > 0) {
    steps[log2n - 1] = twiddle_base % q;
    for (unsigned s = log2n - 1; s >= 1; --s)
      steps[s - 1] = mul_mod(steps[s], steps[s], q);
  }
  unsigned s = 1;
  for (std::size_t m = 1; m < n; m <<= 1, ++s) {
    // Stage with span m: butterfly pairs (k+j, k+j+m); twiddle step
    // w_s = base^(n/(2m)), twiddles w_s^j reset at each group.
    const std::uint64_t step = steps[s - 1];
    for (std::size_t k = 0; k < n; k += 2 * m) {
      std::uint64_t w = 1;
      for (std::size_t j = 0; j < m; ++j) {
        const std::uint64_t u = a[k + j];
        const std::uint64_t t = mul_mod(a[k + j + m], w, q);
        a[k + j] = static_cast<std::uint32_t>(add_mod(u, t, q));
        a[k + j + m] = static_cast<std::uint32_t>(sub_mod(u, t, q));
        w = mul_mod(w, step, q);
      }
    }
  }
}

}  // namespace

void ntt_dit_bitrev_to_natural(std::span<std::uint32_t> a,
                               const NttParams& params) {
  dit_kernel(a, params, params.omega());
}

void intt_dit_bitrev_to_natural(std::span<std::uint32_t> a,
                                const NttParams& params) {
  dit_kernel(a, params, params.omega_inv());
}

std::vector<std::uint32_t> ntt_recursive(std::span<const std::uint32_t> a,
                                         const NttParams& params) {
  NTTPIM_EXPECT(a.size() == params.n());
  const std::uint64_t q = params.q();

  // Recursive even/odd (DIT) split over an explicit stride view.
  struct Impl {
    std::uint64_t q;
    std::span<const std::uint32_t> data;

    std::vector<std::uint32_t> run(std::size_t offset, std::size_t stride,
                                   std::size_t n, std::uint64_t omega) const {
      if (n == 1) return {data[offset]};
      const std::uint64_t omega2 = mul_mod(omega, omega, q);
      const auto even = run(offset, stride * 2, n / 2, omega2);
      const auto odd = run(offset + stride, stride * 2, n / 2, omega2);
      std::vector<std::uint32_t> out(n);
      std::uint64_t w = 1;
      for (std::size_t k = 0; k < n / 2; ++k) {
        const std::uint64_t t = mul_mod(odd[k], w, q);
        out[k] = static_cast<std::uint32_t>(add_mod(even[k], t, q));
        out[k + n / 2] = static_cast<std::uint32_t>(sub_mod(even[k], t, q));
        w = mul_mod(w, omega, q);
      }
      return out;
    }
  };

  return Impl{q, a}.run(0, 1, params.n(), params.omega());
}

void forward_ntt(std::vector<std::uint32_t>& a, const NttParams& params) {
  bit_reverse_permute(a);
  ntt_dit_bitrev_to_natural(a, params);
}

void inverse_ntt(std::vector<std::uint32_t>& a, const NttParams& params) {
  bit_reverse_permute(a);
  intt_dit_bitrev_to_natural(a, params);
  const std::uint64_t q = params.q();
  for (auto& x : a)
    x = static_cast<std::uint32_t>(mul_mod(x, params.n_inv(), q));
}

}  // namespace nttpim::ntt
