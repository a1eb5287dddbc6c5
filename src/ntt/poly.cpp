#include "ntt/poly.h"

#include "common/check.h"
#include "ntt/barrett.h"
#include "ntt/modular.h"
#include "ntt/negacyclic.h"
#include "ntt/reference.h"

namespace nttpim::ntt {

std::vector<std::uint32_t> cyclic_convolution_schoolbook(
    std::span<const std::uint32_t> a, std::span<const std::uint32_t> b,
    std::uint32_t q) {
  NTTPIM_EXPECT(a.size() == b.size());
  const std::size_t n = a.size();
  std::vector<std::uint32_t> c(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      const std::size_t k = (i + j) % n;
      c[k] = static_cast<std::uint32_t>(
          add_mod(c[k], mul_mod(a[i], b[j], q), q));
    }
  }
  return c;
}

std::vector<std::uint32_t> negacyclic_convolution_schoolbook(
    std::span<const std::uint32_t> a, std::span<const std::uint32_t> b,
    std::uint32_t q) {
  NTTPIM_EXPECT(a.size() == b.size());
  const std::size_t n = a.size();
  std::vector<std::uint32_t> c(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      const std::uint64_t prod = mul_mod(a[i], b[j], q);
      const std::size_t k = (i + j) % n;
      if (i + j < n) {
        c[k] = static_cast<std::uint32_t>(add_mod(c[k], prod, q));
      } else {
        // X^N = -1 wraps with a sign flip.
        c[k] = static_cast<std::uint32_t>(sub_mod(c[k], prod, q));
      }
    }
  }
  return c;
}

std::vector<std::uint32_t> pointwise_mul(std::span<const std::uint32_t> a,
                                         std::span<const std::uint32_t> b,
                                         std::uint32_t q) {
  NTTPIM_EXPECT(a.size() == b.size());
  const Barrett32 br(q);
  std::vector<std::uint32_t> c(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) c[i] = br.mul(a[i], b[i]);
  return c;
}

std::vector<std::uint32_t> cyclic_convolution_ntt(
    std::span<const std::uint32_t> a, std::span<const std::uint32_t> b,
    const NttParams& params) {
  NTTPIM_EXPECT(a.size() == params.n() && b.size() == params.n());
  std::vector<std::uint32_t> fa(a.begin(), a.end());
  std::vector<std::uint32_t> fb(b.begin(), b.end());
  forward_ntt(fa, params);
  forward_ntt(fb, params);
  auto fc = pointwise_mul(fa, fb, params.q());
  inverse_ntt(fc, params);
  return fc;
}

std::vector<std::uint32_t> negacyclic_convolution_ntt(
    std::span<const std::uint32_t> a, std::span<const std::uint32_t> b,
    const NttParams& params) {
  NTTPIM_EXPECT(a.size() == params.n() && b.size() == params.n());
  std::vector<std::uint32_t> fa(a.begin(), a.end());
  std::vector<std::uint32_t> fb(b.begin(), b.end());
  forward_negacyclic_ntt(fa, params);
  forward_negacyclic_ntt(fb, params);
  auto fc = pointwise_mul(fa, fb, params.q());
  inverse_negacyclic_ntt(fc, params);
  return fc;
}

}  // namespace nttpim::ntt
