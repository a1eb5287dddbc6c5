#include "fhe/ntt_backend.h"

#include <algorithm>

#include "common/check.h"

namespace nttpim::fhe {

void NttBackend::transform_batch_mixed(std::span<const BatchItem> items) {
  std::vector<const std::vector<std::uint32_t>*> polys;
  polys.reserve(items.size());
  for (const auto& item : items) {
    NTTPIM_EXPECT_MSG(item.poly != nullptr && item.params != nullptr,
                      "batch item needs a polynomial and a parameter set");
    polys.push_back(item.poly);
  }
  std::sort(polys.begin(), polys.end());
  NTTPIM_EXPECT_MSG(
      std::adjacent_find(polys.begin(), polys.end()) == polys.end(),
      "batch items must not alias the same polynomial (write-back order "
      "of aliased outputs is unspecified)");
  if (items.empty()) return;
  modeled_cycles_ += run_wave(items);
  transforms_ += items.size();
}

void NttBackend::transform_batch(std::span<std::vector<std::uint32_t>> polys,
                                 const ntt::NttParams& params, bool inverse) {
  std::vector<BatchItem> items;
  items.reserve(polys.size());
  for (auto& poly : polys) items.push_back({&poly, &params, inverse});
  transform_batch_mixed(items);
}

}  // namespace nttpim::fhe
