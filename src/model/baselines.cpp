#include "model/baselines.h"

#include "common/check.h"

namespace nttpim::model {

std::optional<double> ReferenceDesign::latency_at(std::size_t n) const {
  for (const auto& p : points)
    if (p.n == n) return p.latency_us;
  return std::nullopt;
}

std::optional<double> ReferenceDesign::energy_at(std::size_t n) const {
  for (const auto& p : points)
    if (p.n == n) return p.energy_uj;
  return std::nullopt;
}

const std::vector<ReferenceDesign>& table3_designs() {
  static const std::vector<ReferenceDesign> designs = {
      {"MeNTT",
       "6T-SRAM",
       "14/16",
       {{256, 23.0, 0.144},
        {512, 26.0, 0.324},
        {1024, 34.3, 0.868}}},
      {"CryptoPIM",
       "RRAM",
       "16/32",
       {{256, 68.57, 68.67},
        {512, 75.90, 75.90},
        {1024, 83.12, 83.12},
        {2048, 363.90, 363.60},
        {4096, 392.69, 421.78}}},
      {"x86 CPU (paper)",
       "Software",
       "32",
       {{256, 84.81, 570.60},
        {512, 168.96, 1179.52},
        {1024, 349.41, 2483.77},
        {2048, 736.92, 5273.07},
        {4096, 1503.31, 10864.64}}},
      {"FPGA",
       "-",
       "16",
       {{256, 21.56, 2.15}, {512, 47.64, 5.28}, {1024, 101.84, 12.52}}},
  };
  return designs;
}

const ReferenceDesign& paper_nttpim(std::size_t num_buffers) {
  static const ReferenceDesign nb2 = {
      "NTT-PIM (paper, Nb=2)",
      "DRAM",
      "32",
      {{256, 3.90, 0.80},
       {512, 14.16, 4.77},
       {1024, 38.19, 13.86},
       {2048, 95.84, 36.68},
       {4096, 230.45, 93.08}}};
  static const ReferenceDesign nb4 = {
      "NTT-PIM (paper, Nb=4)",
      "DRAM",
      "32",
      {{256, 2.50, 0.49},
       {512, 8.33, 2.67},
       {1024, 21.62, 7.16},
       {2048, 53.03, 18.98},
       {4096, 124.95, 48.93}}};
  static const ReferenceDesign nb6 = {
      "NTT-PIM (paper, Nb=6)",
      "DRAM",
      "32",
      {{256, 1.94, std::nullopt},
       {512, 6.58, std::nullopt},
       {1024, 16.89, std::nullopt},
       {2048, 41.18, std::nullopt},
       {4096, 96.62, std::nullopt}}};
  switch (num_buffers) {
    case 2: return nb2;
    case 4: return nb4;
    case 6: return nb6;
    default:
      NTTPIM_EXPECT_MSG(false, "paper reports Nb in {2, 4, 6} only");
  }
  return nb2;  // unreachable
}

}  // namespace nttpim::model
