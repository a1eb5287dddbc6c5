#include <gtest/gtest.h>

#include "model/area.h"
#include "model/baselines.h"

namespace nttpim::model {
namespace {

TEST(AreaModel, ReproducesTable2) {
  const AreaModel model;
  // Paper Table II: (Nb, area mm^2, % of bank).
  const struct {
    std::size_t nb;
    double area;
    double percent;
  } rows[] = {{1, 0.0213, 0.504},
              {2, 0.0232, 0.550},
              {4, 0.0263, 0.624},
              {6, 0.0285, 0.676}};
  for (const auto& row : rows) {
    const auto got = model.nttpim_area(row.nb);
    EXPECT_NEAR(got.total_mm2, row.area, 0.0002) << "Nb=" << row.nb;
    EXPECT_NEAR(got.percent_of_bank, row.percent, 0.01) << "Nb=" << row.nb;
  }
}

TEST(AreaModel, LessThanHalfOfNewton) {
  // The paper's headline "less than half of Newton's" holds for the base
  // dual-buffer architecture; even the 6-buffer variant stays tiny
  // (both claims follow from Table II's own numbers).
  const AreaModel model;
  for (const std::size_t nb : {1u, 2u}) {
    EXPECT_LT(model.nttpim_area(nb).total_mm2, 0.5 * model.newton_area());
  }
  for (const std::size_t nb : {4u, 6u}) {
    EXPECT_LT(model.nttpim_area(nb).total_mm2, 0.61 * model.newton_area());
  }
}

TEST(AreaModel, MonotonicInBuffers) {
  const AreaModel model;
  double prev = 0;
  for (std::size_t nb = 1; nb <= 10; ++nb) {
    const double area = model.nttpim_area(nb).total_mm2;
    EXPECT_GT(area, prev);
    prev = area;
  }
}

TEST(AreaModel, BreakdownSumsToTotal) {
  const AreaModel model;
  const auto a = model.nttpim_area(4);
  EXPECT_NEAR(a.modmult_mm2 + a.modaddsub_mm2 + a.tfg_mm2 + a.lsu_ctrl_mm2 +
                  a.buffers_mm2,
              a.total_mm2, 1e-12);
  EXPECT_THROW(model.nttpim_area(0), std::invalid_argument);
}

TEST(Baselines, Table3DataLookup) {
  const auto& designs = table3_designs();
  ASSERT_EQ(designs.size(), 4u);

  const auto& mentt = designs[0];
  EXPECT_EQ(mentt.name, "MeNTT");
  ASSERT_TRUE(mentt.latency_at(1024).has_value());
  EXPECT_DOUBLE_EQ(*mentt.latency_at(1024), 34.3);
  EXPECT_FALSE(mentt.latency_at(4096).has_value());  // beyond its max N

  const auto& x86 = designs[2];
  ASSERT_TRUE(x86.energy_at(4096).has_value());
  EXPECT_DOUBLE_EQ(*x86.energy_at(4096), 10864.64);
}

TEST(Baselines, PaperNttPimRows) {
  const auto& nb2 = paper_nttpim(2);
  EXPECT_DOUBLE_EQ(*nb2.latency_at(1024), 38.19);
  const auto& nb6 = paper_nttpim(6);
  EXPECT_DOUBLE_EQ(*nb6.latency_at(256), 1.94);
  EXPECT_FALSE(nb6.energy_at(256).has_value());
  EXPECT_THROW(paper_nttpim(3), std::invalid_argument);
}

}  // namespace
}  // namespace nttpim::model
