#include "eval/variation.h"

#include <gtest/gtest.h>

namespace mlaas {
namespace {

Measurement row(const std::string& platform, const std::string& clf, const std::string& params,
                double f, const std::string& dataset, bool default_params = false,
                const std::string& feat = "none") {
  Measurement m;
  m.dataset_id = dataset;
  m.platform = platform;
  m.feature_step = feat;
  m.classifier = clf;
  m.params = params;
  m.default_params = default_params;
  m.test.f_score = f;
  return m;
}

MeasurementTable demo() {
  MeasurementTable t;
  // Config A averages 0.5, config B averages 0.9 across two datasets.
  t.add(row("P", "logistic_regression", "", 0.4, "d1", true));
  t.add(row("P", "logistic_regression", "", 0.6, "d2", true));
  t.add(row("P", "boosted_trees", "", 0.85, "d1", true));
  t.add(row("P", "boosted_trees", "", 0.95, "d2", true));
  return t;
}

TEST(Variation, ConfigAveragesAcrossDatasets) {
  const auto averages = config_averages(demo(), "P");
  ASSERT_EQ(averages.size(), 2u);
  // Sorted by config key (boosted < logistic lexicographically).
  EXPECT_NEAR(averages[0] + averages[1], 1.4, 1e-12);
}

TEST(Variation, OverallSummary) {
  const auto v = overall_variation(demo(), "P");
  EXPECT_EQ(v.n_configs, 2u);
  EXPECT_NEAR(v.min_f, 0.5, 1e-12);
  EXPECT_NEAR(v.max_f, 0.9, 1e-12);
  EXPECT_NEAR(v.range(), 0.4, 1e-12);
  EXPECT_NEAR(v.median_f, 0.7, 1e-12);
}

TEST(Variation, EmptyPlatformIsZero) {
  const auto v = overall_variation(demo(), "missing");
  EXPECT_EQ(v.n_configs, 0u);
  EXPECT_DOUBLE_EQ(v.range(), 0.0);
}

TEST(Variation, DimensionNormalization) {
  MeasurementTable t = demo();
  // Add a PARA-varied LR row making the PARA-only range 0.2.
  t.add(row("P", "logistic_regression", "C=100", 0.6, "d1"));
  t.add(row("P", "logistic_regression", "C=100", 0.8, "d2"));
  const auto dims = dimension_variations(t, {"P"});
  for (const auto& d : dims) {
    if (d.dimension == ControlDimension::kClf) {
      EXPECT_TRUE(d.supported);
      EXPECT_NEAR(d.normalized_range, 1.0, 1e-9);  // CLF spans the full range
    }
    if (d.dimension == ControlDimension::kPara) {
      EXPECT_TRUE(d.supported);
      EXPECT_NEAR(d.range, 0.2, 1e-9);
      EXPECT_NEAR(d.normalized_range, 0.5, 1e-9);
    }
    if (d.dimension == ControlDimension::kFeat) { EXPECT_FALSE(d.supported); }
  }
}

TEST(Variation, ClfDominatesVariationInFixture) {
  // §5.2's finding: classifier choice is the largest variation contributor.
  MeasurementTable t = demo();
  t.add(row("P", "logistic_regression", "C=100", 0.55, "d1"));
  t.add(row("P", "logistic_regression", "C=100", 0.65, "d2"));
  const auto dims = dimension_variations(t, {"P"});
  double clf = 0, para = 0;
  for (const auto& d : dims) {
    if (d.dimension == ControlDimension::kClf) clf = d.range;
    if (d.dimension == ControlDimension::kPara) para = d.range;
  }
  EXPECT_GT(clf, para);
}

}  // namespace
}  // namespace mlaas
