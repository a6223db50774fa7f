#include "eval/aggregate.h"

#include <gtest/gtest.h>

namespace mlaas {
namespace {

Measurement row(const std::string& dataset, const std::string& platform,
                const std::string& clf, double f, bool default_params = true,
                const std::string& feat = "none") {
  Measurement m;
  m.dataset_id = dataset;
  m.platform = platform;
  m.feature_step = feat;
  m.classifier = clf;
  m.default_params = default_params;
  m.test.f_score = f;
  m.test.accuracy = f;
  m.test.precision = f;
  m.test.recall = f;
  return m;
}

MeasurementTable demo_table() {
  MeasurementTable t;
  for (const auto& d : {"d1", "d2"}) {
    // Platform P1: baseline LR weak, tuned MLP strong.
    t.add(row(d, "P1", "logistic_regression", 0.6));
    t.add(row(d, "P1", "mlp", 0.9, false));
    // Platform P2: baseline better, but no tuning upside.
    t.add(row(d, "P2", "logistic_regression", 0.7));
    t.add(row(d, "P2", "naive_bayes", 0.65));
  }
  return t;
}

TEST(Aggregate, BaselineUsesDefaultLrRows) {
  const auto summaries = baseline_summary(demo_table());
  ASSERT_EQ(summaries.size(), 2u);
  for (const auto& s : summaries) {
    if (s.platform == "P1") { EXPECT_NEAR(s.avg.f_score, 0.6, 1e-12); }
    if (s.platform == "P2") { EXPECT_NEAR(s.avg.f_score, 0.7, 1e-12); }
  }
}

TEST(Aggregate, OptimizedTakesBestPerDataset) {
  const auto summaries = optimized_summary(demo_table());
  for (const auto& s : summaries) {
    if (s.platform == "P1") { EXPECT_NEAR(s.avg.f_score, 0.9, 1e-12); }
    if (s.platform == "P2") { EXPECT_NEAR(s.avg.f_score, 0.7, 1e-12); }
  }
}

TEST(Aggregate, SummariesSortedByFriedmanRank) {
  const auto summaries = optimized_summary(demo_table());
  EXPECT_EQ(summaries[0].platform, "P1");  // best optimized platform first
  EXPECT_LT(summaries[0].avg_rank, summaries[1].avg_rank);
}

TEST(Aggregate, BaselineRanksFlipVsOptimized) {
  const auto base = baseline_summary(demo_table());
  EXPECT_EQ(base[0].platform, "P2");  // P2 wins the baseline comparison
}

TEST(Aggregate, WinSharesDefaultParams) {
  const auto shares = classifier_win_shares(demo_table(), "P2", /*optimized_params=*/false);
  ASSERT_EQ(shares.size(), 1u);  // LR wins every dataset
  EXPECT_EQ(shares[0].first, "logistic_regression");
  EXPECT_DOUBLE_EQ(shares[0].second, 1.0);
}

TEST(Aggregate, WinSharesOptimizedParamsIncludeTunedRows) {
  const auto shares = classifier_win_shares(demo_table(), "P1", /*optimized_params=*/true);
  EXPECT_EQ(shares[0].first, "mlp");
  EXPECT_DOUBLE_EQ(shares[0].second, 1.0);
}

TEST(Aggregate, BestFPerDataset) {
  const auto best = best_f_per_dataset(demo_table());
  EXPECT_DOUBLE_EQ(best.at("d1"), 0.9);
  EXPECT_DOUBLE_EQ(best.at("d2"), 0.9);
}

TEST(Aggregate, StdErrorZeroForConstantScores) {
  const auto summaries = baseline_summary(demo_table());
  for (const auto& s : summaries) EXPECT_NEAR(s.f_std_error, 0.0, 1e-12);
}

}  // namespace
}  // namespace mlaas
