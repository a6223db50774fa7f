#include <gtest/gtest.h>

#include "ml/tree/bagging.h"
#include "ml/tree/boosted_trees.h"
#include "ml/tree/decision_jungle.h"
#include "ml/tree/decision_tree.h"
#include "ml/tree/random_forest.h"
#include "ml/registry.h"
#include "tests/ml/test_helpers.h"

namespace mlaas {
namespace {

using testing::circles;
using testing::holdout_accuracy;
using testing::separable;

TEST(DecisionTree, LearnsNonLinearBoundary) {
  DecisionTree clf;
  EXPECT_GT(holdout_accuracy(clf, circles()), 0.9);
}

TEST(DecisionTree, EntropyCriterionAlsoLearns) {
  DecisionTree clf(ParamMap{{"criterion", std::string("entropy")}});
  EXPECT_GT(holdout_accuracy(clf, circles()), 0.9);
}

TEST(DecisionTree, DepthOneIsAStump) {
  const Dataset ds = circles(300, 4);
  DecisionTree clf(ParamMap{{"max_depth", 1LL}});
  clf.fit(ds.x(), ds.y());
  EXPECT_LE(clf.tree().depth(), 1u);
}

TEST(DecisionTree, NodeThresholdLimitsSize) {
  const Dataset ds = circles(400, 5);
  DecisionTree clf(ParamMap{{"node_threshold", 7LL}});
  clf.fit(ds.x(), ds.y());
  EXPECT_LE(clf.tree().node_count(), 7u);
}

TEST(DecisionTree, MaxFeaturesSqrtParses) {
  const auto opt = tree_options_from_params(ParamMap{{"max_features", std::string("sqrt")}},
                                            16, 0);
  EXPECT_EQ(opt.max_features, 4u);
}

TEST(DecisionTree, MaxFeaturesIntegerParses) {
  const auto opt = tree_options_from_params(ParamMap{{"max_features", std::string("3")}}, 16, 0);
  EXPECT_EQ(opt.max_features, 3u);
}

TEST(DecisionTree, MaxFeaturesUnrecognizedStringFallsBackToAllFeatures) {
  // Regression: "auto" (and any other unparsable string) used to throw out
  // of std::stoll instead of falling back to "use all features".
  for (const char* bad : {"auto", "none", "", "3.5x", "sqrt2", "-"}) {
    const auto opt =
        tree_options_from_params(ParamMap{{"max_features", std::string(bad)}}, 16, 0);
    EXPECT_EQ(opt.max_features, 0u) << "max_features=" << bad;
  }
  // Known keywords and plain integers still parse.
  EXPECT_EQ(tree_options_from_params(ParamMap{{"max_features", std::string("log2")}}, 16, 0)
                .max_features,
            4u);
  EXPECT_EQ(tree_options_from_params(ParamMap{{"max_features", std::string("all")}}, 16, 0)
                .max_features,
            0u);
  EXPECT_EQ(tree_options_from_params(ParamMap{{"max_features", std::string("7")}}, 16, 0)
                .max_features,
            7u);
}

TEST(RandomForest, BeatsSingleTreeOnNoisyCircles) {
  const Dataset noisy = make_circles(500, 0.18, 0.5, 6);
  DecisionTree tree;
  RandomForest forest(ParamMap{{"n_estimators", 30LL}});
  const double tree_acc = holdout_accuracy(tree, noisy);
  const double forest_acc = holdout_accuracy(forest, noisy);
  EXPECT_GE(forest_acc, tree_acc - 0.02);
  EXPECT_GT(forest_acc, 0.85);
}

TEST(RandomForest, EstimatorCountHonored) {
  RandomForest clf(ParamMap{{"n_estimators", 7LL}});
  const Dataset ds = separable(100, 7);
  clf.fit(ds.x(), ds.y());
  EXPECT_EQ(clf.tree_count(), 7u);
}

TEST(RandomForest, ReplicateResamplingWorks) {
  RandomForest clf(ParamMap{{"resampling", std::string("replicate")}, {"n_estimators", 5LL}});
  EXPECT_GT(holdout_accuracy(clf, circles()), 0.85);
}

TEST(RandomForest, RandomSplitsModeLearns) {
  RandomForest clf(ParamMap{{"random_splits", 8LL}, {"n_estimators", 15LL}});
  EXPECT_GT(holdout_accuracy(clf, circles()), 0.85);
}

TEST(Bagging, LearnsNonLinear) {
  BaggedTrees clf;
  EXPECT_GT(holdout_accuracy(clf, circles()), 0.88);
}

TEST(Bagging, FeatureSubsetsPerMember) {
  BaggedTrees clf(ParamMap{{"max_features", 0.5}, {"n_estimators", 8LL}});
  const Dataset ds = separable(200, 8);
  clf.fit(ds.x(), ds.y());
  EXPECT_EQ(clf.tree_count(), 8u);
  // Prediction still works through per-member column remapping.
  const auto labels = clf.predict(ds.x());
  EXPECT_EQ(labels.size(), ds.n_samples());
}

TEST(BoostedTrees, StrongOnCircles) {
  BoostedDecisionTrees clf;
  EXPECT_GT(holdout_accuracy(clf, circles()), 0.92);
}

TEST(BoostedTrees, MoreRoundsImproveTrainingFit) {
  const Dataset ds = make_circles(300, 0.12, 0.5, 9);
  BoostedDecisionTrees small(ParamMap{{"n_estimators", 2LL}});
  BoostedDecisionTrees large(ParamMap{{"n_estimators", 60LL}});
  small.fit(ds.x(), ds.y());
  large.fit(ds.x(), ds.y());
  const double acc_small = accuracy_score(ds.y(), small.predict(ds.x()));
  const double acc_large = accuracy_score(ds.y(), large.predict(ds.x()));
  EXPECT_GE(acc_large, acc_small);
}

TEST(BoostedTrees, StopsWhenNoSplitLeft) {
  // Constant features: the first tree has no split, boosting stops early.
  Matrix x{{1, 1}, {1, 1}, {1, 1}, {1, 1}};
  BoostedDecisionTrees clf(ParamMap{{"n_estimators", 50LL}});
  clf.fit(x, {0, 1, 0, 1});
  EXPECT_EQ(clf.tree_count(), 0u);
  // Falls back to the prior: p = 0.5.
  const auto scores = clf.predict_score(x);
  EXPECT_NEAR(scores[0], 0.5, 1e-6);
}

TEST(DecisionJungle, LearnsNonLinear) {
  DecisionJungle clf;
  EXPECT_GT(holdout_accuracy(clf, circles()), 0.85);
}

TEST(DecisionJungle, WidthConstrainedStillReasonable) {
  DecisionJungle clf(ParamMap{{"max_width", 4LL}, {"n_dags", 12LL}});
  EXPECT_GT(holdout_accuracy(clf, circles()), 0.75);
}

TEST(TreeFamily, AllDeclareNonLinearBoundary) {
  // The family lives in the registry table, keyed by each class's name().
  EXPECT_FALSE(classifier_is_linear(DecisionTree().name()));
  EXPECT_FALSE(classifier_is_linear(RandomForest().name()));
  EXPECT_FALSE(classifier_is_linear(BaggedTrees().name()));
  EXPECT_FALSE(classifier_is_linear(BoostedDecisionTrees().name()));
  EXPECT_FALSE(classifier_is_linear(DecisionJungle().name()));
}

}  // namespace
}  // namespace mlaas
