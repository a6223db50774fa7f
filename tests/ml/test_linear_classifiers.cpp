#include <gtest/gtest.h>

#include "ml/linear/averaged_perceptron.h"
#include "ml/linear/bayes_point_machine.h"
#include "ml/linear/lda.h"
#include "ml/linear/linear_svm.h"
#include "ml/linear/logistic_regression.h"
#include "ml/registry.h"
#include "tests/ml/test_helpers.h"

namespace mlaas {
namespace {

using testing::circles;
using testing::holdout_accuracy;
using testing::separable;

TEST(LogisticRegression, SeparatesBlobs) {
  LogisticRegression clf;
  EXPECT_GT(holdout_accuracy(clf, separable()), 0.95);
}

TEST(LogisticRegression, FailsOnCircles) {
  // A linear model cannot express the circular boundary — near-chance
  // accuracy is the expected (and §6-exploited) behaviour.
  LogisticRegression clf;
  EXPECT_LT(holdout_accuracy(clf, circles()), 0.72);
}

TEST(LogisticRegression, ScaleInvarianceViaStandardization) {
  Dataset ds = separable();
  LogisticRegression a;
  const double acc_raw = holdout_accuracy(a, ds);
  // Blow one feature up by 1e6; internal standardization should cope.
  for (std::size_t r = 0; r < ds.n_samples(); ++r) ds.x()(r, 0) *= 1e6;
  LogisticRegression b;
  const double acc_scaled = holdout_accuracy(b, ds);
  EXPECT_NEAR(acc_raw, acc_scaled, 0.05);
}

TEST(LogisticRegression, StrongL2ShrinksWeights) {
  const Dataset ds = separable();
  LogisticRegression weak(ParamMap{{"C", 100.0}});
  LogisticRegression strong(ParamMap{{"reg_param", 50.0}});
  weak.fit(ds.x(), ds.y());
  strong.fit(ds.x(), ds.y());
  double norm_weak = 0.0, norm_strong = 0.0;
  for (double w : weak.weights()) norm_weak += w * w;
  for (double w : strong.weights()) norm_strong += w * w;
  EXPECT_LT(norm_strong, norm_weak);
}

TEST(LogisticRegression, L1ProducesSparserWeights) {
  // 20 features, only 3 informative: L1 should zero out more coordinates.
  const Dataset ds = make_sparse_linear(400, 20, 3, 0.0, 11);
  LogisticRegression l1(ParamMap{{"penalty", std::string("l1")}, {"reg_param", 0.5}});
  LogisticRegression l2(ParamMap{{"penalty", std::string("l2")}, {"reg_param", 0.5}});
  l1.fit(ds.x(), ds.y());
  l2.fit(ds.x(), ds.y());
  auto count_small = [](const std::vector<double>& w) {
    std::size_t c = 0;
    for (double v : w) c += std::abs(v) < 1e-4 ? 1 : 0;
    return c;
  };
  EXPECT_GE(count_small(l1.weights()), count_small(l2.weights()));
}

TEST(LogisticRegression, FullBatchSolverAlsoLearns) {
  LogisticRegression clf(ParamMap{{"solver", std::string("gd")}, {"max_iter", 200LL}});
  EXPECT_GT(holdout_accuracy(clf, separable()), 0.9);
}

TEST(LogisticRegression, SingleClassPredictsConstant) {
  Matrix x{{1, 2}, {3, 4}};
  LogisticRegression clf;
  clf.fit(x, {1, 1});
  EXPECT_EQ(clf.predict(x), (std::vector<int>{1, 1}));
}

TEST(LinearSvm, SeparatesBlobs) {
  LinearSvm clf;
  EXPECT_GT(holdout_accuracy(clf, separable()), 0.95);
}

TEST(LinearSvm, SquaredHingeAlsoLearns) {
  LinearSvm clf(ParamMap{{"loss", std::string("squared_hinge")}});
  EXPECT_GT(holdout_accuracy(clf, separable()), 0.9);
}

TEST(LinearSvm, FailsOnCircles) {
  LinearSvm clf;
  EXPECT_LT(holdout_accuracy(clf, circles()), 0.72);
}

TEST(AveragedPerceptron, SeparatesBlobs) {
  AveragedPerceptron clf;
  EXPECT_GT(holdout_accuracy(clf, separable()), 0.95);
}

TEST(AveragedPerceptron, ConvergesEarlyOnSeparableData) {
  // With a separable problem the epoch loop exits on the first clean pass;
  // large max_iter must not change the outcome.
  const Dataset ds = separable(200, 5);
  AveragedPerceptron small(ParamMap{{"max_iter", 50LL}});
  AveragedPerceptron large(ParamMap{{"max_iter", 400LL}});
  small.fit(ds.x(), ds.y());
  large.fit(ds.x(), ds.y());
  EXPECT_EQ(small.predict(ds.x()), large.predict(ds.x()));
}

TEST(BayesPointMachine, SeparatesBlobs) {
  BayesPointMachine clf;
  EXPECT_GT(holdout_accuracy(clf, separable()), 0.95);
}

TEST(BayesPointMachine, CommitteeSizeOneStillWorks) {
  BayesPointMachine clf(ParamMap{{"committee_size", 1LL}});
  EXPECT_GT(holdout_accuracy(clf, separable()), 0.9);
}

TEST(Lda, SeparatesBlobs) {
  LinearDiscriminantAnalysis clf;
  EXPECT_GT(holdout_accuracy(clf, separable()), 0.95);
}

TEST(Lda, ShrinkageHandlesHighDimensional) {
  // d close to n: unshrunk covariance is ill-conditioned.
  MakeClassificationOptions opt;
  opt.n_samples = 60;
  opt.n_features = 40;
  opt.n_informative = 10;
  opt.class_sep = 2.0;
  const Dataset ds = make_classification(opt, 13);
  LinearDiscriminantAnalysis clf(ParamMap{{"shrinkage", 0.5}});
  EXPECT_GT(holdout_accuracy(clf, ds), 0.6);
}

TEST(LinearFamily, AllDeclareLinearBoundary) {
  // The family lives in the registry table, keyed by each class's name().
  EXPECT_TRUE(classifier_is_linear(LogisticRegression().name()));
  EXPECT_TRUE(classifier_is_linear(LinearSvm().name()));
  EXPECT_TRUE(classifier_is_linear(AveragedPerceptron().name()));
  EXPECT_TRUE(classifier_is_linear(BayesPointMachine().name()));
  EXPECT_TRUE(classifier_is_linear(LinearDiscriminantAnalysis().name()));
}

}  // namespace
}  // namespace mlaas
