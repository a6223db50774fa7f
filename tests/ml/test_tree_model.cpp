#include "ml/tree/tree_model.h"

#include <gtest/gtest.h>

#include "data/generators.h"

namespace mlaas {
namespace {

std::vector<double> binary_targets(const std::vector<int>& y) {
  std::vector<double> t(y.size());
  for (std::size_t i = 0; i < y.size(); ++i) t[i] = y[i];
  return t;
}

TEST(TreeModel, LearnsSimpleThreshold) {
  Matrix x{{1}, {2}, {3}, {10}, {11}, {12}};
  const std::vector<double> targets{0, 0, 0, 1, 1, 1};
  TreeModel tree;
  tree.fit(x, targets, {}, {});
  EXPECT_GT(tree.node_count(), 1u);
  EXPECT_LT(tree.predict_one(std::vector<double>{2.0}), 0.5);
  EXPECT_GT(tree.predict_one(std::vector<double>{11.0}), 0.5);
}

TEST(TreeModel, PureNodeStaysLeaf) {
  Matrix x{{1}, {2}, {3}};
  TreeModel tree;
  tree.fit(x, std::vector<double>{1, 1, 1}, {}, {});
  EXPECT_EQ(tree.node_count(), 1u);
  EXPECT_DOUBLE_EQ(tree.predict_one(std::vector<double>{5.0}), 1.0);
}

TEST(TreeModel, MaxDepthRespected) {
  const Dataset ds = make_circles(400, 0.05, 0.5, 3);
  TreeOptions opt;
  opt.max_depth = 3;
  TreeModel tree;
  tree.fit(ds.x(), binary_targets(ds.y()), {}, opt);
  EXPECT_LE(tree.depth(), 3u);
}

TEST(TreeModel, NodeBudgetRespected) {
  const Dataset ds = make_circles(400, 0.05, 0.5, 4);
  TreeOptions opt;
  opt.max_nodes = 15;
  TreeModel tree;
  tree.fit(ds.x(), binary_targets(ds.y()), {}, opt);
  EXPECT_LE(tree.node_count(), 15u);
}

TEST(TreeModel, MinSamplesLeafRespected) {
  const Dataset ds = make_circles(300, 0.05, 0.5, 5);
  TreeOptions opt;
  opt.min_samples_leaf = 25;
  TreeModel tree;
  tree.fit(ds.x(), binary_targets(ds.y()), {}, opt);
  for (const auto& node : tree.nodes()) {
    if (node.feature < 0) { EXPECT_GE(node.n_samples, 25u); }
  }
}

TEST(TreeModel, WidthBudgetLimitsLevelGrowth) {
  const Dataset ds = make_circles(600, 0.08, 0.5, 6);
  TreeOptions narrow;
  narrow.max_width = 2;
  TreeModel tree_narrow;
  tree_narrow.fit(ds.x(), binary_targets(ds.y()), {}, narrow);
  TreeModel tree_full;
  tree_full.fit(ds.x(), binary_targets(ds.y()), {}, {});
  EXPECT_LT(tree_narrow.node_count(), tree_full.node_count());
}

TEST(TreeModel, RandomSplitsStillLearn) {
  const Dataset ds = make_circles(400, 0.05, 0.5, 7);
  TreeOptions opt;
  opt.random_splits = 8;
  opt.seed = 9;
  TreeModel tree;
  tree.fit(ds.x(), binary_targets(ds.y()), {}, opt);
  std::size_t correct = 0;
  const auto scores = tree.predict(ds.x());
  for (std::size_t i = 0; i < scores.size(); ++i) {
    correct += (scores[i] > 0.5 ? 1 : 0) == ds.y()[i] ? 1 : 0;
  }
  EXPECT_GT(static_cast<double>(correct) / static_cast<double>(scores.size()), 0.85);
}

TEST(TreeModel, MseCriterionFitsRegressionTargets) {
  Matrix x{{0}, {1}, {2}, {3}, {10}, {11}, {12}, {13}};
  const std::vector<double> targets{1, 1.1, 0.9, 1, 5, 5.1, 4.9, 5};
  TreeOptions opt;
  opt.criterion = SplitCriterion::kMse;
  TreeModel tree;
  tree.fit(x, targets, {}, opt);
  EXPECT_NEAR(tree.predict_one(std::vector<double>{1.5}), 1.0, 0.2);
  EXPECT_NEAR(tree.predict_one(std::vector<double>{12.0}), 5.0, 0.2);
}

TEST(TreeModel, NewtonLeavesUseHessians) {
  Matrix x{{0}, {0}, {10}, {10}};
  const std::vector<double> grads{1, 1, -1, -1};
  const std::vector<double> hess{0.5, 0.5, 0.5, 0.5};
  TreeOptions opt;
  opt.criterion = SplitCriterion::kMse;
  TreeModel tree;
  tree.fit(x, grads, hess, opt);
  // Newton leaf: sum(g) / (sum(h) + eps) = 2 / 1 = ~2.
  EXPECT_NEAR(tree.predict_one(std::vector<double>{0.0}), 2.0, 0.01);
  EXPECT_NEAR(tree.predict_one(std::vector<double>{10.0}), -2.0, 0.01);
}

TEST(TreeModel, ConstantFeaturesYieldSingleLeaf) {
  Matrix x{{5, 5}, {5, 5}, {5, 5}, {5, 5}};
  TreeModel tree;
  tree.fit(x, std::vector<double>{0, 1, 0, 1}, {}, {});
  EXPECT_EQ(tree.node_count(), 1u);
  EXPECT_DOUBLE_EQ(tree.predict_one(std::vector<double>{5.0, 5.0}), 0.5);
}

TEST(TreeModel, LeafCountConsistent) {
  const Dataset ds = make_circles(200, 0.05, 0.5, 8);
  TreeModel tree;
  tree.fit(ds.x(), binary_targets(ds.y()), {}, {});
  // In a binary tree, leaves = internal nodes + 1.
  EXPECT_EQ(tree.leaf_count(), (tree.node_count() - tree.leaf_count()) + 1);
}

TEST(TreeModel, EmptyModelPredictsZero) {
  TreeModel tree;
  EXPECT_DOUBLE_EQ(tree.predict_one(std::vector<double>{1.0}), 0.0);
}

}  // namespace
}  // namespace mlaas
