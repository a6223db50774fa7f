// Exact-equivalence property tests for the presort training kernel: the
// fast path must produce byte-identical serialized models to
// ReferenceTreeBuilder (the original per-node re-sorting builder) across
// criteria, hessian modes, width/node/depth caps, feature sampling and
// random-split modes — for single trees and for every ensemble (whose
// per-tree loops share one TreeWorkspace and run bootstrap/feature-subset
// views through it).
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>
#include <vector>

#include "data/generators.h"
#include "ml/registry.h"
#include "ml/serialize.h"
#include "ml/tree/trainer.h"
#include "ml/tree/tree_model.h"
#include "util/rng.h"

namespace mlaas {
namespace {

class BuilderGuard {
 public:
  explicit BuilderGuard(TreeBuilder b) : prev_(active_tree_builder()) {
    set_active_tree_builder(b);
  }
  ~BuilderGuard() { set_active_tree_builder(prev_); }

 private:
  TreeBuilder prev_;
};

std::string serialized(const TreeModel& tree) {
  std::ostringstream out;
  tree.save(out);
  return out.str();
}

std::string serialized(const Classifier& clf) {
  std::ostringstream out;
  clf.save(out);
  return out.str();
}

Dataset workload(std::uint64_t seed, std::size_t n = 240, std::size_t d = 8) {
  MakeClassificationOptions opt;
  opt.n_samples = n;
  opt.n_features = d;
  opt.n_informative = 4;
  opt.n_redundant = 2;
  opt.flip_y = 0.05;
  return make_classification(opt, seed);
}

void expect_tree_equivalence(const Matrix& x, const std::vector<double>& targets,
                             const std::vector<double>& hessians,
                             const TreeOptions& opt, const std::string& label) {
  TreeModel fast;
  {
    BuilderGuard guard(TreeBuilder::kFast);
    fast.fit(x, targets, hessians, opt);
  }
  TreeModel reference;
  ReferenceTreeBuilder::fit(reference, x, targets, hessians, opt);

  ASSERT_EQ(fast.node_count(), reference.node_count()) << label;
  // Node-for-node equality first (better failure messages), then bytes.
  const auto& fn = fast.nodes();
  const auto& rn = reference.nodes();
  for (std::size_t i = 0; i < fn.size(); ++i) {
    EXPECT_EQ(fn[i].feature, rn[i].feature) << label << " node " << i;
    EXPECT_EQ(fn[i].threshold, rn[i].threshold) << label << " node " << i;
    EXPECT_EQ(fn[i].left, rn[i].left) << label << " node " << i;
    EXPECT_EQ(fn[i].right, rn[i].right) << label << " node " << i;
    EXPECT_EQ(fn[i].value, rn[i].value) << label << " node " << i;
    EXPECT_EQ(fn[i].n_samples, rn[i].n_samples) << label << " node " << i;
  }
  EXPECT_EQ(serialized(fast), serialized(reference)) << label;
}

TEST(TreeTrainerEquivalence, ClassificationCriteriaAndCaps) {
  for (const std::uint64_t seed : {1u, 7u, 23u}) {
    const Dataset ds = workload(seed);
    std::vector<double> targets(ds.n_samples());
    for (std::size_t i = 0; i < targets.size(); ++i) targets[i] = ds.y()[i];

    for (const SplitCriterion criterion :
         {SplitCriterion::kGini, SplitCriterion::kEntropy}) {
      for (const std::size_t max_depth : {0ul, 3ul, 9ul}) {
        for (const std::size_t max_features : {0ul, 2ul, 5ul}) {
          TreeOptions opt;
          opt.criterion = criterion;
          opt.max_depth = max_depth;
          opt.max_features = max_features;
          opt.min_samples_leaf = 1 + seed % 4;
          opt.seed = seed * 131;
          expect_tree_equivalence(
              ds.x(), targets, {}, opt,
              "criterion=" + std::to_string(static_cast<int>(criterion)) +
                  " depth=" + std::to_string(max_depth) +
                  " feats=" + std::to_string(max_features) +
                  " seed=" + std::to_string(seed));
        }
      }
    }
  }
}

TEST(TreeTrainerEquivalence, MseWithAndWithoutHessians) {
  for (const std::uint64_t seed : {3u, 11u}) {
    const Dataset ds = workload(seed, 300, 10);
    // Gradient-like continuous targets and positive hessians, as boosting
    // produces them.
    Rng rng(derive_seed(seed, "trainer-test"));
    std::vector<double> grad(ds.n_samples()), hess(ds.n_samples());
    for (std::size_t i = 0; i < grad.size(); ++i) {
      grad[i] = rng.normal() * 0.4 + (ds.y()[i] == 1 ? 0.5 : -0.5);
      hess[i] = 0.05 + rng.uniform();
    }
    for (const bool use_hess : {false, true}) {
      TreeOptions opt;
      opt.criterion = SplitCriterion::kMse;
      opt.max_depth = 5;
      opt.min_samples_leaf = 4;
      opt.max_nodes = 31;
      opt.seed = seed;
      expect_tree_equivalence(ds.x(), grad,
                              use_hess ? hess : std::vector<double>{}, opt,
                              std::string("mse hess=") + (use_hess ? "yes" : "no") +
                                  " seed=" + std::to_string(seed));
    }
  }
}

TEST(TreeTrainerEquivalence, RandomSplitsAndWidthBudget) {
  for (const std::uint64_t seed : {5u, 17u}) {
    const Dataset ds = workload(seed, 260, 7);
    std::vector<double> targets(ds.n_samples());
    for (std::size_t i = 0; i < targets.size(); ++i) targets[i] = ds.y()[i];

    for (const int random_splits : {0, 4, 16}) {
      for (const std::size_t max_width : {0ul, 2ul, 8ul}) {
        TreeOptions opt;
        opt.criterion = SplitCriterion::kEntropy;
        opt.max_depth = 12;
        opt.max_width = max_width;
        opt.random_splits = random_splits;
        opt.max_features = 3;
        opt.seed = seed * 977;
        expect_tree_equivalence(ds.x(), targets, {}, opt,
                                "random_splits=" + std::to_string(random_splits) +
                                    " width=" + std::to_string(max_width) +
                                    " seed=" + std::to_string(seed));
      }
    }
  }
}

TEST(TreeTrainerEquivalence, TiedFeatureValues) {
  // Duplicated rows and coarsely quantized features force value ties — the
  // case where presort tie order differs from the reference sort's.
  Rng rng(99);
  const std::size_t n = 200, d = 5;
  Matrix x(n, d);
  std::vector<double> targets(n);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < d; ++c) {
      x(r, c) = std::floor(rng.normal() * 3.0) / 3.0;  // heavy ties
    }
    targets[r] = rng.chance(0.5) ? 1.0 : 0.0;
  }
  // Duplicate a block of rows wholesale.
  for (std::size_t r = 0; r < 40; ++r) {
    for (std::size_t c = 0; c < d; ++c) x(n - 1 - r, c) = x(r, c);
    targets[n - 1 - r] = targets[r];
  }
  for (const SplitCriterion criterion :
       {SplitCriterion::kGini, SplitCriterion::kEntropy, SplitCriterion::kMse}) {
    TreeOptions opt;
    opt.criterion = criterion;
    opt.max_depth = 8;
    opt.seed = 4242;
    expect_tree_equivalence(x, targets, {}, opt,
                            "tied criterion=" +
                                std::to_string(static_cast<int>(criterion)));
  }
}

// Dead columns (constant over the whole training matrix) get no order in
// the fast workspace and are skipped before any order is read; trees must
// still match the reference builder node for node.

/// `x`'s features interleaved with `pad` all-zero columns after every
/// live one, so dead and live view features alternate.
Matrix with_zero_padding(const Matrix& x, std::size_t pad) {
  Matrix out(x.rows(), x.cols() * (1 + pad));
  for (std::size_t r = 0; r < x.rows(); ++r) {
    for (std::size_t c = 0; c < x.cols(); ++c) out(r, c * (1 + pad)) = x(r, c);
  }
  return out;
}

std::vector<double> label_targets(const Dataset& ds) {
  std::vector<double> targets(ds.n_samples());
  for (std::size_t i = 0; i < targets.size(); ++i) targets[i] = ds.y()[i];
  return targets;
}

/// Train one view (bootstrap rows and/or feature subset) through a shared
/// fast workspace and compare against the reference builder on the
/// materialized view.
void expect_view_equivalence(TreeWorkspace& workspace, const Matrix& x,
                             const std::vector<double>& targets, const TreeOptions& opt,
                             const std::vector<std::size_t>& rows,
                             const std::vector<std::size_t>& features,
                             const std::string& label) {
  std::vector<double> view_targets;
  if (rows.empty()) {
    view_targets = targets;
  } else {
    for (const std::size_t r : rows) view_targets.push_back(targets[r]);
  }
  TreeModel fast;
  {
    BuilderGuard guard(TreeBuilder::kFast);
    train_tree(fast, workspace, x, view_targets, {}, opt, rows, features);
  }
  Matrix view = rows.empty() ? x : x.select_rows(rows);
  if (!features.empty()) view = view.select_cols(features);
  TreeModel reference;
  ReferenceTreeBuilder::fit(reference, view, view_targets, {}, opt);

  ASSERT_EQ(fast.node_count(), reference.node_count()) << label;
  for (std::size_t i = 0; i < fast.nodes().size(); ++i) {
    EXPECT_EQ(fast.nodes()[i].feature, reference.nodes()[i].feature) << label << " node " << i;
    EXPECT_EQ(fast.nodes()[i].threshold, reference.nodes()[i].threshold)
        << label << " node " << i;
  }
  EXPECT_EQ(serialized(fast), serialized(reference)) << label;
}

TEST(TreeTrainerEquivalence, ZeroPaddingColumns) {
  for (const std::uint64_t seed : {2u, 19u}) {
    const Dataset ds = workload(seed, 180, 6);
    const Matrix x = with_zero_padding(ds.x(), 7);
    const auto targets = label_targets(ds);
    for (const std::size_t max_features : {0ul, 6ul, 20ul}) {
      for (const SplitCriterion criterion :
           {SplitCriterion::kGini, SplitCriterion::kMse}) {
        TreeOptions opt;
        opt.criterion = criterion;
        opt.max_depth = 10;
        opt.max_features = max_features;
        opt.seed = seed * 31;
        expect_tree_equivalence(x, targets, {}, opt,
                                "padded feats=" + std::to_string(max_features) +
                                    " criterion=" +
                                    std::to_string(static_cast<int>(criterion)) +
                                    " seed=" + std::to_string(seed));
      }
    }
  }
}

TEST(TreeTrainerEquivalence, SignedZeroColumnIsDeadAndNaNStaysLive) {
  const Dataset ds = workload(41, 150, 6);
  Matrix x(ds.n_samples(), 8);
  for (std::size_t r = 0; r < x.rows(); ++r) {
    for (std::size_t c = 0; c < 6; ++c) x(r, c + 1) = ds.x()(r, c);
    x(r, 0) = r % 3 == 0 ? -0.0 : 0.0;  // 0.0 == -0.0: constant
    x(r, 7) = std::nan("");             // NaN != NaN: not constant
  }
  const auto base = TreeTrainBase::build(x);
  EXPECT_EQ(base->constant, (std::vector<std::uint8_t>{1, 0, 0, 0, 0, 0, 0, 0}));

  // The NaN column is left out of the oracle comparison: a sort over NaN
  // keys has no defined order in the reference builder.
  const Matrix live = x.select_cols(std::vector<std::size_t>{0, 1, 2, 3, 4, 5, 6});
  for (const std::size_t max_features : {0ul, 2ul}) {
    TreeOptions opt;
    opt.max_depth = 8;
    opt.max_features = max_features;
    opt.seed = 5;
    expect_tree_equivalence(live, label_targets(ds), {}, opt,
                            "signed zero feats=" + std::to_string(max_features));
  }
}

TEST(TreeTrainerEquivalence, AllColumnsConstantGiveSingleLeaf) {
  Rng rng(8);
  Matrix x(90, 5);
  std::vector<double> targets(x.rows());
  for (std::size_t r = 0; r < x.rows(); ++r) {
    for (std::size_t c = 0; c < x.cols(); ++c) x(r, c) = static_cast<double>(c) - 2.0;
    targets[r] = rng.chance(0.4) ? 1.0 : 0.0;
  }
  for (const int random_splits : {0, 3}) {
    TreeOptions opt;
    opt.random_splits = random_splits;
    opt.seed = 12;
    expect_tree_equivalence(x, targets, {}, opt,
                            "all constant random_splits=" + std::to_string(random_splits));
    TreeModel fast;
    fast.fit(x, targets, {}, opt);
    EXPECT_EQ(fast.node_count(), 1u);
  }
}

TEST(TreeTrainerEquivalence, DeadColumnsUnderBootstrapSubsetAndRandomSplitViews) {
  const Dataset ds = workload(63, 160, 6);
  const Matrix x = with_zero_padding(ds.x(), 3);  // 24 columns, 18 dead
  const auto targets = label_targets(ds);
  Rng rng(derive_seed(63, "views"));
  std::vector<std::size_t> boot(x.rows());
  for (auto& r : boot) r = rng.index(x.rows());
  // Subsets that keep dead columns, drop them all, and hold only dead ones.
  const std::vector<std::vector<std::size_t>> subsets{
      {}, {1, 0, 4, 7, 8, 13}, {0, 4, 8, 12, 16, 20}, {1, 2, 3, 5}};

  // One workspace across every view, as an ensemble reuses it.
  TreeWorkspace workspace;
  for (const int random_splits : {0, 4}) {
    for (const bool bootstrap : {false, true}) {
      for (std::size_t s = 0; s < subsets.size(); ++s) {
        TreeOptions opt;
        opt.criterion = SplitCriterion::kEntropy;
        opt.max_depth = 9;
        opt.max_features = 3;
        opt.random_splits = random_splits;
        opt.seed = 100 + s;
        expect_view_equivalence(workspace, x, targets, opt,
                                bootstrap ? boot : std::vector<std::size_t>{},
                                subsets[s],
                                "random_splits=" + std::to_string(random_splits) +
                                    " bootstrap=" + (bootstrap ? "yes" : "no") +
                                    " subset=" + std::to_string(s));
      }
    }
  }
}

// Every tree-family classifier, fitted twice with the builder toggled:
// serialized ensembles (bootstrap resamples, feature subsets, shared
// workspace reuse across trees) and scores must match byte for byte.
class EnsembleEquivalence : public ::testing::TestWithParam<const char*> {};

TEST_P(EnsembleEquivalence, SerializedModelAndScoresAreByteIdentical) {
  const std::string name = GetParam();
  const Dataset ds = workload(1234, 320, 12);

  ParamMap params;
  if (name == "random_forest") params.set("n_estimators", 6ll);
  if (name == "bagging") {
    params.set("n_estimators", 5ll);
    params.set("max_features", 0.5);
  }
  if (name == "boosted_trees") params.set("n_estimators", 8ll);
  if (name == "decision_jungle") params.set("n_dags", 4ll);

  auto fast = make_classifier(name, params, 77);
  {
    BuilderGuard guard(TreeBuilder::kFast);
    fast->fit(ds.x(), ds.y());
  }
  auto reference = make_classifier(name, params, 77);
  {
    BuilderGuard guard(TreeBuilder::kReference);
    reference->fit(ds.x(), ds.y());
  }

  EXPECT_EQ(serialized(*fast), serialized(*reference)) << name;
  const auto fast_scores = fast->predict_score(ds.x());
  const auto ref_scores = reference->predict_score(ds.x());
  ASSERT_EQ(fast_scores.size(), ref_scores.size());
  for (std::size_t i = 0; i < fast_scores.size(); ++i) {
    EXPECT_EQ(fast_scores[i], ref_scores[i]) << name << " row " << i;
  }
}

TEST_P(EnsembleEquivalence, ReplicateResamplingToo) {
  const std::string name = GetParam();
  if (name == "bagging" || name == "boosted_trees") return;  // no resampling knob
  const Dataset ds = workload(88, 200, 9);
  ParamMap params;
  params.set("resampling", std::string("replicate"));
  if (name == "random_forest") params.set("n_estimators", 4ll);
  if (name == "decision_jungle") params.set("n_dags", 3ll);

  auto fast = make_classifier(name, params, 9);
  {
    BuilderGuard guard(TreeBuilder::kFast);
    fast->fit(ds.x(), ds.y());
  }
  auto reference = make_classifier(name, params, 9);
  {
    BuilderGuard guard(TreeBuilder::kReference);
    reference->fit(ds.x(), ds.y());
  }
  EXPECT_EQ(serialized(*fast), serialized(*reference)) << name;
}

// The §6.2 family meta-predictor's forest on its own data shape: 4 dense
// metric columns plus 256 label-signature bits of which only the first few
// vary (the rest are zero padding).
TEST_F(EnsembleEquivalence, RandomForestOnMetaPredictorShape) {
  const std::size_t n = 100, dense = 4, bits = 256, live_bits = 22;
  Rng rng(2024);
  Matrix x(n, dense + bits);
  std::vector<int> y(n);
  for (std::size_t r = 0; r < n; ++r) {
    y[r] = rng.chance(0.5) ? 1 : 0;
    for (std::size_t c = 0; c < dense; ++c) x(r, c) = 0.6 + 0.2 * y[r] + 0.15 * rng.normal();
    for (std::size_t b = 0; b < live_bits; ++b) {
      x(r, dense + b) = rng.chance(y[r] == 1 ? 0.7 : 0.4) ? 1.0 : 0.0;
    }
  }
  ParamMap params{{"n_estimators", 60LL}, {"max_depth", 14LL}};

  auto fast = make_classifier("random_forest", params, 31);
  {
    BuilderGuard guard(TreeBuilder::kFast);
    fast->fit(x, y);
  }
  auto reference = make_classifier("random_forest", params, 31);
  {
    BuilderGuard guard(TreeBuilder::kReference);
    reference->fit(x, y);
  }
  EXPECT_EQ(serialized(*fast), serialized(*reference));
  const auto fast_scores = fast->predict_score(x);
  const auto ref_scores = reference->predict_score(x);
  ASSERT_EQ(fast_scores.size(), ref_scores.size());
  for (std::size_t i = 0; i < fast_scores.size(); ++i) {
    EXPECT_EQ(fast_scores[i], ref_scores[i]) << "row " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(TreeFamily, EnsembleEquivalence,
                         ::testing::Values("decision_tree", "random_forest",
                                           "bagging", "boosted_trees",
                                           "decision_jungle"));

TEST(TreeTrainerEquivalence, BuilderToggleRoundTrips) {
  EXPECT_EQ(active_tree_builder(), TreeBuilder::kFast);
  {
    BuilderGuard guard(TreeBuilder::kReference);
    EXPECT_EQ(active_tree_builder(), TreeBuilder::kReference);
  }
  EXPECT_EQ(active_tree_builder(), TreeBuilder::kFast);
}

}  // namespace
}  // namespace mlaas
