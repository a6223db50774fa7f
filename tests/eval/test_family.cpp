#include "eval/family.h"
#include "eval/family_predictor.h"

#include <gtest/gtest.h>

#include <sstream>

#include "data/generators.h"
#include "linalg/stats.h"
#include "ml/tree/trainer.h"
#include "util/rng.h"

namespace mlaas {
namespace {

Measurement row(const std::string& platform, const std::string& clf, double f,
                const std::string& dataset = "d1") {
  Measurement m;
  m.dataset_id = dataset;
  m.platform = platform;
  m.feature_step = "none";
  m.classifier = clf;
  m.test.f_score = f;
  m.test.accuracy = f;
  m.test.precision = f;
  m.test.recall = f;
  return m;
}

TEST(Family, SplitByFamilyPartitionsRows) {
  MeasurementTable t;
  t.add(row("Local", "logistic_regression", 0.5));
  t.add(row("Local", "naive_bayes", 0.55));
  t.add(row("Local", "decision_tree", 0.9));
  t.add(row("Google", "auto", 0.8));  // skipped
  const auto scores = split_by_family(t);
  EXPECT_EQ(scores.linear_f.size(), 2u);
  EXPECT_EQ(scores.nonlinear_f.size(), 1u);
}

TEST(Family, GapOnCircleFavorsNonLinear) {
  // Figure 11(a): on CIRCLE, non-linear classifiers dominate.
  MeasurementOptions opt;
  opt.max_para_configs = 3;
  opt.joint_sample = 5;
  Dataset circle = make_circle_probe(11, 400);
  circle.meta().id = "circle-probe";
  const auto scores = family_gap_on_probe(circle, opt);
  ASSERT_GT(scores.linear_f.size(), 3u);
  ASSERT_GT(scores.nonlinear_f.size(), 3u);
  EXPECT_GT(mean(scores.nonlinear_f), mean(scores.linear_f) + 0.15);
}

TEST(FamilyPredictor, FeaturesAreMetricsPlusLabelSignature) {
  Measurement m = row("Local", "knn", 0.7);
  m.label_signature = "101";
  const auto f = family_features(m);
  ASSERT_EQ(f.size(), 4u + kLabelSignatureSize);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_DOUBLE_EQ(f[i], 0.7);
  EXPECT_DOUBLE_EQ(f[4], 1.0);
  EXPECT_DOUBLE_EQ(f[5], 0.0);
  EXPECT_DOUBLE_EQ(f[6], 1.0);
  EXPECT_DOUBLE_EQ(f[7], 0.0);  // zero-padded beyond the signature
}

/// Synthetic meta-problem: linear rows score low, non-linear rows score
/// high -> the family predictor must become near-perfect and selected.
MeasurementTable separable_meta_table(std::uint64_t seed, const std::string& dataset) {
  MeasurementTable t;
  Rng rng(seed);
  const std::vector<std::string> linear{"logistic_regression", "naive_bayes", "linear_svm"};
  const std::vector<std::string> nonlinear{"decision_tree", "random_forest", "boosted_trees"};
  for (int i = 0; i < 30; ++i) {
    t.add(row("Local", linear[static_cast<std::size_t>(i) % 3],
              0.45 + rng.uniform(0.0, 0.05), dataset));
    t.add(row("Microsoft", nonlinear[static_cast<std::size_t>(i) % 3],
              0.9 + rng.uniform(0.0, 0.05), dataset));
  }
  return t;
}

TEST(FamilyPredictor, LearnsSeparableMetaProblem) {
  const auto table = separable_meta_table(5, "dA");
  const auto report = train_family_predictors(table, 1);
  ASSERT_EQ(report.predictors.size(), 1u);
  EXPECT_TRUE(report.predictors[0].trainable);
  EXPECT_GT(report.predictors[0].validation_f, 0.95);
  EXPECT_EQ(report.selected.size(), 1u);
}

TEST(FamilyPredictor, SkipsTinyMetaDatasets) {
  MeasurementTable t;
  t.add(row("Local", "logistic_regression", 0.5));
  t.add(row("Local", "decision_tree", 0.9));
  const auto report = train_family_predictors(t, 1);
  ASSERT_EQ(report.predictors.size(), 1u);
  EXPECT_FALSE(report.predictors[0].trainable);
  EXPECT_TRUE(report.selected.empty());
}

TEST(FamilyPredictor, PredictsBlackBoxChoices) {
  MeasurementTable table = separable_meta_table(7, "dA");
  // Black-box rows: Google scores like a non-linear model, ABM like linear.
  table.add(row("Google", "auto", 0.93, "dA"));
  table.add(row("ABM", "auto", 0.47, "dA"));
  const auto report = train_family_predictors(table, 1);
  ASSERT_FALSE(report.selected.empty());

  const auto google = predict_blackbox_choices(report, table, "Google");
  ASSERT_EQ(google.size(), 1u);
  EXPECT_EQ(google[0].family, ClassifierFamily::kNonLinear);

  const auto abm = predict_blackbox_choices(report, table, "ABM");
  ASSERT_EQ(abm.size(), 1u);
  EXPECT_EQ(abm[0].family, ClassifierFamily::kLinear);
}

TEST(FamilyPredictor, UnselectedDatasetsYieldNoChoices) {
  MeasurementTable t;
  t.add(row("Google", "auto", 0.8));
  const auto report = train_family_predictors(t, 1);
  EXPECT_TRUE(predict_blackbox_choices(report, t, "Google").empty());
}

/// Noisy meta-problems on several datasets, rows interleaved across
/// datasets and platforms, each row carrying a label signature shorter than
/// kLabelSignatureSize (so most signature columns are zero padding).
MeasurementTable signature_meta_table(std::uint64_t seed) {
  MeasurementTable t;
  Rng rng(seed);
  const std::vector<std::string> linear{"logistic_regression", "naive_bayes", "linear_svm"};
  const std::vector<std::string> nonlinear{"decision_tree", "random_forest", "knn"};
  const std::vector<std::string> platforms{"Local", "Microsoft", "BigML", "PredictionIO"};
  // dB's families overlap more than dA's; dC is too small to train.
  const std::vector<std::pair<std::string, double>> datasets{
      {"dA", 0.25}, {"dB", 0.05}, {"dC", 0.25}};
  for (int i = 0; i < 36; ++i) {
    for (const auto& [dataset, gap] : datasets) {
      if (dataset == "dC" && i >= 4) continue;
      for (const bool is_nonlinear : {false, true}) {
        const auto& names = is_nonlinear ? nonlinear : linear;
        Measurement m = row(platforms[static_cast<std::size_t>(i) % platforms.size()],
                            names[static_cast<std::size_t>(i) % names.size()],
                            0.6 + (is_nonlinear ? gap : 0.0) + rng.uniform(0.0, 0.2),
                            dataset);
        m.test.recall = rng.uniform(0.4, 0.9);
        m.label_signature.clear();
        for (int b = 0; b < 20; ++b) {
          m.label_signature += rng.chance(is_nonlinear && b < 8 ? 0.7 : 0.45) ? '1' : '0';
        }
        t.add(m);
      }
    }
    if (i % 6 == 0) t.add(row("Google", "auto", 0.7, "dA"));  // not ground truth
  }
  return t;
}

class BuilderGuard {
 public:
  explicit BuilderGuard(TreeBuilder b) : prev_(active_tree_builder()) {
    set_active_tree_builder(b);
  }
  ~BuilderGuard() { set_active_tree_builder(prev_); }

 private:
  TreeBuilder prev_;
};

TEST(FamilyPredictor, FastAndReferenceBuildersAgree) {
  const MeasurementTable table = signature_meta_table(13);
  FamilyPredictorReport fast, reference;
  {
    BuilderGuard guard(TreeBuilder::kFast);
    fast = train_family_predictors(table, 3);
  }
  {
    BuilderGuard guard(TreeBuilder::kReference);
    reference = train_family_predictors(table, 3);
  }
  ASSERT_EQ(fast.predictors.size(), 3u);
  ASSERT_EQ(reference.predictors.size(), 3u);
  EXPECT_EQ(fast.selected, reference.selected);
  std::size_t trained = 0;
  for (std::size_t i = 0; i < fast.predictors.size(); ++i) {
    const auto& f = fast.predictors[i];
    const auto& r = reference.predictors[i];
    EXPECT_EQ(f.dataset_id, r.dataset_id);
    EXPECT_EQ(f.trainable, r.trainable) << f.dataset_id;
    EXPECT_EQ(f.validation_f, r.validation_f) << f.dataset_id;
    EXPECT_EQ(f.test_f, r.test_f) << f.dataset_id;
    ASSERT_EQ(f.model == nullptr, r.model == nullptr) << f.dataset_id;
    if (!f.model) continue;
    ++trained;
    std::ostringstream fast_bytes, reference_bytes;
    f.model->save(fast_bytes);
    r.model->save(reference_bytes);
    EXPECT_EQ(fast_bytes.str(), reference_bytes.str()) << f.dataset_id;
  }
  EXPECT_EQ(trained, 2u);  // dC has too few rows
}

}  // namespace
}  // namespace mlaas
