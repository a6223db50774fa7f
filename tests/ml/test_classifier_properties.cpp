// Property-style tests run over EVERY registry classifier via parameterized
// gtest: determinism, score validity, single-class handling, and minimum
// competence on a separable problem.
#include <gtest/gtest.h>

#include <map>
#include <stdexcept>

#include "ml/registry.h"
#include "tests/ml/test_helpers.h"

namespace mlaas {
namespace {

class ClassifierProperty : public ::testing::TestWithParam<std::string> {};

// The paper's facts for every classifier, stated independently of the
// registry table so that a wrong table row fails a test: the Table 4
// abbreviation and the Table 5 family (NB counted as linear, as in the
// paper; the two linear Microsoft classifiers AP and BPM join it).
struct PaperFacts {
  std::string abbrev;
  bool linear;
};

const std::map<std::string, PaperFacts>& paper_facts() {
  static const std::map<std::string, PaperFacts> facts = {
      {"logistic_regression", {"LR", true}},  {"naive_bayes", {"NB", true}},
      {"linear_svm", {"SVM", true}},          {"lda", {"LDA", true}},
      {"averaged_perceptron", {"AP", true}},  {"bayes_point_machine", {"BPM", true}},
      {"knn", {"KNN", false}},                {"decision_tree", {"DT", false}},
      {"random_forest", {"RF", false}},       {"bagging", {"BAG", false}},
      {"boosted_trees", {"BST", false}},      {"decision_jungle", {"DJ", false}},
      {"mlp", {"MLP", false}},                {"rbf_svm", {"RBF", false}},
  };
  return facts;
}

TEST_P(ClassifierProperty, SeparableProblemAboveChance) {
  auto clf = make_classifier(GetParam(), {}, 1);
  EXPECT_GT(testing::holdout_accuracy(*clf, testing::separable()), 0.9)
      << GetParam() << " failed a trivially separable problem";
}

TEST_P(ClassifierProperty, ScoresAreProbabilities) {
  const Dataset ds = testing::separable(150, 11);
  auto clf = make_classifier(GetParam(), {}, 2);
  clf->fit(ds.x(), ds.y());
  testing::expect_scores_in_unit_interval(*clf, ds.x());
}

TEST_P(ClassifierProperty, PredictionsMatchThresholdedScores) {
  const Dataset ds = testing::separable(150, 12);
  auto clf = make_classifier(GetParam(), {}, 3);
  clf->fit(ds.x(), ds.y());
  const auto scores = clf->predict_score(ds.x());
  const auto labels = clf->predict(ds.x());
  for (std::size_t i = 0; i < labels.size(); ++i) {
    EXPECT_EQ(labels[i], scores[i] > 0.5 ? 1 : 0);
  }
}

TEST_P(ClassifierProperty, DeterministicForSameSeed) {
  const Dataset ds = testing::circles(200, 13);
  auto a = make_classifier(GetParam(), {}, 77);
  auto b = make_classifier(GetParam(), {}, 77);
  a->fit(ds.x(), ds.y());
  b->fit(ds.x(), ds.y());
  EXPECT_EQ(a->predict(ds.x()), b->predict(ds.x()));
}

TEST_P(ClassifierProperty, SingleClassTrainingPredictsThatClass) {
  Matrix x{{1, 2}, {3, 4}, {5, 6}};
  auto clf = make_classifier(GetParam(), {}, 4);
  clf->fit(x, {1, 1, 1});
  EXPECT_EQ(clf->predict(x), (std::vector<int>{1, 1, 1}));
  auto clf0 = make_classifier(GetParam(), {}, 4);
  clf0->fit(x, {0, 0, 0});
  EXPECT_EQ(clf0->predict(x), (std::vector<int>{0, 0, 0}));
}

TEST_P(ClassifierProperty, LabelPermutationInvariantAccuracy) {
  // Shuffling training-row order must not change the model family's ability
  // (exact equality is not required for SGD learners; accuracy must hold).
  const Dataset ds = testing::separable(200, 14);
  std::vector<std::size_t> perm(ds.n_samples());
  for (std::size_t i = 0; i < perm.size(); ++i) perm[i] = perm.size() - 1 - i;
  const Dataset reversed = ds.subset(perm);
  auto clf = make_classifier(GetParam(), {}, 5);
  clf->fit(reversed.x(), reversed.y());
  EXPECT_GT(accuracy_score(ds.y(), clf->predict(ds.x())), 0.9);
}

TEST_P(ClassifierProperty, NameMatchesRegistry) {
  auto clf = make_classifier(GetParam(), {}, 6);
  EXPECT_EQ(clf->name(), GetParam());
}

TEST_P(ClassifierProperty, FamilyMatchesRegistryTable) {
  // The §6 analyses look a row's family up by the name the classifier
  // reports, so a constructed classifier's name() must reach its Table 5
  // family and Table 4 abbreviation.
  auto clf = make_classifier(GetParam(), {}, 7);
  const PaperFacts& facts = paper_facts().at(GetParam());
  EXPECT_EQ(classifier_is_linear(clf->name()), facts.linear);
  EXPECT_EQ(classifier_abbrev(clf->name()), facts.abbrev);
}

INSTANTIATE_TEST_SUITE_P(AllClassifiers, ClassifierProperty,
                         ::testing::ValuesIn(classifier_names()),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           return info.param;
                         });

TEST(Registry, UnknownNameThrows) {
  EXPECT_THROW(make_classifier("no_such_classifier"), std::invalid_argument);
  try {
    make_classifier("auto");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "make_classifier: unknown classifier auto");
  }
  // The other two lookups pass an unknown name through rather than throw:
  // "auto" (a black-box platform's own choice) keeps its name and counts as
  // non-linear.
  EXPECT_EQ(classifier_abbrev("auto"), "auto");
  EXPECT_FALSE(classifier_is_linear("auto"));
}

TEST(Registry, AbbreviationsMatchTable4) {
  for (const auto& [name, facts] : paper_facts()) {
    EXPECT_EQ(classifier_abbrev(name), facts.abbrev) << name;
  }
}

TEST(Registry, FourteenClassifiers) {
  // Grids and tests iterate this order, so it is pinned.
  const std::vector<std::string> expected = {
      "logistic_regression", "naive_bayes",     "linear_svm",    "lda",
      "averaged_perceptron", "bayes_point_machine", "knn",       "decision_tree",
      "random_forest",       "bagging",         "boosted_trees", "decision_jungle",
      "mlp",                 "rbf_svm"};
  EXPECT_EQ(classifier_names(), expected);
  EXPECT_EQ(paper_facts().size(), expected.size());
}

TEST(Registry, LinearFamilyMatchesTable5) {
  for (const auto& [name, facts] : paper_facts()) {
    EXPECT_EQ(classifier_is_linear(name), facts.linear) << name;
  }
}

}  // namespace
}  // namespace mlaas
