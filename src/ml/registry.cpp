#include "ml/registry.h"

#include <stdexcept>

#include "ml/bayes/naive_bayes.h"
#include "ml/kernel/rbf_svm.h"
#include "ml/linear/averaged_perceptron.h"
#include "ml/linear/bayes_point_machine.h"
#include "ml/linear/lda.h"
#include "ml/linear/linear_svm.h"
#include "ml/linear/logistic_regression.h"
#include "ml/neighbors/knn.h"
#include "ml/neural/mlp.h"
#include "ml/tree/bagging.h"
#include "ml/tree/boosted_trees.h"
#include "ml/tree/decision_jungle.h"
#include "ml/tree/decision_tree.h"
#include "ml/tree/random_forest.h"

namespace mlaas {

namespace {

template <typename T>
ClassifierPtr construct(const ParamMap& params, std::uint64_t seed) {
  return std::make_unique<T>(params, seed);
}

struct RegistryRow {
  const char* name;
  const char* abbrev;  // Table 4
  bool linear;         // Table 5 family (NB counted as linear, as in the paper)
  ClassifierPtr (*make)(const ParamMap&, std::uint64_t);
};

// One row per classifier.  Row order is classifier_names() order, which
// grids and tests iterate, so a new row goes at the end.
constexpr RegistryRow kRegistry[] = {
    {"logistic_regression", "LR", true, construct<LogisticRegression>},
    {"naive_bayes", "NB", true, construct<GaussianNaiveBayes>},
    {"linear_svm", "SVM", true, construct<LinearSvm>},
    {"lda", "LDA", true, construct<LinearDiscriminantAnalysis>},
    {"averaged_perceptron", "AP", true, construct<AveragedPerceptron>},
    {"bayes_point_machine", "BPM", true, construct<BayesPointMachine>},
    {"knn", "KNN", false, construct<KNearestNeighbors>},
    {"decision_tree", "DT", false, construct<DecisionTree>},
    {"random_forest", "RF", false, construct<RandomForest>},
    {"bagging", "BAG", false, construct<BaggedTrees>},
    {"boosted_trees", "BST", false, construct<BoostedDecisionTrees>},
    {"decision_jungle", "DJ", false, construct<DecisionJungle>},
    {"mlp", "MLP", false, construct<MultiLayerPerceptron>},
    {"rbf_svm", "RBF", false, construct<RbfSvm>},
};

const RegistryRow* find_row(const std::string& name) {
  for (const auto& row : kRegistry) {
    if (name == row.name) return &row;
  }
  return nullptr;
}

}  // namespace

ClassifierPtr make_classifier(const std::string& name, const ParamMap& params,
                              std::uint64_t seed) {
  const RegistryRow* row = find_row(name);
  if (row == nullptr) {
    throw std::invalid_argument("make_classifier: unknown classifier " + name);
  }
  return row->make(params, seed);
}

std::vector<std::string> classifier_names() {
  std::vector<std::string> names;
  for (const auto& row : kRegistry) names.emplace_back(row.name);
  return names;
}

std::string classifier_abbrev(const std::string& name) {
  const RegistryRow* row = find_row(name);
  return row != nullptr ? row->abbrev : name;
}

bool classifier_is_linear(const std::string& name) {
  const RegistryRow* row = find_row(name);
  return row != nullptr && row->linear;
}

}  // namespace mlaas
