// CART decision-tree classifier.
//
// Parameters (union of Table 1's DT offerings):
//   criterion          "gini" | "entropy"        (default "gini")
//   max_depth          0 = unlimited             (default 0)
//   min_samples_leaf                              (default 1)
//   min_samples_split                             (default 2)
//   max_features       "all" | "sqrt" | "log2" or an integer (default "all")
//   node_threshold     total node budget, BigML's knob (default 0 = off)
//   ordering           "standard" | "random": random shuffles the feature
//                      evaluation order (BigML's tie-break knob)
//   random_candidates  true: evaluate 16 random thresholds per feature
//                      instead of the exhaustive scan (BigML)
#pragma once

#include "ml/classifier.h"
#include "ml/tree/flat_forest.h"
#include "ml/tree/tree_model.h"

namespace mlaas {

/// Translate the shared tree parameters out of a ParamMap.
TreeOptions tree_options_from_params(const ParamMap& params, std::size_t n_features,
                                     std::uint64_t seed);

class DecisionTree final : public Classifier {
 public:
  explicit DecisionTree(const ParamMap& params = {}, std::uint64_t seed = 0);

  void fit(const Matrix& x, const std::vector<int>& y) override;
  std::string name() const override { return "decision_tree"; }

  void save(std::ostream& out) const override;
  void load(std::istream& in) override;

  const TreeModel& tree() const { return tree_; }

 private:
  void score_into(const Matrix& x, std::vector<double>& out) const override;

  void rebuild_flat();

  ParamMap params_;
  std::uint64_t seed_;
  TreeModel tree_;
  FlatForest flat_;  // inference layout, rebuilt by fit()/load()
};

}  // namespace mlaas
