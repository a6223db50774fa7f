// Linear support vector machine trained with Pegasos-style SGD.
//
// Parameters (Table 1: Microsoft SVM exposes #iterations and lambda; the
// local library exposes penalty/C/loss):
//   C         inverse regularization  (default 1.0)
//   lambda    direct regularization; overrides C when present
//   loss      "hinge" | "squared_hinge"   (default "hinge")
//   max_iter  epochs                       (default 100, capped 500)
//
// predict_score maps the signed margin through a sigmoid so downstream code
// can treat it like a probability.
#pragma once

#include "ml/classifier.h"

namespace mlaas {

class LinearSvm final : public Classifier {
 public:
  explicit LinearSvm(const ParamMap& params = {}, std::uint64_t seed = 0);

  void fit(const Matrix& x, const std::vector<int>& y) override;
  std::string name() const override { return "linear_svm"; }

  void save(std::ostream& out) const override;
  void load(std::istream& in) override;

  const std::vector<double>& weights() const { return w_; }
  double intercept() const { return b_; }

 private:
  void score_into(const Matrix& x, std::vector<double>& out) const override;

  double lambda_;
  bool squared_hinge_;
  long long max_iter_;
  std::uint64_t seed_;

  std::vector<double> w_;
  double b_ = 0.0;
};

}  // namespace mlaas
