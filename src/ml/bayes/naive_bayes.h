// Gaussian naive Bayes.
//
// Parameters:
//   prior   "empirical" | "uniform"   (default "empirical")
//   lambda  additive variance smoothing, as a fraction of the largest
//           feature variance (PredictionIO exposes "lambda"; default 1e-9,
//           sklearn's var_smoothing)
#pragma once

#include "ml/classifier.h"

namespace mlaas {

class GaussianNaiveBayes final : public Classifier {
 public:
  explicit GaussianNaiveBayes(const ParamMap& params = {}, std::uint64_t seed = 0);

  void fit(const Matrix& x, const std::vector<int>& y) override;
  std::string name() const override { return "naive_bayes"; }

  void save(std::ostream& out) const override;
  void load(std::istream& in) override;

 private:
  void score_into(const Matrix& x, std::vector<double>& out) const override;

  bool uniform_prior_;
  double lambda_;

  std::vector<double> mean_[2], var_[2];
  double log_prior_[2] = {0.0, 0.0};
};

}  // namespace mlaas
