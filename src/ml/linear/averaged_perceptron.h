// Averaged perceptron (Freund & Schapire 1999) — Microsoft's "Averaged
// Perceptron" classifier (Table 1).
//
// Parameters: learning_rate (default 1.0), max_iter (default 10).
// The returned model is the average of all intermediate weight vectors,
// which gives large-margin-like behaviour on separable data.
#pragma once

#include "ml/classifier.h"

namespace mlaas {

class AveragedPerceptron final : public Classifier {
 public:
  explicit AveragedPerceptron(const ParamMap& params = {}, std::uint64_t seed = 0);

  void fit(const Matrix& x, const std::vector<int>& y) override;
  std::string name() const override { return "averaged_perceptron"; }

  void save(std::ostream& out) const override;
  void load(std::istream& in) override;

  const std::vector<double>& weights() const { return w_; }

 private:
  void score_into(const Matrix& x, std::vector<double>& out) const override;

  double learning_rate_;
  long long max_iter_;
  std::uint64_t seed_;

  std::vector<double> w_;
  double b_ = 0.0;
};

}  // namespace mlaas
