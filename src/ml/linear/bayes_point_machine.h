// Bayes Point Machine (Herbrich, Graepel & Campbell 2001) — Microsoft's
// "Bayes Point Machine" classifier (Table 1).
//
// The Bayes point is approximated, as in the original paper, by averaging
// the solutions of several perceptrons trained on random permutations of the
// data (each normalized to the unit sphere) — an ensemble-of-version-space
// samples approach.
//
// Parameters: training_iterations (default 30): epochs per committee member.
#pragma once

#include "ml/classifier.h"

namespace mlaas {

class BayesPointMachine final : public Classifier {
 public:
  explicit BayesPointMachine(const ParamMap& params = {}, std::uint64_t seed = 0);

  void fit(const Matrix& x, const std::vector<int>& y) override;
  std::string name() const override { return "bayes_point_machine"; }

  void save(std::ostream& out) const override;
  void load(std::istream& in) override;

 private:
  void score_into(const Matrix& x, std::vector<double>& out) const override;

  long long training_iterations_;
  int committee_size_;
  std::uint64_t seed_;

  std::vector<double> w_;
  double b_ = 0.0;
};

}  // namespace mlaas
