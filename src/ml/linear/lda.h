// (Fisher) Linear Discriminant Analysis.
//
// Parameters (local library row of Table 1):
//   solver     "lsqr" | "eigen"   (both solve the pooled-covariance system;
//              kept for grid parity with sklearn)
//   shrinkage  in [0,1]: blends the pooled covariance toward a scaled
//              identity (Ledoit-Wolf-style regularization; default 0 plus a
//              tiny ridge for numerical safety)
#pragma once

#include "ml/classifier.h"

namespace mlaas {

class LinearDiscriminantAnalysis final : public Classifier {
 public:
  explicit LinearDiscriminantAnalysis(const ParamMap& params = {}, std::uint64_t seed = 0);

  void fit(const Matrix& x, const std::vector<int>& y) override;
  std::string name() const override { return "lda"; }

  void save(std::ostream& out) const override;
  void load(std::istream& in) override;

 private:
  void score_into(const Matrix& x, std::vector<double>& out) const override;

  double shrinkage_;

  std::vector<double> w_;
  double b_ = 0.0;
};

}  // namespace mlaas
