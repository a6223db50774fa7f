#include "ml/bayes/naive_bayes.h"

#include "ml/serialize.h"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "linalg/vector_ops.h"

namespace mlaas {

GaussianNaiveBayes::GaussianNaiveBayes(const ParamMap& params, std::uint64_t) {
  uniform_prior_ = params.get_string("prior", "empirical") == "uniform";
  lambda_ = std::max(0.0, params.get_double("lambda", 1e-9));
}

void GaussianNaiveBayes::fit(const Matrix& x, const std::vector<int>& y) {
  if (check_single_class(y)) return;
  const std::size_t d = x.cols();
  std::size_t count[2] = {0, 0};
  for (int cls = 0; cls < 2; ++cls) {
    mean_[cls].assign(d, 0.0);
    var_[cls].assign(d, 0.0);
  }
  for (std::size_t r = 0; r < x.rows(); ++r) {
    const int cls = y[r] == 1 ? 1 : 0;
    ++count[cls];
    for (std::size_t c = 0; c < d; ++c) mean_[cls][c] += x(r, c);
  }
  for (int cls = 0; cls < 2; ++cls) {
    for (std::size_t c = 0; c < d; ++c) mean_[cls][c] /= static_cast<double>(count[cls]);
  }
  double max_var = 0.0;
  for (std::size_t r = 0; r < x.rows(); ++r) {
    const int cls = y[r] == 1 ? 1 : 0;
    for (std::size_t c = 0; c < d; ++c) {
      const double dv = x(r, c) - mean_[cls][c];
      var_[cls][c] += dv * dv;
    }
  }
  for (int cls = 0; cls < 2; ++cls) {
    for (std::size_t c = 0; c < d; ++c) {
      var_[cls][c] /= static_cast<double>(count[cls]);
      max_var = std::max(max_var, var_[cls][c]);
    }
  }
  // Variance smoothing keeps zero-variance (constant/categorical) features
  // from producing infinite log-likelihoods.
  const double smooth = std::max(lambda_, 1e-9) * std::max(max_var, 1.0);
  for (int cls = 0; cls < 2; ++cls) {
    for (std::size_t c = 0; c < d; ++c) var_[cls][c] += smooth;
  }
  if (uniform_prior_) {
    log_prior_[0] = log_prior_[1] = std::log(0.5);
  } else {
    const double n = static_cast<double>(x.rows());
    log_prior_[0] = std::log(static_cast<double>(count[0]) / n);
    log_prior_[1] = std::log(static_cast<double>(count[1]) / n);
  }
}

void GaussianNaiveBayes::score_into(const Matrix& x, std::vector<double>& out) const {
  out.resize(x.rows());
  const std::size_t d = x.cols();
  for (std::size_t r = 0; r < x.rows(); ++r) {
    double log_like[2];
    for (int cls = 0; cls < 2; ++cls) {
      double ll = log_prior_[cls];
      for (std::size_t c = 0; c < d; ++c) {
        const double dv = x(r, c) - mean_[cls][c];
        ll += -0.5 * std::log(2.0 * std::numbers::pi * var_[cls][c]) -
              dv * dv / (2.0 * var_[cls][c]);
      }
      log_like[cls] = ll;
    }
    out[r] = sigmoid(log_like[1] - log_like[0]);
  }
}


void GaussianNaiveBayes::save(std::ostream& out) const {
  save_base(out);
  for (int cls = 0; cls < 2; ++cls) {
    model_io::write_vec(out, mean_[cls]);
    model_io::write_vec(out, var_[cls]);
    model_io::write_double(out, log_prior_[cls]);
  }
}

void GaussianNaiveBayes::load(std::istream& in) {
  load_base(in);
  for (int cls = 0; cls < 2; ++cls) {
    mean_[cls] = model_io::read_vec(in);
    var_[cls] = model_io::read_vec(in);
    log_prior_[cls] = model_io::read_double(in);
  }
}

}  // namespace mlaas
