#include "ml/neural/mlp.h"

#include "ml/serialize.h"

#include <algorithm>
#include <cmath>

#include "linalg/dense_kernels.h"
#include "linalg/vector_ops.h"
#include "ml/feature/scalers.h"
#include "util/rng.h"

namespace mlaas {

namespace {

double activate(double z, const std::string& kind) {
  if (kind == "relu") return z > 0 ? z : 0.0;
  if (kind == "tanh") return std::tanh(z);
  return sigmoid(z);  // logistic
}

double activate_grad(double a, const std::string& kind) {
  // Gradients expressed in terms of the activation output a.
  if (kind == "relu") return a > 0 ? 1.0 : 0.0;
  if (kind == "tanh") return 1.0 - a * a;
  return a * (1.0 - a);
}

}  // namespace

MultiLayerPerceptron::MultiLayerPerceptron(const ParamMap& params, std::uint64_t seed)
    : seed_(seed) {
  activation_ = params.get_string("activation", "relu");
  adam_ = params.get_string("solver", "adam") != "sgd";
  alpha_ = std::max(0.0, params.get_double("alpha", 1e-4));
  hidden_ = static_cast<std::size_t>(std::clamp<long long>(params.get_int("hidden", 12), 2, 256));
  layers_ = static_cast<int>(std::clamp<long long>(params.get_int("layers", 1), 1, 2));
  max_iter_ = std::clamp<long long>(params.get_int("max_iter", 40), 1, 400);
}

void MultiLayerPerceptron::fit(const Matrix& x, const std::vector<int>& y) {
  weights_.clear();
  biases_.clear();
  if (check_single_class(y)) return;

  StandardScaler scaler;
  scaler.fit(x, y);
  const Matrix xs = scaler.transform(x);
  feat_mean_ = scaler.means();
  feat_std_ = scaler.stds();
  const std::size_t n = xs.rows();
  const std::size_t d = xs.cols();

  // Layer sizes: d -> hidden [-> hidden] -> 1.
  std::vector<std::size_t> sizes{d};
  for (int l = 0; l < layers_; ++l) sizes.push_back(hidden_);
  sizes.push_back(1);
  const std::size_t n_layers = sizes.size() - 1;

  Rng rng(derive_seed(seed_, "mlp"));
  weights_.resize(n_layers);
  biases_.resize(n_layers);
  for (std::size_t l = 0; l < n_layers; ++l) {
    weights_[l] = Matrix(sizes[l + 1], sizes[l]);
    biases_[l].assign(sizes[l + 1], 0.0);
    const double scale = std::sqrt(2.0 / static_cast<double>(sizes[l] + sizes[l + 1]));
    for (double& w : weights_[l].data()) w = rng.normal(0.0, scale);
  }

  // Adam / momentum state.
  std::vector<Matrix> m_w(n_layers), v_w(n_layers);
  std::vector<std::vector<double>> m_b(n_layers), v_b(n_layers);
  for (std::size_t l = 0; l < n_layers; ++l) {
    m_w[l] = Matrix(sizes[l + 1], sizes[l]);
    v_w[l] = Matrix(sizes[l + 1], sizes[l]);
    m_b[l].assign(sizes[l + 1], 0.0);
    v_b[l].assign(sizes[l + 1], 0.0);
  }
  const double lr = adam_ ? 0.01 : 0.05;
  const double beta1 = 0.9, beta2 = 0.999, eps = 1e-8;
  long long step = 0;

  std::vector<std::vector<double>> act(n_layers + 1);
  std::vector<std::vector<double>> delta(n_layers);
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;

  for (long long epoch = 0; epoch < max_iter_; ++epoch) {
    rng.shuffle(order);
    for (std::size_t k = 0; k < n; ++k) {
      const std::size_t i = order[k];
      // Forward.
      act[0].assign(xs.row(i).begin(), xs.row(i).end());
      for (std::size_t l = 0; l < n_layers; ++l) {
        act[l + 1] = weights_[l].multiply(act[l]);
        for (std::size_t j = 0; j < act[l + 1].size(); ++j) {
          const double z = act[l + 1][j] + biases_[l][j];
          act[l + 1][j] = l + 1 == n_layers ? sigmoid(z) : activate(z, activation_);
        }
      }
      // Backward.
      const double target = y[i] == 1 ? 1.0 : 0.0;
      delta[n_layers - 1] = {act[n_layers][0] - target};
      for (std::size_t l = n_layers - 1; l-- > 0;) {
        delta[l] = weights_[l + 1].transpose_multiply(delta[l + 1]);
        for (std::size_t j = 0; j < delta[l].size(); ++j) {
          delta[l][j] *= activate_grad(act[l + 1][j], activation_);
        }
      }
      // Update.  Adam bias-correction factors are hoisted per step — they
      // depend only on the step counter, not on the weight.
      ++step;
      const double bc1 = adam_ ? 1.0 / (1.0 - std::pow(beta1, static_cast<double>(step))) : 1.0;
      const double bc2 = adam_ ? 1.0 / (1.0 - std::pow(beta2, static_cast<double>(step))) : 1.0;
      const double sgd_lr = lr / (1.0 + static_cast<double>(epoch) / 10.0);
      for (std::size_t l = 0; l < n_layers; ++l) {
        for (std::size_t o = 0; o < weights_[l].rows(); ++o) {
          const double db = delta[l][o];
          for (std::size_t in = 0; in < weights_[l].cols(); ++in) {
            const double g = db * act[l][in] + alpha_ * weights_[l](o, in);
            if (adam_) {
              double& m = m_w[l](o, in);
              double& v = v_w[l](o, in);
              m = beta1 * m + (1 - beta1) * g;
              v = beta2 * v + (1 - beta2) * g * g;
              weights_[l](o, in) -= lr * (m * bc1) / (std::sqrt(v * bc2) + eps);
            } else {
              double& m = m_w[l](o, in);
              m = 0.9 * m + g;
              weights_[l](o, in) -= sgd_lr * m;
            }
          }
          if (adam_) {
            double& m = m_b[l][o];
            double& v = v_b[l][o];
            m = beta1 * m + (1 - beta1) * db;
            v = beta2 * v + (1 - beta2) * db * db;
            biases_[l][o] -= lr * (m * bc1) / (std::sqrt(v * bc2) + eps);
          } else {
            double& m = m_b[l][o];
            m = 0.9 * m + db;
            biases_[l][o] -= sgd_lr * m;
          }
        }
      }
    }
  }
}

void MultiLayerPerceptron::score_into(const Matrix& x, std::vector<double>& out) const {
  const std::size_t n_layers = weights_.size();
  if (active_predict_kernel() == PredictKernel::kReference) {
    out.resize(x.rows());
    std::vector<double> act;
    for (std::size_t r = 0; r < x.rows(); ++r) {
      act.assign(x.row(r).begin(), x.row(r).end());
      for (std::size_t c = 0; c < act.size(); ++c) {
        act[c] = (act[c] - feat_mean_[c]) / feat_std_[c];
      }
      for (std::size_t l = 0; l < n_layers; ++l) {
        auto next = weights_[l].multiply(act);
        for (std::size_t j = 0; j < next.size(); ++j) {
          const double z = next[j] + biases_[l][j];
          next[j] = l + 1 == n_layers ? sigmoid(z) : activate(z, activation_);
        }
        act = std::move(next);
      }
      out[r] = act[0];
    }
    return;
  }
  out.resize(x.rows());
  // Resolve the activation once per call (the reference path string-compares
  // per neuron) and double-buffer the activations — same math, no per-layer
  // allocation.  dense_layer_into is bit-identical to multiply + bias.
  const int kind = activation_ == "relu" ? 0 : activation_ == "tanh" ? 1 : 2;
  thread_local std::vector<double> act;
  thread_local std::vector<double> next;
  for (std::size_t r = 0; r < x.rows(); ++r) {
    const auto row = x.row(r);
    act.resize(row.size());
    for (std::size_t c = 0; c < row.size(); ++c) {
      act[c] = (row[c] - feat_mean_[c]) / feat_std_[c];
    }
    for (std::size_t l = 0; l < n_layers; ++l) {
      next.resize(weights_[l].rows());
      dense_layer_into(weights_[l], act, biases_[l], next);
      if (l + 1 == n_layers) {
        for (double& z : next) z = sigmoid(z);
      } else if (kind == 0) {
        for (double& z : next) z = z > 0 ? z : 0.0;
      } else if (kind == 1) {
        for (double& z : next) z = std::tanh(z);
      } else {
        for (double& z : next) z = sigmoid(z);
      }
      std::swap(act, next);
    }
    out[r] = act[0];
  }
}


void MultiLayerPerceptron::save(std::ostream& out) const {
  save_base(out);
  model_io::write_string(out, activation_);
  model_io::write_int(out, static_cast<long long>(weights_.size()));
  for (std::size_t l = 0; l < weights_.size(); ++l) {
    model_io::write_matrix(out, weights_[l]);
    model_io::write_vec(out, biases_[l]);
  }
  model_io::write_vec(out, feat_mean_);
  model_io::write_vec(out, feat_std_);
}

void MultiLayerPerceptron::load(std::istream& in) {
  load_base(in);
  activation_ = model_io::read_string(in);
  const auto n_layers = static_cast<std::size_t>(model_io::read_int(in));
  weights_.resize(n_layers);
  biases_.resize(n_layers);
  for (std::size_t l = 0; l < n_layers; ++l) {
    weights_[l] = model_io::read_matrix(in);
    biases_[l] = model_io::read_vec(in);
  }
  feat_mean_ = model_io::read_vec(in);
  feat_std_ = model_io::read_vec(in);
}

}  // namespace mlaas
