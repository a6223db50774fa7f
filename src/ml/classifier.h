// Classifier interface.
//
// All classifiers are binary (labels {0,1}), are constructed from a ParamMap
// plus a seed, and report a probability-like score for class 1.  The base
// class owns the public predict entry points and the single-class rule;
// each classifier implements fit() and one scoring kernel, score_into().
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "linalg/matrix.h"
#include "ml/params.h"

namespace mlaas {

/// Which inference kernel score_into() dispatches to.
/// kFlat runs the batched kernels (flattened struct-of-arrays ensembles,
/// blocked matvec/distance tiles); kReference runs each classifier's
/// original per-row scoring loop, preserved verbatim so tests can assert
/// bit-identity and benchmarks can measure the speedup.  Mirrors
/// set_active_tree_builder() on the training side; not meant to be flipped
/// while predicts are in flight.
enum class PredictKernel { kFlat, kReference };

PredictKernel active_predict_kernel();
void set_active_predict_kernel(PredictKernel kernel);

class Classifier {
 public:
  virtual ~Classifier() = default;

  /// Train on X (n x d) with labels y in {0,1}.  Implementations must
  /// tolerate single-class training sets: they call check_single_class(),
  /// and when it reports one class every predict returns that class.
  virtual void fit(const Matrix& x, const std::vector<int>& y) = 0;

  /// P(class == 1)-like score in [0, 1] per row, written into `out`
  /// (resized to x.rows()).  A caller that keeps `out` alive across calls
  /// predicts repeatedly without reallocating.  Fills the constant score
  /// when fit() saw one class; otherwise runs the classifier's score_into().
  /// Must only be called after fit().
  void predict_score_into(const Matrix& x, std::vector<double>& out) const;

  /// predict_score_into() into a fresh vector; identical scores.
  std::vector<double> predict_score(const Matrix& x) const;

  /// Hard labels: score thresholded at 0.5.
  std::vector<int> predict(const Matrix& x) const;

  /// predict() with caller-owned score scratch: `labels` is resized and
  /// filled, `score_scratch` is reused across calls.  Labels are identical
  /// to predict().
  void predict_into(const Matrix& x, std::vector<double>& score_scratch,
                    std::vector<int>& labels) const;

  /// Registry name, e.g. "logistic_regression".  Its Table 4 abbreviation
  /// and Table 5 family live in the registry (ml/registry.h).
  virtual std::string name() const = 0;

  /// Serialize the fitted state (including predict-time hyper-parameters);
  /// restore with load() on a default-constructed instance.  See
  /// ml/serialize.h for the framing format and save_model()/load_model().
  virtual void save(std::ostream& out) const = 0;
  virtual void load(std::istream& in) = 0;

 protected:
  /// The classifier's scoring kernel: resize `out` to x.rows() and write
  /// every row's score.  Only called after a fit that saw both classes.
  virtual void score_into(const Matrix& x, std::vector<double>& out) const = 0;

  /// Shared single-class handling: returns true (and records the class) if
  /// y is constant; predict_score_into() then fills that constant.
  bool check_single_class(const std::vector<int>& y);

  /// Serialize/restore the shared single-class state; every concrete
  /// save()/load() implementation calls these first.
  void save_base(std::ostream& out) const;
  void load_base(std::istream& in);

 private:
  bool single_class_ = false;
  int single_class_label_ = 0;
};

using ClassifierPtr = std::unique_ptr<Classifier>;

/// Count of label-1 entries.
std::size_t count_positive(const std::vector<int>& y);

/// Convert {0,1} labels to {-1,+1} doubles (margin-based learners).
std::vector<double> to_signed_labels(const std::vector<int>& y);

}  // namespace mlaas
