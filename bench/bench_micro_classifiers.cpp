// Micro-benchmarks: train and predict throughput of every registry
// classifier on a fixed synthetic workload.  Not a paper figure — this
// documents the cost model behind the measurement harness.
//
// Three modes:
//   (default)       google-benchmark train/predict loops over every
//                   classifier at the 400x16 workload (all benchmark flags
//                   accepted).
//   --json          perf-regression harness for the tree-family training
//                   kernel: times each tree-family classifier's fit() at
//                   n=2000, d=30 under both the presort kernel and
//                   ReferenceTreeBuilder and writes machine-independent
//                   speedup ratios to a JSON file.
//   --json-predict  same harness shape for the batched prediction kernels:
//                   fits each model once, then times predict() on a 4000-row
//                   query batch under PredictKernel::kFlat vs kReference and
//                   writes BENCH_predict.json.
//
// JSON-mode flags (shared by --json and --json-predict; see perf_gate.h):
//   --out FILE               output path (default BENCH_tree_training.json /
//                            BENCH_predict.json)
//   --baseline FILE          committed baseline with expected speedups
//   --check-regression F     exit 1 if any speedup drops below
//                            baseline speedup / F, or is not baselined
#include <benchmark/benchmark.h>

#include <chrono>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "data/generators.h"
#include "ml/classifier.h"
#include "ml/registry.h"
#include "ml/tree/trainer.h"
#include "perf_gate.h"
#include "util/rng.h"

namespace {

using namespace mlaas;

const Dataset& workload() {
  static const Dataset ds = [] {
    MakeClassificationOptions opt;
    opt.n_samples = 400;
    opt.n_features = 16;
    opt.n_informative = 6;
    opt.n_redundant = 4;
    opt.n_clusters_per_class = 2;
    opt.class_sep = 1.2;
    return make_classification(opt, 42);
  }();
  return ds;
}

void BM_Train(benchmark::State& state, const std::string& name) {
  const Dataset& ds = workload();
  for (auto _ : state) {
    auto clf = make_classifier(name, {}, 1);
    clf->fit(ds.x(), ds.y());
    benchmark::DoNotOptimize(clf);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long long>(ds.n_samples()));
}

void BM_Predict(benchmark::State& state, const std::string& name) {
  const Dataset& ds = workload();
  auto clf = make_classifier(name, {}, 1);
  clf->fit(ds.x(), ds.y());
  for (auto _ : state) {
    auto labels = clf->predict(ds.x());
    benchmark::DoNotOptimize(labels);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long long>(ds.n_samples()));
}

const int registered = [] {
  for (const auto& name : classifier_names()) {
    benchmark::RegisterBenchmark(("train/" + name).c_str(),
                                 [name](benchmark::State& s) { BM_Train(s, name); });
    benchmark::RegisterBenchmark(("predict/" + name).c_str(),
                                 [name](benchmark::State& s) { BM_Predict(s, name); });
  }
  return 0;
}();

// ---------------------------------------------------------------------------
// --json mode: tree-training perf harness.

struct TreeBenchCase {
  const char* label;       // row name in the JSON (unique)
  const char* classifier;  // registry name
  ParamMap params;         // overrides on top of registry defaults
  bool meta_shape = false;  // train on meta_shape_workload(), not tree_workload()
};

/// Registry defaults for the whole family, plus an all-features forest:
/// with sqrt feature sampling the reference builder only sorts ~sqrt(d)
/// small columns per node, so the presort win there is bounded by the
/// shared fold/partition work; the all-features row shows the kernel's
/// effect when split scans touch every column (the boosting/full-tree
/// regime).  The meta-shape row is the §6.2 family meta-predictor's forest
/// on its data shape, where most columns are constant zero padding that the
/// fast builder skips.  See DESIGN.md "Training kernels".
const std::vector<TreeBenchCase>& tree_cases() {
  static const std::vector<TreeBenchCase> cases = {
      {"decision_tree", "decision_tree", {}},
      {"random_forest", "random_forest", {}},
      {"random_forest_all_features",
       "random_forest",
       {{"max_features", std::string("all")}}},
      {"bagging", "bagging", {}},
      {"boosted_trees", "boosted_trees", {}},
      {"decision_jungle", "decision_jungle", {}},
      {"random_forest_meta_shape",
       "random_forest",
       {{"n_estimators", 60LL}, {"max_depth", 14LL}},
       true},
  };
  return cases;
}

/// §6.2 meta-dataset shape: ~100 experiments x (4 metrics + 256 label
/// signature bits), of which only the first 22 bits vary.
Dataset meta_shape_workload() {
  const std::size_t n = 100, metrics = 4, bits = 256, live_bits = 22;
  Rng rng(42);
  Matrix x(n, metrics + bits);
  std::vector<int> y(n);
  for (std::size_t r = 0; r < n; ++r) {
    y[r] = rng.chance(0.5) ? 1 : 0;
    for (std::size_t c = 0; c < metrics; ++c) {
      x(r, c) = 0.6 + 0.2 * y[r] + 0.15 * rng.normal();
    }
    for (std::size_t b = 0; b < live_bits; ++b) {
      x(r, metrics + b) = rng.chance(y[r] == 1 ? 0.7 : 0.4) ? 1.0 : 0.0;
    }
  }
  return Dataset(std::move(x), std::move(y));
}

Dataset tree_workload() {
  MakeClassificationOptions opt;
  opt.n_samples = 2000;
  opt.n_features = 30;
  opt.n_informative = 10;
  opt.n_redundant = 6;
  opt.n_clusters_per_class = 2;
  opt.class_sep = 1.0;
  return make_classification(opt, 42);
}

/// Best-of-`repeats` wall time of fit() under the given builder, in ms.
double time_fit_ms(const TreeBenchCase& c, const Dataset& ds, TreeBuilder builder,
                   int repeats) {
  set_active_tree_builder(builder);
  double best = 1e300;
  for (int r = 0; r < repeats; ++r) {
    auto clf = make_classifier(c.classifier, c.params, 1);
    const auto t0 = std::chrono::steady_clock::now();
    clf->fit(ds.x(), ds.y());
    const auto t1 = std::chrono::steady_clock::now();
    best = std::min(best, std::chrono::duration<double, std::milli>(t1 - t0).count());
  }
  set_active_tree_builder(TreeBuilder::kFast);
  return best;
}

struct TreeBenchRow {
  std::string name;
  double fast_ms = 0.0;
  double reference_ms = 0.0;
  std::size_t n_samples = 0, n_features = 0;
  double speedup() const { return fast_ms > 0.0 ? reference_ms / fast_ms : 0.0; }
};

std::vector<PerfGateRow> gate_rows(const std::vector<TreeBenchRow>& rows) {
  std::vector<PerfGateRow> out;
  for (const auto& row : rows) out.push_back({row.name, row.speedup()});
  return out;
}

int run_json_mode(const PerfGateArgs& gate) {
  const Dataset default_ds = tree_workload();
  const Dataset meta_ds = meta_shape_workload();
  std::vector<TreeBenchRow> rows;
  for (const auto& c : tree_cases()) {
    const Dataset& ds = c.meta_shape ? meta_ds : default_ds;
    TreeBenchRow row;
    row.name = c.label;
    row.n_samples = ds.n_samples();
    row.n_features = ds.n_features();
    row.fast_ms = time_fit_ms(c, ds, TreeBuilder::kFast, 5);
    row.reference_ms = time_fit_ms(c, ds, TreeBuilder::kReference, 3);
    rows.push_back(row);
    std::cout << row.name << ": fast " << row.fast_ms << " ms, reference "
              << row.reference_ms << " ms, speedup " << row.speedup() << "x\n";
  }

  std::ostringstream json;
  json << "{\n"
       << "  \"bench\": \"tree_training\",\n"
       << "  \"results\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    json << "    {\"name\": \"" << rows[i].name << "\", \"n_samples\": " << rows[i].n_samples
         << ", \"n_features\": " << rows[i].n_features << ", \"fast_ms\": " << rows[i].fast_ms
         << ", \"reference_ms\": " << rows[i].reference_ms
         << ", \"speedup_vs_reference\": " << rows[i].speedup() << "}"
         << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  json << "  ]\n}\n";
  write_perf_json(gate.out_path, json.str());
  return check_perf_gate(gate, gate_rows(rows), "speedup_vs_reference");
}

// ---------------------------------------------------------------------------
// --json-predict mode: batched-prediction perf harness.

/// Models timed by the predict harness.  The tree-ensemble rows gate the
/// FlatForest walk, knn/rbf_svm gate the blocked distance kernels, the rest
/// document the linear/MLP matvec path.
const std::vector<TreeBenchCase>& predict_cases() {
  static const std::vector<TreeBenchCase> cases = {
      {"decision_tree", "decision_tree", {}},
      {"random_forest", "random_forest", {}},
      {"bagging", "bagging", {}},
      {"boosted_trees", "boosted_trees", {}},
      {"decision_jungle", "decision_jungle", {}},
      {"knn", "knn", {}},
      {"rbf_svm", "rbf_svm", {}},
      {"mlp", "mlp", {}},
      {"logistic_regression", "logistic_regression", {}},
  };
  return cases;
}

/// Query batch for the predict harness: same feature geometry as
/// tree_workload(), different seed so queries are not training points.
Dataset predict_queries() {
  MakeClassificationOptions opt;
  opt.n_samples = 4000;
  opt.n_features = 30;
  opt.n_informative = 10;
  opt.n_redundant = 6;
  opt.n_clusters_per_class = 2;
  opt.class_sep = 1.0;
  return make_classification(opt, 43);
}

/// Best-of-`repeats` wall time of predict() under the given kernel, in ms.
double time_predict_ms(const Classifier& clf, const Matrix& x, PredictKernel kernel,
                       int repeats) {
  set_active_predict_kernel(kernel);
  double best = 1e300;
  for (int r = 0; r < repeats; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    auto labels = clf.predict(x);
    const auto t1 = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(labels);
    best = std::min(best, std::chrono::duration<double, std::milli>(t1 - t0).count());
  }
  set_active_predict_kernel(PredictKernel::kFlat);
  return best;
}

int run_predict_json_mode(const PerfGateArgs& gate) {
  const Dataset train = tree_workload();
  const Dataset queries = predict_queries();
  std::vector<TreeBenchRow> rows;
  for (const auto& c : predict_cases()) {
    auto clf = make_classifier(c.classifier, c.params, 1);
    clf->fit(train.x(), train.y());
    TreeBenchRow row;
    row.name = c.label;
    // Flat is the default; one warm-up pass populates scratch buffers before
    // either side is timed.
    time_predict_ms(*clf, queries.x(), PredictKernel::kFlat, 1);
    row.fast_ms = time_predict_ms(*clf, queries.x(), PredictKernel::kFlat, 5);
    row.reference_ms = time_predict_ms(*clf, queries.x(), PredictKernel::kReference, 3);
    rows.push_back(row);
    std::cout << row.name << ": flat " << row.fast_ms << " ms, reference "
              << row.reference_ms << " ms, speedup " << row.speedup() << "x\n";
  }

  std::ostringstream json;
  json << "{\n"
       << "  \"bench\": \"predict\",\n"
       << "  \"workload\": {\"n_train\": " << train.n_samples()
       << ", \"n_queries\": " << queries.n_samples()
       << ", \"n_features\": " << train.n_features() << "},\n"
       << "  \"results\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    json << "    {\"name\": \"" << rows[i].name << "\", \"flat_ms\": " << rows[i].fast_ms
         << ", \"reference_ms\": " << rows[i].reference_ms
         << ", \"speedup_vs_reference\": " << rows[i].speedup() << "}"
         << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  json << "  ]\n}\n";
  write_perf_json(gate.out_path, json.str());
  return check_perf_gate(gate, gate_rows(rows), "speedup_vs_reference");
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string mode = argv[i];
    if (mode != "--json" && mode != "--json-predict") continue;
    const bool predict = mode == "--json-predict";
    PerfGateArgs gate;
    try {
      gate = parse_perf_gate_args(argc, argv,
                                  predict ? "BENCH_predict.json" : "BENCH_tree_training.json");
    } catch (const std::invalid_argument& e) {
      std::cerr << "bench_micro_classifiers: " << e.what() << "\n";
      return 2;
    }
    return predict ? run_predict_json_mode(gate) : run_json_mode(gate);
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
