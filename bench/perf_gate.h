// The perf-regression gate shared by the JSON harnesses
// (bench_micro_classifiers --json / --json-predict,
// bench_micro_model_selection, bench_ext_serving --json).
//
// Each harness measures named rows that carry one higher-is-better value (a
// speedup ratio or a simulated throughput) and takes the same flags:
//   --out FILE               where to write the measured JSON
//   --baseline FILE          committed baseline (bench/baselines/...)
//   --check-regression F     exit 1 if any row drops below baseline / F
// A produced row that the baseline does not list fails the gate: a new row
// must be baselined before it ships, never silently skipped.  A
// --check-regression that is not a number > 0, or one given without
// --baseline, is a usage error rather than a gate that is quietly off.
#pragma once

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/cli.h"
#include "util/io.h"

namespace mlaas {

struct PerfGateArgs {
  std::string out_path;
  std::string baseline_path;
  double check_factor = 0.0;  // 0 = no gate
};

/// Parse the gate flags out of argv (other flags are ignored).  Throws
/// std::invalid_argument on a bad --check-regression.
inline PerfGateArgs parse_perf_gate_args(int argc, const char* const* argv,
                                         const std::string& default_out) {
  const CliFlags flags(argc, argv);
  PerfGateArgs args;
  args.out_path = flags.get_or("out", default_out);
  args.baseline_path = flags.get_or("baseline", "");
  if (flags.get("check-regression")) {
    args.check_factor = flags.double_or("check-regression", 0.0);
    if (!(args.check_factor > 0.0)) {
      throw std::invalid_argument("--check-regression must be a number > 0");
    }
    if (args.baseline_path.empty()) {
      throw std::invalid_argument("--check-regression needs --baseline FILE");
    }
  }
  return args;
}

/// Write the measured JSON to `path` (checked write) and say so.
inline void write_perf_json(const std::string& path, const std::string& json) {
  std::ofstream out = open_sidecar(path, "perf harness");
  out << json;
  finish_sidecar(out, path, "perf harness");
  std::cout << "wrote " << path << "\n";
}

struct PerfGateRow {
  std::string name;
  double value = 0.0;
};

/// `key` of the baseline result object named `name`, read from the small,
/// fixed-shape baseline JSON ({"name": "...", "<key>": <number>} per row).
/// Returns false when the row or its key is absent.
inline bool baseline_value(const std::string& json, const std::string& name,
                           const std::string& key, double* value) {
  const std::size_t at = json.find("\"name\": \"" + name + "\"");
  if (at == std::string::npos) return false;
  const std::size_t end = json.find('}', at);
  const std::size_t field = json.find("\"" + key + "\":", at);
  if (field == std::string::npos || field > end) return false;
  const char* begin = json.c_str() + field + key.size() + 3;
  char* stop = nullptr;
  *value = std::strtod(begin, &stop);
  return stop != begin;
}

/// Run the gate: 0 when it is off or every row clears baseline / factor,
/// 1 on any regression, missing baseline row or unreadable baseline.
inline int check_perf_gate(const PerfGateArgs& args, const std::vector<PerfGateRow>& rows,
                           const std::string& key) {
  if (args.check_factor <= 0.0) return 0;
  std::ifstream in(args.baseline_path);
  if (!in.good()) {
    std::cerr << "baseline missing: " << args.baseline_path << "\n";
    return 1;
  }
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string baseline = buf.str();
  int failures = 0;
  for (const auto& row : rows) {
    double expected = 0.0;
    if (!baseline_value(baseline, row.name, key, &expected)) {
      std::cerr << "UNGATED " << row.name << ": no " << key << " in "
                << args.baseline_path << "\n";
      ++failures;
      continue;
    }
    const double floor = expected / args.check_factor;
    if (row.value < floor) {
      std::cerr << "REGRESSION " << row.name << ": " << key << " " << row.value
                << " below floor " << floor << " (baseline " << expected << " / factor "
                << args.check_factor << ")\n";
      ++failures;
    }
  }
  if (failures > 0) return 1;
  std::cout << "regression check passed (factor " << args.check_factor << ")\n";
  return 0;
}

}  // namespace mlaas
