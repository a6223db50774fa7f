// perfbench: times the reproduction pipeline's public entry points from the
// outside and prints one JSON record of raw samples on stdout.
//
//   perfbench --workload campaign|analysis|serving --seed N --seconds S
//             --trace 0|1 --work-dir DIR [--setups K]
//
// perfbench/run.py builds this binary, runs it, checks the output digests
// against the recorded ones and reduces the samples to the benchmark's
// metrics.  With --trace 1 the spans recorded around each public call are
// written to DIR/trace_<workload>_seed<N>.json (Chrome trace_event format).
#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <stdexcept>
#include <string>
#include <thread>

#include "workloads.h"

namespace {

[[noreturn]] void usage(const std::string& message) {
  std::cerr << "perfbench: " << message
            << "\nusage: perfbench --workload campaign|analysis|serving --seed N --seconds S"
               " --trace 0|1 --work-dir DIR [--setups K]\n";
  std::exit(2);
}

long long parse_integer(const std::string& flag, const std::string& text, long long lo,
                        long long hi) {
  std::size_t used = 0;
  long long value = 0;
  try {
    value = std::stoll(text, &used);
  } catch (const std::exception&) {
    usage(flag + " expects an integer, got '" + text + "'");
  }
  if (used != text.size() || value < lo || value > hi) {
    usage(flag + " out of range: '" + text + "'");
  }
  return value;
}

/// Self time per layer over one pass of the workload: one set-up
/// repetition, the median traced timed iteration and (serving) the
/// decomposition outside the router.
void record_layer_self_time(perfbench::Context& ctx) {
  using namespace perfbench;
  std::map<std::string, double> self;
  for (const auto& [layer, s] : ctx.spans.self_seconds_by_layer(kSetupSpans)) {
    self[layer] += s / static_cast<double>(ctx.setups);
  }
  for (const auto& [layer, s] : ctx.spans.self_seconds_by_layer(kDecompositionSpans)) {
    self[layer] += s;
  }
  for (const char* layer : {"data", "ml", "platform", "eval", "core"}) {
    std::vector<double> traced;
    for (std::size_t i = 0; i < ctx.record.iterations.size(); ++i) {
      if (!ctx.record.traced[i]) continue;
      const auto it = ctx.record.iterations[i].find(std::string("layer.self_s.") + layer);
      traced.push_back(it == ctx.record.iterations[i].end() ? 0.0 : it->second);
    }
    ctx.record.run_values[std::string("layer.self_s.") + layer] = self[layer] + median(traced);
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  Context ctx;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      ctx.info.workload = value;
    } else if (flag == "--seed") {
      ctx.info.seed = static_cast<std::uint64_t>(parse_integer(flag, value, 0, 1LL << 62));
      have_seed = true;
    } else if (flag == "--seconds") {
      ctx.info.seconds = static_cast<double>(parse_integer(flag, value, 0, 3600));
      have_seconds = true;
    } else if (flag == "--trace") {
      ctx.info.trace = parse_integer(flag, value, 0, 1) == 1;
      have_trace = true;
    } else if (flag == "--work-dir") {
      ctx.info.work_dir = value;
    } else if (flag == "--setups") {
      ctx.setups = static_cast<int>(parse_integer(flag, value, 1, 1000));
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (!have_seed || !have_seconds || !have_trace || ctx.info.work_dir.empty()) {
    usage("--seed, --seconds, --trace and --work-dir are required");
  }
  if (ctx.info.workload != "campaign" && ctx.info.workload != "analysis" &&
      ctx.info.workload != "serving") {
    usage("unknown workload '" + ctx.info.workload + "'");
  }
  // Each analysis set-up runs a whole campaign (scale 0.1); the others are cheap.
  if (ctx.setups == 0) ctx.setups = ctx.info.workload == "analysis" ? 3 : 9;

  ctx.info.host_threads = std::max(1u, std::thread::hardware_concurrency());
  // One worker.  On a shared 4-vCPU host the 4-worker campaign's times
  // drifted by 25% between sets of runs minutes apart, and no reference
  // measured beside it followed that drift; single-thread times scaled by
  // the single-thread host reference did (see perfbench/README.md).
  ctx.info.worker_threads = 1;

  try {
    std::filesystem::create_directories(ctx.info.work_dir);
    ctx.record.references.push_back(sample_host_reference());
    reset_peak_rss();  // the set-up peak leaves out the reference sample
    ctx.spans.set_enabled(ctx.info.trace);  // set-up spans of a traced run
    if (ctx.info.workload == "campaign") {
      run_campaign_workload(ctx);
    } else if (ctx.info.workload == "analysis") {
      run_analysis_workload(ctx);
    } else {
      run_serving_workload_bench(ctx);
    }
    ctx.record.references.push_back(sample_host_reference());
    if (ctx.info.trace) {
      record_layer_self_time(ctx);
      const std::string path = (std::filesystem::path(ctx.info.work_dir) /
                                ("trace_" + ctx.info.workload + "_seed" +
                                 std::to_string(ctx.info.seed) + ".json"))
                                   .string();
      ctx.spans.write_chrome_json(path);
      ctx.record.notes["trace_file"] = path;
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
  ctx.record.info = ctx.info;
  std::cout << to_json(ctx.record) << std::endl;
  return 0;
}
