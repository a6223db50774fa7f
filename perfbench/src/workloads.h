// The three workloads of the end-to-end benchmark.  Each sets itself up
// `setups` times (timing every repetition), then repeats its timed part for
// the requested number of seconds and records, per iteration, the wall and
// CPU time, the layer counters the library already returns, and a digest of
// the outputs.  See perfbench/README.md for what each one exercises.
#pragma once

#include <functional>
#include <string>

#include "common.h"
#include "core/study.h"
#include "spans.h"

namespace perfbench {

/// Corpus / campaign scale of `campaign` and `analysis`: the full
/// 119-dataset corpus with caps and parameter grids at a tenth of scale 1.
inline constexpr double kCampaignScale = 0.1;
/// Data seed of the `campaign` corpus (the library's default study seed).
inline constexpr std::uint64_t kCorpusSeed = 42;
/// Campaign seeds one `campaign` run cycles through: iteration i of input
/// seed s runs campaign seed s * kSeedsPerRun + i % kSeedsPerRun.  Odd, so
/// a traced run's alternating untraced iterations still meet every one.
inline constexpr int kSeedsPerRun = 5;

struct Context {
  RunInfo info;
  SpanRecorder spans;
  Record record;
  int setups = 0;  // set-up repetitions
  /// Iterations cycle through this many inputs, each with its own recorded
  /// digest; a run makes at least this many iterations.
  int cycle = 1;
};

/// Stopwatch for the timed part of one iteration: wall and process CPU.
class Stopwatch {
 public:
  Stopwatch() : wall_(wall_now()), cpu_(process_cpu_seconds()) {}
  void stop(Values& values) const {
    values["wall_s"] = wall_now() - wall_;
    values["cpu_s"] = process_cpu_seconds() - cpu_;
  }

 private:
  double wall_;
  double cpu_;
};

/// Runs `iteration(index)` until the run's seconds are spent (at least once).
/// With tracing, iterations alternate untraced / traced so both medians come
/// from the same run; span recording is on only for the traced ones.
/// `iteration` returns the digest of its outputs and fills the iteration's
/// values.
void measure(Context& ctx,
             const std::function<std::string(int index, Values& values)>& iteration);

/// Study options of the campaign both `campaign` and `analysis` run.
mlaas::StudyOptions campaign_study_options(const RunInfo& info);
/// Record the corpus shape (datasets, total samples, total features).
void record_corpus_shape(const std::vector<mlaas::Dataset>& corpus, RunInfo& info);

void run_campaign_workload(Context& ctx);
void run_analysis_workload(Context& ctx);
void run_serving_workload_bench(Context& ctx);

}  // namespace perfbench
