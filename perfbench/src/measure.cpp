#include <malloc.h>

#include <algorithm>

#include "workloads.h"

namespace perfbench {

void measure(Context& ctx,
             const std::function<std::string(int index, Values& values)>& iteration) {
  const bool trace = ctx.info.trace;
  // A traced run needs one iteration of each kind, and every run one per input.
  const int min_iterations = std::max(trace ? 2 : 1, ctx.cycle);
  ctx.record.run_values["setup_peak_rss_mb"] = peak_rss_mb();
  ctx.record.run_values["input.cycle"] = ctx.cycle;
  ctx.record.references.push_back(sample_host_reference());  // set-up has ended
  ctx.record.setup_references = ctx.record.references.size();
  // Stop once the time left is under half an iteration, so a run measures
  // for about `seconds` rather than up to a whole iteration more.
  const double start = wall_now();
  double last = 0.0;
  for (int i = 0; i < min_iterations || wall_now() - start + 0.5 * last < ctx.info.seconds;
       ++i) {
    const double begin = wall_now();
    const bool traced = trace && i % 2 == 1;
    ctx.spans.set_enabled(traced);
    ctx.spans.set_iteration(i);
    Values values;
    // Each iteration starts from a trimmed heap, so its peak does not carry
    // the free memory earlier iterations left in the allocator's arenas.
    malloc_trim(0);
    const bool resets = reset_peak_rss();
    std::string digest = iteration(i, values);
    if (resets) values["peak_rss_mb"] = peak_rss_mb();
    ctx.spans.set_enabled(false);
    ctx.spans.set_iteration(kSetupSpans);
    if (traced) {
      for (const auto& [layer, seconds] : ctx.spans.self_seconds_by_layer(i)) {
        values["layer.self_s." + layer] = seconds;
      }
    }
    ctx.record.iterations.push_back(std::move(values));
    ctx.record.traced.push_back(traced);
    ctx.record.digests.push_back(std::move(digest));
    last = wall_now() - begin;
    // Host speed after every iteration (untimed): samples worth about 5% of
    // the iteration, at least one and at most sixteen.
    const double sampled = wall_now();
    for (int k = 0; k < 16 && (k == 0 || wall_now() - sampled < 0.05 * last); ++k) {
      ctx.record.references.push_back(sample_host_reference());
      ctx.record.references.back().after_iteration = i;
    }
  }
}

}  // namespace perfbench
