// In-memory spans recorded by the benchmark's own code around each public
// call it makes into the library (the library itself is not instrumented
// here).  The benchmark is single-threaded at this level, so open spans form a
// stack and every span's parent is the span open when it began.
//
// With recording off, Scope is a no-op apart from one branch, so untraced
// iterations pay nothing for the instrumentation points.
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Iteration tags of spans outside the timed iterations.
inline constexpr int kSetupSpans = -1;
inline constexpr int kDecompositionSpans = -2;

struct Span {
  std::string name;   // e.g. "eval.run_campaign"
  std::string layer;  // data | ml | platform | eval | core | util
  double start = 0.0; // seconds since the recorder was created
  double end = 0.0;
  int parent = -1;    // index into spans(), -1 for a root
  int iteration = kSetupSpans;  // timed iteration index, or a tag above
};

class SpanRecorder {
 public:
  SpanRecorder();

  /// RAII span: begins on construction, ends on destruction.
  class Scope {
   public:
    Scope(SpanRecorder* recorder, std::string name, std::string layer);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanRecorder* recorder_;  // null when recording is off
    int index_ = -1;
  };

  void set_enabled(bool on) { enabled_ = on; }
  /// Tag later spans with a timed iteration index or one of the tags above.
  void set_iteration(int iteration) { iteration_ = iteration; }

  /// Self time per layer of the spans tagged `iteration`: each span's
  /// duration minus the part its child spans cover.
  std::map<std::string, double> self_seconds_by_layer(int iteration) const;

  /// Chrome trace_event JSON ("X" complete events, microseconds).
  void write_chrome_json(const std::string& path) const;

 private:
  bool enabled_ = false;
  int iteration_ = kSetupSpans;
  double origin_ = 0.0;
  std::vector<Span> spans_;
  std::vector<int> open_;  // stack of open span indices
};

}  // namespace perfbench
