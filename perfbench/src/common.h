// Shared helpers of the perfbench binary: clocks, process counters, the
// output digest and a minimal JSON writer for the raw-sample record that
// perfbench/run.py aggregates.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// Monotonic wall clock in seconds.
double wall_now();
/// Process CPU time (user + sys, every thread) in seconds.
double process_cpu_seconds();
/// Peak resident set size of this process so far, in MiB.
double peak_rss_mb();
/// Restart the peak-RSS watermark (VmHWM) at the current resident set, so
/// the next peak_rss_mb() covers only what runs after this call.  Returns
/// false when the kernel does not offer the reset.
bool reset_peak_rss();

double median(std::vector<double> values);

/// One sample of a fixed single-thread reference mix, in milliseconds per
/// part: floating-point multiply-adds over an L1-sized array, a sort, a
/// pointer chase through 2 MiB and binary searches in a 512 KiB array.  The
/// code is the benchmark's own, so no change to the library moves it; only
/// the speed the host gives this process does.  perfbench/run.py scales the
/// run's times by it (see perfbench/README.md, "Host speed").
struct HostReference {
  double fp_ms = 0.0;
  double sort_ms = 0.0;
  double chase_ms = 0.0;
  double search_ms = 0.0;
  int after_iteration = -1;  // the timed iteration it followed; -1 in set-up
};
HostReference sample_host_reference();

/// 64-bit FNV-1a, chained: digest(b, digest(a)) hashes a then b.
std::uint64_t fnv1a(std::string_view bytes, std::uint64_t state = 0xcbf29ce484222325ULL);
std::string hex64(std::uint64_t value);

/// Size of a regular file in bytes (0 when missing).
double file_bytes(const std::string& path);

/// Per-iteration numbers: name -> value.  Ordered so the record is stable.
using Values = std::map<std::string, double>;

/// The configuration a workload ran with, echoed into the record so the
/// recorded digests can be matched against the exact settings they came from.
struct RunInfo {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  unsigned host_threads = 0;
  unsigned worker_threads = 0;
  std::string work_dir;
  std::string config;  // workload knobs that shape the outputs
  std::map<std::string, std::string> shape;  // corpus / tenant shape
};

/// Raw samples of one invocation.
struct Record {
  RunInfo info;
  std::vector<double> setup_s;          // one per set-up repetition
  std::vector<Values> iterations;       // timed iterations (untraced and traced)
  std::vector<bool> traced;             // parallel to iterations
  std::vector<std::string> digests;     // parallel to iterations
  Values run_values;                    // once-per-run numbers (ladder, decomposition)
  std::vector<HostReference> references;  // host-speed samples across the run
  std::size_t setup_references = 0;       // how many of them were taken during set-up
  std::map<std::string, std::string> notes;  // human-readable context lines
  std::string error;                    // non-empty when a check failed
};

/// Serialize a Record as one JSON line.
std::string to_json(const Record& record);

}  // namespace perfbench
