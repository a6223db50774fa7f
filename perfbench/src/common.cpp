#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

namespace perfbench {

double wall_now() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double process_cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double peak_rss_mb() {
  // VmHWM honours reset_peak_rss(); ru_maxrss (KiB on Linux) never resets.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

bool reset_peak_rss() {
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
  return static_cast<bool>(clear.flush());
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

namespace {

/// Milliseconds `part` takes; `sink` keeps its result alive.
template <typename Part>
double time_ms(Part&& part) {
  const double t0 = wall_now();
  volatile double sink = part();
  (void)sink;
  return 1e3 * (wall_now() - t0);
}

std::uint64_t lcg(std::uint64_t& state) {
  state = state * 6364136223846793005ULL + 1442695040888963407ULL;
  return state >> 11;
}

}  // namespace

HostReference sample_host_reference() {
  // Inputs are built untimed, so the heap and page state the program left
  // behind does not enter the sample; only the four loops are timed.
  std::uint64_t state = 7;
  std::vector<double> a(4096), b(4096);
  for (std::size_t i = 0; i < a.size(); ++i) {
    a[i] = 1.0 + 1e-6 * static_cast<double>(i);
    b[i] = 1.0 - 1e-6 * static_cast<double>(i);
  }
  std::vector<double> unsorted(60'000);
  for (double& x : unsorted) x = static_cast<double>(lcg(state));
  // One cycle through 256 Ki slots of 8 bytes (Sattolo's shuffle).
  std::vector<std::uint64_t> cycle(1u << 18);
  for (std::size_t i = 0; i < cycle.size(); ++i) cycle[i] = i;
  for (std::size_t i = cycle.size() - 1; i > 0; --i) std::swap(cycle[i], cycle[lcg(state) % i]);
  std::vector<std::uint64_t> keys(1u << 16), probes(35'000);
  for (auto& k : keys) k = lcg(state);
  std::sort(keys.begin(), keys.end());
  for (auto& p : probes) p = lcg(state);

  HostReference r;
  r.fp_ms = time_ms([&] {
    double acc[4] = {0.0, 0.0, 0.0, 0.0};
    for (int rep = 0; rep < 4000; ++rep) {
      for (std::size_t i = 0; i < a.size(); i += 4) {
        for (int k = 0; k < 4; ++k) acc[k] += a[i + k] * b[i + k];
      }
    }
    return acc[0] + acc[1] + acc[2] + acc[3];
  });
  r.sort_ms = time_ms([&] {
    std::sort(unsorted.begin(), unsorted.end());
    return unsorted[unsorted.size() / 2];
  });
  r.chase_ms = time_ms([&] {
    std::uint64_t at = 0;
    for (int i = 0; i < 60'000; ++i) at = cycle[at];
    return static_cast<double>(at);
  });
  r.search_ms = time_ms([&] {
    std::size_t found = 0;
    for (const std::uint64_t p : probes) {
      found += static_cast<std::size_t>(std::lower_bound(keys.begin(), keys.end(), p) -
                                        keys.begin());
    }
    return static_cast<double>(found);
  });
  return r;
}

std::uint64_t fnv1a(std::string_view bytes, std::uint64_t state) {
  for (const char c : bytes) {
    state ^= static_cast<unsigned char>(c);
    state *= 0x100000001b3ULL;
  }
  return state;
}

std::string hex64(std::uint64_t value) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(value));
  return buf;
}

double file_bytes(const std::string& path) {
  std::error_code ec;
  const auto size = std::filesystem::file_size(path, ec);
  return ec ? 0.0 : static_cast<double>(size);
}

namespace {

std::string quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned>(c));
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string values_json(const Values& values) {
  std::string out = "{";
  for (const auto& [k, v] : values) {
    if (out.size() > 1) out += ",";
    out += quote(k) + ":" + number(v);
  }
  return out + "}";
}

std::string strings_json(const std::map<std::string, std::string>& values) {
  std::string out = "{";
  for (const auto& [k, v] : values) {
    if (out.size() > 1) out += ",";
    out += quote(k) + ":" + quote(v);
  }
  return out + "}";
}

}  // namespace

std::string to_json(const Record& r) {
  std::ostringstream out;
  out << "{\"workload\":" << quote(r.info.workload) << ",\"seed\":" << r.info.seed
      << ",\"seconds\":" << number(r.info.seconds) << ",\"trace\":" << (r.info.trace ? 1 : 0)
      << ",\"host_threads\":" << r.info.host_threads
      << ",\"worker_threads\":" << r.info.worker_threads
      << ",\"build_type\":" << quote(PERFBENCH_BUILD_TYPE)
      << ",\"config\":" << quote(r.info.config) << ",\"shape\":" << strings_json(r.info.shape)
      << ",\"setup_s\":[";
  for (std::size_t i = 0; i < r.setup_s.size(); ++i) out << (i ? "," : "") << number(r.setup_s[i]);
  out << "],\"iterations\":[";
  for (std::size_t i = 0; i < r.iterations.size(); ++i) {
    out << (i ? "," : "") << "{\"traced\":" << (r.traced[i] ? 1 : 0)
        << ",\"digest\":" << quote(r.digests[i]) << ",\"values\":" << values_json(r.iterations[i])
        << "}";
  }
  out << "],\"references\":[";
  for (std::size_t i = 0; i < r.references.size(); ++i) {
    const HostReference& h = r.references[i];
    out << (i ? "," : "")
        << values_json({{"fp_ms", h.fp_ms}, {"sort_ms", h.sort_ms},
                        {"chase_ms", h.chase_ms}, {"search_ms", h.search_ms},
                        {"after_iteration", h.after_iteration}});
  }
  out << "],\"setup_references\":" << r.setup_references << ",\"run_values\":" << values_json(r.run_values) << ",\"notes\":" << strings_json(r.notes)
      << ",\"error\":" << quote(r.error) << "}";
  return out.str();
}

}  // namespace perfbench
