// Shared setup for the bench binaries: flag parsing and Study construction.
//
// Every bench accepts the study and campaign flags bound by
// study_options_from_flags (core/study.h) and shares the on-disk
// measurement cache, so the expensive measurement pass runs once for the
// whole bench suite.
#pragma once

#include <iostream>

#include "core/study.h"
#include "util/cli.h"

namespace mlaas {

inline StudyOptions study_options_from_cli(int argc, const char* const* argv) {
  return study_options_from_flags(CliFlags(argc, argv));
}

inline void print_bench_header(const std::string& title, const StudyOptions& opt) {
  const CampaignOptions& c = opt.campaign;
  std::cout << "==== " << title << " ====\n"
            << "seed=" << opt.seed << " scale=" << opt.scale
            << (opt.quick ? " (quick mode)" : "");
  if (c.fault_rate > 0.0 || c.quota_profile != "default") {
    std::cout << " fault-rate=" << c.fault_rate << " quota-profile=" << c.quota_profile
              << " retry-budget=" << c.retry_budget;
  }
  if (c.chaos_profile != "none") std::cout << " chaos-profile=" << c.chaos_profile;
  if (c.breaker.enabled) {
    std::cout << " breakers=on(" << c.breaker.failure_threshold << "/"
              << c.breaker.cooldown_seconds << "s/" << c.breaker.max_probes << ")";
  }
  std::cout << "\n\n";
}

}  // namespace mlaas
