#include "platform/breaker.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

namespace mlaas {

void validate(const BreakerOptions& options) {
  if (options.failure_threshold < 1) {
    throw std::invalid_argument("--breaker-threshold must be >= 1, got " +
                                std::to_string(options.failure_threshold));
  }
  if (!(options.cooldown_seconds >= 0.0) || !std::isfinite(options.cooldown_seconds)) {
    throw std::invalid_argument("--breaker-cooldown must be a finite value >= 0");
  }
  if (options.max_probes < 0) {
    throw std::invalid_argument("--breaker-probes must be >= 0, got " +
                                std::to_string(options.max_probes));
  }
}

CircuitBreaker::Decision CircuitBreaker::admit(double now) const {
  if (!options_.enabled || !open_) return Decision::kProceed;
  if (probes_used_ >= options_.max_probes) return Decision::kDefer;
  return now >= opened_at_ + options_.cooldown_seconds ? Decision::kProbe
                                                       : Decision::kWait;
}

double CircuitBreaker::probe_wait_seconds(double now) const {
  return std::max(0.0, opened_at_ + options_.cooldown_seconds - now);
}

void CircuitBreaker::record_success(double now) {
  consecutive_failures_ = 0;
  if (open_) {
    open_ = false;
    probes_used_ = 0;
    notify("close", now);
  }
}

void CircuitBreaker::record_failure(double now) {
  if (!options_.enabled) return;
  if (open_) {
    // A failed half-open probe re-trips the breaker and restarts the
    // cooldown from the probe's failure time.
    ++probes_used_;
    opened_at_ = now;
    ++trips_;
    notify(probes_used_ >= options_.max_probes ? "latch" : "reopen", now);
    return;
  }
  ++consecutive_failures_;
  if (consecutive_failures_ >= options_.failure_threshold) {
    open_ = true;
    opened_at_ = now;
    ++trips_;
    notify("open", now);
  }
}

}  // namespace mlaas
