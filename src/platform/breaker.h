// Shared circuit breaker for the campaign driver and the serving router.
//
// Lifted out of eval/measurement.h (where it guarded campaign cells) so the
// query-serving path can run one breaker per (platform, router) and
// health-gate dispatch: an open breaker steers batches down the degradation
// ladder instead of hammering a platform that is failing hard.  The campaign
// keeps its original semantics — it *sleeps out* the cooldown before a
// half-open probe — while the serving path must never sleep on a request's
// deadline budget, which is why admit() distinguishes an open breaker whose
// cooldown is still running (kWait) from one that is ready to probe (kProbe).
#pragma once

#include <cstddef>
#include <functional>
#include <utility>

namespace mlaas {

/// Per-session / per-platform circuit breaker options.  After
/// `failure_threshold` consecutive failures the breaker opens; once the
/// cooldown has passed the next call is admitted as a half-open probe.  A
/// successful probe closes the breaker; after `max_probes` failed probes it
/// latches open and every remaining call is deferred — reproducing the
/// paper's forced exclusion of rate-limited providers as an emergent
/// behaviour (§8).
struct BreakerOptions {
  bool enabled = false;
  int failure_threshold = 3;      // consecutive failures before opening
  double cooldown_seconds = 300;  // simulated cooldown before a half-open probe
  int max_probes = 2;             // failed probes before latching open
};

/// Range checks shared by the campaign and serving validators: threshold
/// >= 1, a finite cooldown >= 0 and probes >= 0.  Throws
/// std::invalid_argument naming the flag.  `enabled` is not consulted; each
/// caller decides whether disabled knobs are checked.
void validate(const BreakerOptions& options);

class CircuitBreaker {
 public:
  enum class Decision {
    kProceed,  // closed: dispatch normally
    kWait,     // open, cooldown still running: sleep it out (campaign) or
               // fail over without waiting (serving)
    kProbe,    // open, cooldown expired: dispatch as the half-open probe
    kDefer,    // latched open: skip without issuing any requests
  };

  explicit CircuitBreaker(BreakerOptions options) : options_(options) {}

  /// Time-aware admission: `now` decides whether an open breaker's cooldown
  /// has expired (kProbe) or is still running (kWait).
  Decision admit(double now) const;
  /// Simulated seconds until the cooldown expires (0 when closed or expired).
  double probe_wait_seconds(double now) const;
  /// `now` only feeds the transition listener's timestamp; pass the
  /// simulated clock when one is installed.
  void record_success(double now = 0.0);
  void record_failure(double now);

  /// Observes state transitions: called with "open" (threshold reached),
  /// "reopen" (failed half-open probe), "latch" (probe budget exhausted) or
  /// "close" (successful probe) plus the simulated transition time.
  using TransitionListener = std::function<void(const char* transition, double now)>;
  void set_listener(TransitionListener listener) { listener_ = std::move(listener); }

  bool open() const { return open_; }
  std::size_t trips() const { return trips_; }

 private:
  void notify(const char* transition, double now) {
    if (listener_) listener_(transition, now);
  }

  BreakerOptions options_;
  TransitionListener listener_;
  bool open_ = false;
  double opened_at_ = 0.0;
  int consecutive_failures_ = 0;
  int probes_used_ = 0;
  std::size_t trips_ = 0;
};

}  // namespace mlaas
