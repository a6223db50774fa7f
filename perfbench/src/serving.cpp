// `serving`: the QueryRouter on its simulated clock.  An open loop of
// Poisson arrivals (drawn from the run's seed) from 12 Zipf-weighted tenants
// over all 7 platforms, with a model-cache capacity below the tenant count
// so the LRU evicts and re-trains.  After the timed loop, a fixed ladder of arrival rates finds
// the highest rate whose simulated p99 meets the limit without a growing
// backlog, and (traced runs) Platform::train / predict are timed outside the
// router on the same tenant specs to split router wall time.
#include <algorithm>
#include <cmath>
#include <sstream>

#include "platform/serving.h"
#include "workloads.h"

namespace perfbench {

using namespace mlaas;

namespace {

constexpr std::size_t kTenants = 12;
/// The deployed tenants (their training sets and train seeds) are fixed, as
/// a serving system's models are; the run's seed draws the traffic.  One
/// data-dependent slow tenant would otherwise swing the run's wall time.
constexpr std::uint64_t kTenantSeed = 42;
constexpr std::size_t kCacheCapacity = 4;
constexpr double kRate = 2.0;                // arrivals per simulated second
constexpr std::size_t kRequests = 20000;     // per timed iteration
constexpr double kLadder[] = {0.5, 1.0, 2.0, 3.0, 5.0, 8.0};
constexpr std::size_t kLadderRequests = 10000;
constexpr double kP99LimitSeconds = 120.0;   // simulated
/// The backlog grows when the run ends this far past its last scheduled
/// arrival (a share of the arrival span, plus the latency limit).
constexpr double kBacklogShare = 0.05;

ServingWorkloadOptions workload_options(std::uint64_t seed, double rate, std::size_t requests) {
  ServingWorkloadOptions o;
  o.seed = seed;
  o.requests = requests;
  o.arrival_rate = rate;
  o.serving.model_cache_capacity = kCacheCapacity;
  return o;
}

std::string report_bytes(const ServingReport& report) {
  std::ostringstream out;
  report.write_tsv(out);
  return out.str();
}

/// Requests that did not get labels within budget.
std::size_t not_served(const ServingStats& s) {
  return s.failed + s.rejected + s.deadline_missed + s.degraded_rejected;
}

/// Simulated seconds the run ended past its expected last arrival.
double backlog_seconds(const ServingStats& s, double rate, std::size_t requests) {
  return s.simulated_seconds - static_cast<double>(requests) / rate;
}

bool backlog_grows(const ServingStats& s, double rate, std::size_t requests) {
  const double span = static_cast<double>(requests) / rate;
  return backlog_seconds(s, rate, requests) > kBacklogShare * span + kP99LimitSeconds;
}

}  // namespace

void run_serving_workload_bench(Context& ctx) {
  std::ostringstream config;
  config << "serving tenants=" << kTenants << " tenant_seed=" << kTenantSeed
         << " capacity=" << kCacheCapacity << " rate=" << kRate << " requests=" << kRequests
         << " ladder_requests=" << kLadderRequests << " p99_limit_s=" << kP99LimitSeconds;
  ctx.info.config = config.str();

  // Building the tenants takes well under a millisecond, so each set-up
  // sample is the mean of a batch of builds, steadier than a single call.
  constexpr int kBuildsPerSample = 25;
  std::vector<ServingTenantSpec> tenants;
  for (int k = 0; k < ctx.setups; ++k) {
    ctx.record.references.push_back(sample_host_reference());  // untimed
    const double t0 = wall_now();
    for (int b = 0; b < kBuildsPerSample; ++b) {
      SpanRecorder::Scope span(&ctx.spans, "platform.make_serving_tenants", "platform");
      tenants = make_serving_tenants(kTenants, platform_names(), kTenantSeed);
    }
    ctx.record.setup_s.push_back((wall_now() - t0) / kBuildsPerSample);
  }
  ctx.info.shape["tenants"] = std::to_string(tenants.size());
  ctx.info.shape["platforms"] = std::to_string(platform_names().size());
  ctx.info.shape["tenant_train_rows"] = std::to_string(tenants.front().train.n_samples());
  ctx.info.shape["tenant_features"] = std::to_string(tenants.front().train.n_features());

  const ServingWorkloadOptions options = workload_options(ctx.info.seed, kRate, kRequests);
  ServingReport last;
  measure(ctx, [&](int, Values& v) {
    ServingWorkloadResult r;
    const Stopwatch watch;
    {
      SpanRecorder::Scope span(&ctx.spans, "platform.run_serving_workload", "platform");
      r = run_serving_workload(tenants, options);
    }
    watch.stop(v);
    const ServingStats& s = r.report.totals;
    v["requests"] = static_cast<double>(s.requests);
    v["not_served"] = static_cast<double>(not_served(s));
    v["platform.serving.batches"] = static_cast<double>(s.batches);
    v["platform.serving.batched_rows"] = static_cast<double>(s.batched_rows);
    v["platform.serving.batch_occupancy"] = s.batch_occupancy(options.serving.max_batch_rows);
    v["platform.serving.cache_hits"] = static_cast<double>(s.cache_hits);
    v["platform.serving.cache_misses"] = static_cast<double>(s.cache_misses);
    v["platform.serving.trainings"] = static_cast<double>(s.trainings);
    v["platform.serving.evictions"] = static_cast<double>(s.cache_evictions);
    v["platform.serving.retries"] = static_cast<double>(s.retries);
    v["sim_p50_ms"] = 1e3 * s.latency.quantile(0.50);
    v["sim_p99_ms"] = 1e3 * s.latency.quantile(0.99);
    v["sim_latency_samples"] = static_cast<double>(s.latency.count());
    v["sim_backlog_s"] = backlog_seconds(s, kRate, kRequests);
    last = r.report;
    return hex64(fnv1a(report_bytes(r.report)));
  });

  // Rate ladder (simulated time; deterministic in the seed).  Its reports
  // are part of the workload's outputs, so they join the digest.
  std::uint64_t ladder_digest = fnv1a("serving-ladder-v1\n");
  double max_rate = 0.0;
  for (const double rate : kLadder) {
    const ServingWorkloadResult r =
        run_serving_workload(tenants, workload_options(ctx.info.seed, rate, kLadderRequests));
    const ServingStats& s = r.report.totals;
    const double p99 = s.latency.quantile(0.99);
    const bool meets = not_served(s) == 0 && p99 <= kP99LimitSeconds &&
                       !backlog_grows(s, rate, kLadderRequests);
    std::ostringstream key;
    key << "ladder." << rate;
    ctx.record.run_values[key.str() + ".sim_p99_ms"] = 1e3 * p99;
    ctx.record.run_values[key.str() + ".sim_backlog_s"] =
        backlog_seconds(s, rate, kLadderRequests);
    ctx.record.run_values[key.str() + ".meets"] = meets ? 1.0 : 0.0;
    if (meets) max_rate = std::max(max_rate, rate);
    ladder_digest = fnv1a(report_bytes(r.report), ladder_digest);
  }
  ctx.record.run_values["sim_max_rate_rps"] = max_rate;
  ctx.record.notes["ladder_digest"] = hex64(ladder_digest);

  if (!ctx.info.trace) return;
  // Decomposition outside the router: the same tenant specs trained and
  // scored directly, at the router's mean batch size.
  ctx.spans.set_enabled(true);
  ctx.spans.set_iteration(kDecompositionSpans);
  const std::size_t batch = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::lround(last.totals.mean_batch_rows())));
  std::vector<double> train_ms, predict_us;
  for (const ServingTenantSpec& t : tenants) {
    const PlatformPtr platform = make_platform(t.platform);
    std::vector<double> trains;
    TrainedModelPtr model;
    for (int rep = 0; rep < 3; ++rep) {
      const double t0 = wall_now();
      SpanRecorder::Scope span(&ctx.spans, "platform.train", "platform");
      model = platform->train(t.train, t.config, t.train_seed);
      trains.push_back(1e3 * (wall_now() - t0));
    }
    train_ms.push_back(median(trains));

    Matrix q(batch, t.train.x().cols());
    for (std::size_t r = 0; r < batch; ++r) {
      const auto src = t.train.x().row(r % t.train.x().rows());
      std::copy(src.begin(), src.end(), q.row(r).begin());
    }
    std::size_t rows = 0;
    const double t0 = wall_now();
    {
      SpanRecorder::Scope span(&ctx.spans, "ml.predict", "ml");
      while (rows < 4096 || wall_now() - t0 < 0.02) rows += model->predict(q).size();
    }
    predict_us.push_back(1e6 * (wall_now() - t0) / static_cast<double>(rows));
  }
  double train_mean = 0.0, predict_mean = 0.0;
  for (const double x : train_ms) train_mean += x / static_cast<double>(train_ms.size());
  for (const double x : predict_us) predict_mean += x / static_cast<double>(predict_us.size());
  ctx.spans.set_enabled(false);
  ctx.spans.set_iteration(kSetupSpans);
  ctx.record.run_values["platform.train_ms"] = train_mean;
  ctx.record.run_values["ml.predict_us_per_row"] = predict_mean;
}

}  // namespace perfbench
