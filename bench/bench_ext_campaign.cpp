// Extension: the measurement campaign as an operational system.
//
// The paper's experiments ran from October 2016 to February 2017 (§3.2)
// against rate-limited web APIs that threw transient errors and enforced
// quotas.  Since the campaign runner goes through the simulated service
// layer, this bench reports the campaign the way an SRE would: per-platform
// request/retry/rate-limit telemetry, simulated campaign wall-clock, cell
// coverage, and how injected fault rates degrade corpus coverage even with
// exponential-backoff retries.
//
// Takes the common flags (study_options_from_flags), including the campaign
// envelope: --fault-rate F, --quota-profile
// {default,strict,free-tier,unlimited}, --retry-budget K.  The final section
// sweeps a skewed corpus over thread counts to show how the session
// scheduler spreads imbalanced work.
#include <algorithm>
#include <chrono>
#include <iostream>
#include <sstream>

#include "bench_common.h"
#include "data/generators.h"
#include "eval/measurement.h"
#include "platform/service.h"
#include "util/rng.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace mlaas;
  const StudyOptions opt = study_options_from_cli(argc, argv);
  print_bench_header("Extension: service-backed measurement campaign", opt);
  Study study(opt);
  const MeasurementOptions mopt = opt.measurement_options();

  // ---- Main campaign: the study corpus through the service layer. ----
  const CampaignResult result = run_campaign(study.corpus(), study.platforms(), mopt);

  TextTable t({"Platform", "Cells ok/failed", "Requests", "Retries", "Rate-limited",
               "Faults", "Backoff", "Simulated", "Train"});
  for (const auto& p : result.report.platforms) {
    t.add_row({p.platform,
               std::to_string(p.cells_ok) + "/" + std::to_string(p.cells_failed),
               std::to_string(p.service.requests), std::to_string(p.retries),
               std::to_string(p.service.rate_limited),
               std::to_string(p.service.transient_errors),
               fmt(p.backoff_seconds / 3600.0, 2) + " h",
               fmt(p.simulated_seconds / 86400.0, 2) + " days",
               fmt(p.service.train_cpu_seconds, 1) + " s"});
  }
  const PlatformCampaignStats total = result.report.totals();
  std::cout << t.str() << "\nCampaign: " << total.cells_ok << " cells measured, "
            << total.cells_failed << " failed, " << total.cells_rejected
            << " rejected (coverage " << fmt(100.0 * result.report.coverage(), 1)
            << "%).\nSequential simulated duration: "
            << fmt(total.simulated_seconds / 86400.0, 1) << " days at --scale "
            << opt.scale
            << " — at the paper's full grids the estimate reaches months,"
               " consistent\nwith the October-February campaign (§3.2).\n";
  for (const auto& p : result.report.platforms) {
    for (const auto& [status, count] : p.failures_by_status) {
      std::cout << "  " << p.platform << ": " << count << " x " << status << "\n";
    }
  }

  // ---- Fault-rate sweep: how failures eat corpus coverage (§8). ----
  const std::size_t sweep_n = std::min<std::size_t>(study.corpus().size(), 8);
  const std::vector<Dataset> sweep_corpus(study.corpus().begin(),
                                          study.corpus().begin() + sweep_n);
  std::cout << "\nFault-rate sweep (" << sweep_n << " datasets, retry budget "
            << mopt.campaign.retry_budget << "):\n";
  TextTable sweep({"Fault rate", "Cells ok", "Cells failed", "Coverage", "Retries"});
  for (const double rate : {0.0, 0.05, 0.1, 0.2, 0.4}) {
    MeasurementOptions sopt = mopt;
    sopt.verbose = false;
    sopt.campaign.fault_rate = rate;
    const CampaignResult swept = run_campaign(sweep_corpus, study.platforms(), sopt);
    const PlatformCampaignStats st = swept.report.totals();
    sweep.add_row({fmt(rate, 2), std::to_string(st.cells_ok),
                   std::to_string(st.cells_failed),
                   fmt(100.0 * swept.report.coverage(), 1) + "%",
                   std::to_string(st.retries)});
  }
  std::cout << sweep.str()
            << "\nFailed cells are recorded as structured failure rows and excluded"
               " from aggregation,\nthe way the paper excluded providers whose rate"
               " limits made measurement impractical (§8).\n";

  // ---- Chaos + breakers: a hostile campaign month, survived. ----
  // Seeded outage windows, fault bursts and latency spikes hit every
  // platform on its own schedule; per-platform circuit breakers defer
  // cells instead of burning the retry budget against a dead endpoint.
  std::cout << "\nChaos schedule (--chaos-profile storm, breakers on):\n";
  MeasurementOptions copt = mopt;
  copt.verbose = false;
  copt.campaign.chaos_profile = "storm";
  copt.campaign.fault_rate = std::max(copt.campaign.fault_rate, 0.05);
  copt.campaign.breaker.enabled = true;
  const CampaignResult chaotic = run_campaign(sweep_corpus, study.platforms(), copt);
  TextTable chaos({"Platform", "Ok", "Failed", "Deferred", "Outages hit", "Breaker trips",
                   "Outage time", "Simulated"});
  for (const auto& p : chaotic.report.platforms) {
    chaos.add_row({p.platform, std::to_string(p.cells_ok), std::to_string(p.cells_failed),
                   std::to_string(p.cells_deferred), std::to_string(p.service.unavailable),
                   std::to_string(p.breaker_trips), fmt(p.outage_seconds / 3600.0, 2) + " h",
                   fmt(p.simulated_seconds / 86400.0, 2) + " days"});
  }
  const PlatformCampaignStats ct = chaotic.report.totals();
  std::cout << chaos.str() << "\nUnder the storm schedule the campaign still measured "
            << ct.cells_ok << " cells (coverage " << fmt(100.0 * chaotic.report.coverage(), 1)
            << "%); " << ct.cells_deferred
            << " cells were deferred by open breakers instead of failing slowly.\n";

  // ---- Scheduler sweep: session dispatch on a skewed corpus. ----
  // Real corpora are skewed: the paper's datasets span two orders of
  // magnitude in size (§3.1).  The scheduler dispatches (dataset, platform)
  // sessions longest-estimated-first, so one big dataset's platform sweep
  // spreads across the pool instead of serializing on one worker.
  std::cout << "\nScheduler sweep (7 small + 1 large dataset):\n";
  std::vector<Dataset> skewed;
  for (std::size_t i = 0; i < 7; ++i) {
    skewed.push_back(make_blobs(150, 8, 2.0, 10.0,
                                derive_seed(opt.seed, "sched-small-" + std::to_string(i))));
    skewed.back().meta().id = "sched-small-" + std::to_string(i);
  }
  skewed.push_back(make_classification({/*n_samples=*/1200, /*n_features=*/24},
                                       derive_seed(opt.seed, "sched-large")));
  skewed.back().meta().id = "sched-large";

  TextTable sched({"Threads", "Wall", "Speedup", "Imbalance", "Stolen"});
  std::string reference_table;  // masked TSV of the first run: all must match
  bool tables_identical = true;
  double serial_wall = 0.0;
  for (const int threads : {1, 2, 4, 8}) {
    MeasurementOptions sw = mopt;
    sw.verbose = false;
    sw.threads = threads;
    const auto t0 = std::chrono::steady_clock::now();
    const CampaignResult r = run_campaign(skewed, study.platforms(), sw);
    const double secs =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    if (threads == 1) serial_wall = secs;
    // The scheduler must never change results: compare the table with the
    // run-dependent train/predict CPU columns masked out.
    std::ostringstream masked;
    for (const auto& m : r.table.rows()) {
      Measurement copy = m;
      copy.train_seconds = 0.0;
      copy.predict_seconds = 0.0;
      masked << measurement_row_to_tsv(copy) << '\n';
    }
    if (reference_table.empty()) {
      reference_table = masked.str();
    } else if (masked.str() != reference_table) {
      tables_identical = false;
    }
    sched.add_row({std::to_string(threads), fmt(secs, 2) + " s",
                   fmt(serial_wall / std::max(secs, 1e-9), 2) + "x",
                   fmt(r.report.scheduler.imbalance(), 2),
                   std::to_string(r.report.scheduler.sessions_stolen)});
  }
  std::cout << sched.str() << "\nMeasurement tables across all "
            << (tables_identical ? "4 runs are byte-identical" : "runs DIFFER (BUG)")
            << " (CPU-time columns masked); the scheduler only moves work, never"
               " results.\nWall speedup is bounded by the machine's core count;"
               " imbalance (max/mean worker busy\ntime) is the portable signal.\n";
  return 0;
}
