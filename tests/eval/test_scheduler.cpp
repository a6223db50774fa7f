// The session-level campaign scheduler: the measurement table and the
// write-ahead journal must be byte-identical for every thread count (each a
// different steal schedule) and under chaos + breakers — the scheduler moves
// work between workers, never results.  Train-CPU seconds are the one
// run-to-run nondeterministic column and are masked before comparing.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "data/generators.h"
#include "eval/journal.h"
#include "eval/measurement.h"
#include "ml/classifier.h"
#include "ml/tree/trainer.h"

namespace mlaas {
namespace {

MeasurementOptions fast_options() {
  MeasurementOptions opt;
  opt.seed = 1234;
  opt.max_para_configs = 4;
  opt.joint_sample = 5;
  opt.verbose = false;
  return opt;
}

// Skewed on purpose: the large dataset is where thread counts change the
// steal schedule most.
std::vector<Dataset> skewed_corpus() {
  std::vector<Dataset> corpus;
  corpus.push_back(make_blobs(60, 3, 1.0, 5.0, 1));
  corpus.back().meta().id = "blob-0";
  corpus.push_back(make_circles(60, 0.08, 0.5, 2));
  corpus.back().meta().id = "circle-0";
  corpus.push_back(make_moons(240, 0.1, 3));
  corpus.back().meta().id = "moons-big";
  return corpus;
}

std::vector<PlatformPtr> small_roster() {
  std::vector<PlatformPtr> platforms;
  platforms.push_back(make_platform("Google"));
  platforms.push_back(make_platform("Amazon"));
  return platforms;
}

// The campaign table with the real-CPU-time columns zeroed, one row per line.
std::string masked_table(const MeasurementTable& table) {
  std::ostringstream out;
  for (const auto& row : table.rows()) {
    Measurement copy = row;
    copy.train_seconds = 0.0;
    copy.predict_seconds = 0.0;
    out << measurement_row_to_tsv(copy) << '\n';
  }
  return out.str();
}

// Journal bytes with the sec/psec fields of each row line masked.  Marker and
// header lines pass through untouched.
std::string masked_journal(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "journal missing: " << path;
  std::ostringstream out;
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("#", 0) == 0 || line.rfind("=", 0) == 0) {
      out << line << '\n';
      continue;
    }
    std::vector<std::string> fields;
    std::size_t start = 0;
    while (true) {
      const std::size_t tab = line.find('\t', start);
      if (tab == std::string::npos) {
        fields.push_back(line.substr(start));
        break;
      }
      fields.push_back(line.substr(start, tab - start));
      start = tab + 1;
    }
    EXPECT_EQ(fields.size(), 14u) << "unexpected journal row: " << line;
    if (fields.size() == 14) {
      fields[10] = "X";  // sec column
      fields[11] = "X";  // psec column
    }
    for (std::size_t i = 0; i < fields.size(); ++i) {
      out << (i > 0 ? "\t" : "") << fields[i];
    }
    out << '\n';
  }
  return out.str();
}

struct RunArtifacts {
  std::string table;
  std::string journal;
  SchedulerStats scheduler;
};

RunArtifacts run_once(const MeasurementOptions& base, int threads) {
  // The journal path embeds the running test's name: several tests in this
  // file call run_once with the same thread count, and ctest runs
  // them as concurrent processes sharing TempDir — a fixed name lets one
  // test std::remove the journal another is about to read.
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  const std::string path = ::testing::TempDir() + "/scheduler_det_" +
                           (info ? info->name() : "unknown") + "_t" +
                           std::to_string(threads) + ".journal";
  std::remove(path.c_str());
  MeasurementOptions opt = base;
  opt.threads = threads;
  opt.campaign.journal_path = path;
  const CampaignResult result = run_campaign(skewed_corpus(), small_roster(), opt);
  RunArtifacts artifacts{masked_table(result.table), masked_journal(path),
                         result.report.scheduler};
  std::remove(path.c_str());
  return artifacts;
}

void expect_identical_across_threads(const MeasurementOptions& base) {
  const RunArtifacts reference = run_once(base, 1);
  ASSERT_FALSE(reference.table.empty());
  ASSERT_FALSE(reference.journal.empty());
  for (const int threads : {2, 4, 16}) {
    const RunArtifacts run = run_once(base, threads);
    EXPECT_EQ(run.table, reference.table) << "table differs at threads=" << threads;
    EXPECT_EQ(run.journal, reference.journal) << "journal differs at threads=" << threads;
  }
}

TEST(CampaignScheduler, TableAndJournalBytesInvariantAcrossThreadsAndSchedules) {
  expect_identical_across_threads(fast_options());
}

TEST(CampaignScheduler, TableAndJournalBytesInvariantAcrossTreeBuilders) {
  // The presort training kernel must be invisible at campaign level: a run
  // with the fast builder produces the same masked table and journal bytes
  // as a run through ReferenceTreeBuilder (the pre-kernel per-node-sort
  // path every earlier campaign used).
  const MeasurementOptions opt = fast_options();
  set_active_tree_builder(TreeBuilder::kReference);
  const RunArtifacts reference = run_once(opt, 2);
  set_active_tree_builder(TreeBuilder::kFast);
  ASSERT_FALSE(reference.table.empty());
  const RunArtifacts fast = run_once(opt, 2);
  EXPECT_EQ(fast.table, reference.table);
  EXPECT_EQ(fast.journal, reference.journal);
}

TEST(CampaignScheduler, TableAndJournalBytesInvariantAcrossTrainStateReuse) {
  // The session-scoped TrainContext (shared tree presorts + kNN norms
  // across a session's cells) must be invisible at campaign level: with
  // reuse disabled every fit rebuilds its state from scratch, and the
  // masked table and journal bytes must not move.
  MeasurementOptions fresh = fast_options();
  fresh.reuse_train_state = false;
  const RunArtifacts reference = run_once(fresh, 2);
  ASSERT_FALSE(reference.table.empty());
  MeasurementOptions reused = fast_options();
  reused.reuse_train_state = true;
  const RunArtifacts run = run_once(reused, 2);
  EXPECT_EQ(run.table, reference.table);
  EXPECT_EQ(run.journal, reference.journal);
}

TEST(CampaignScheduler, TableAndJournalBytesInvariantAcrossPredictKernels) {
  // The flat prediction kernels must be invisible at campaign level: a run
  // under PredictKernel::kReference (the pre-kernel per-row walks) produces
  // the same masked table and journal bytes as the flat default.
  const MeasurementOptions opt = fast_options();
  set_active_predict_kernel(PredictKernel::kReference);
  const RunArtifacts reference = run_once(opt, 2);
  set_active_predict_kernel(PredictKernel::kFlat);
  ASSERT_FALSE(reference.table.empty());
  const RunArtifacts flat = run_once(opt, 2);
  EXPECT_EQ(flat.table, reference.table);
  EXPECT_EQ(flat.journal, reference.journal);
}

TEST(CampaignScheduler, InvariantUnderFaultsChaosAndBreakers) {
  MeasurementOptions opt = fast_options();
  opt.campaign.fault_rate = 0.2;
  opt.campaign.retry_budget = 2;
  opt.campaign.chaos_profile = "storm";
  opt.campaign.breaker.enabled = true;
  expect_identical_across_threads(opt);
}

TEST(CampaignScheduler, ReportsSchedulerTelemetry) {
  MeasurementOptions opt = fast_options();
  opt.threads = 2;
  const CampaignResult result = run_campaign(skewed_corpus(), small_roster(), opt);
  const SchedulerStats& s = result.report.scheduler;
  EXPECT_EQ(s.schedule, "dynamic");
  EXPECT_EQ(s.workers, 2u);
  EXPECT_EQ(s.sessions, skewed_corpus().size() * small_roster().size());
  EXPECT_EQ(s.worker_busy_seconds.size(), s.workers);
  EXPECT_GE(s.makespan_seconds, 0.0);
  EXPECT_GE(s.imbalance(), 1.0);
  EXPECT_GE(s.busy_seconds(), 0.0);
}

TEST(CampaignScheduler, NegativeThreadCountIsRejected) {
  MeasurementOptions opt = fast_options();
  opt.threads = -1;
  EXPECT_THROW(run_campaign(skewed_corpus(), small_roster(), opt),
               std::invalid_argument);
}

// Embedders that bypass the flag binder get the same range checks from
// run_campaign itself, before any session runs.
void expect_campaign_rejects(const MeasurementOptions& opt, const std::string& flag) {
  try {
    run_campaign(skewed_corpus(), small_roster(), opt);
    FAIL() << "expected std::invalid_argument naming " << flag;
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(flag), std::string::npos) << e.what();
  }
}

TEST(CampaignScheduler, FaultRateAboveOneIsRejected) {
  MeasurementOptions opt = fast_options();
  opt.campaign.fault_rate = 1.5;
  expect_campaign_rejects(opt, "--fault-rate");
}

TEST(CampaignScheduler, ZeroRetryBudgetIsRejected) {
  MeasurementOptions opt = fast_options();
  opt.campaign.retry_budget = 0;
  expect_campaign_rejects(opt, "--retry-budget");
}

TEST(CampaignScheduler, NanBreakerCooldownIsRejected) {
  MeasurementOptions opt = fast_options();
  opt.campaign.breaker.cooldown_seconds = std::numeric_limits<double>::quiet_NaN();
  expect_campaign_rejects(opt, "--breaker-cooldown");
}

}  // namespace
}  // namespace mlaas
