// End-to-end integration of the Study API on a tiny quick-mode corpus.
// This exercises the full pipeline: corpus -> platforms -> measurements ->
// every experiment aggregation.
#include "core/study.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <string>

namespace mlaas {
namespace {

StudyOptions tiny_options(const std::string& tag) {
  StudyOptions opt;
  opt.seed = 7;
  opt.quick = true;
  opt.verbose = false;
  opt.threads = 2;
  opt.cache_path_override = ::testing::TempDir() + "/study_cache_" + tag + ".tsv";
  return opt;
}

void remove_cache_files(const StudyOptions& opt) {
  for (const char* suffix : {"", ".campaign.tsv", ".campaign.json", ".journal"}) {
    std::remove((opt.cache_path() + suffix).c_str());
  }
}

/// A Study over a fresh campaign.  Its cache, report sidecars and journal
/// are removed before it is built and when the process exits: the cache
/// fingerprint covers options, not code, so a cache kept across test runs
/// would let a change that alters measurement rows pass against old rows.
/// The path carries the process id because ctest runs each test in its own
/// process, several at once.
struct FreshStudy {
  explicit FreshStudy(const StudyOptions& opt)
      : options((remove_cache_files(opt), opt)), study(options) {}
  ~FreshStudy() { remove_cache_files(options); }

  StudyOptions options;
  Study study;
};

class StudyIntegration : public ::testing::Test {
 protected:
  // Built once per process; every test in the process reads the same Study.
  static Study& study() {
    static FreshStudy fresh(tiny_options("shared_" + std::to_string(::getpid())));
    return fresh.study;
  }
};

TEST_F(StudyIntegration, CorpusAndPlatformsBuilt) {
  EXPECT_EQ(study().corpus().size(), 24u);
  EXPECT_EQ(study().platforms().size(), 7u);
  EXPECT_EQ(study().platform_order().size(), 7u);
}

TEST_F(StudyIntegration, MeasurementsCoverEverything) {
  const auto& table = study().measurements();
  EXPECT_EQ(table.platforms().size(), 7u);
  EXPECT_EQ(table.dataset_ids().size(), 24u);
  EXPECT_GT(table.size(), 24u * 7u);
}

TEST_F(StudyIntegration, BaselineAndOptimizedSummaries) {
  const auto base = study().baseline();
  const auto opt = study().optimized();
  EXPECT_EQ(base.size(), 7u);
  EXPECT_EQ(opt.size(), 7u);
  // Optimized >= baseline for every platform.
  for (const auto& o : opt) {
    for (const auto& b : base) {
      if (o.platform == b.platform) {
        EXPECT_GE(o.avg.f_score, b.avg.f_score - 1e-9) << o.platform;
      }
    }
  }
}

TEST_F(StudyIntegration, HighComplexityPlatformsWinOptimized) {
  // The paper's core finding (Fig 4): Microsoft/Local dominate the
  // optimized comparison; black boxes sit at the bottom.
  const auto opt = study().optimized();
  double local_f = 0, microsoft_f = 0, google_f = 0, abm_f = 0;
  for (const auto& s : opt) {
    if (s.platform == "Local") local_f = s.avg.f_score;
    if (s.platform == "Microsoft") microsoft_f = s.avg.f_score;
    if (s.platform == "Google") google_f = s.avg.f_score;
    if (s.platform == "ABM") abm_f = s.avg.f_score;
  }
  EXPECT_GT(local_f, google_f);
  EXPECT_GT(local_f, abm_f);
  EXPECT_GT(microsoft_f, google_f);
}

TEST_F(StudyIntegration, ControlImprovementsNonNegativeAndClfLargest) {
  const auto improvements = study().control_improvements_fig5();
  EXPECT_EQ(improvements.size(), 15u);  // 5 platforms x 3 dimensions
  double clf_total = 0, feat_total = 0, para_total = 0;
  for (const auto& ci : improvements) {
    if (!ci.supported) continue;
    EXPECT_GE(ci.relative_improvement, -1e-9);
    if (ci.dimension == ControlDimension::kClf) clf_total += ci.relative_improvement;
    if (ci.dimension == ControlDimension::kFeat) feat_total += ci.relative_improvement;
    if (ci.dimension == ControlDimension::kPara) para_total += ci.relative_improvement;
  }
  EXPECT_GT(clf_total, para_total);  // §4.2 headline
}

TEST_F(StudyIntegration, VariationSummaries) {
  const auto fig6 = study().variation_fig6();
  EXPECT_EQ(fig6.size(), 7u);
  // Black boxes have a single config -> zero range; Local has the most.
  double google_range = 1, local_range = 0;
  for (const auto& v : fig6) {
    if (v.platform == "Google") google_range = v.range();
    if (v.platform == "Local") local_range = v.range();
  }
  EXPECT_NEAR(google_range, 0.0, 1e-12);
  EXPECT_GT(local_range, 0.02);
}

TEST_F(StudyIntegration, SubsetCurvesMonotone) {
  for (const auto& curve : study().subset_curves()) {
    for (std::size_t i = 1; i < curve.points.size(); ++i) {
      EXPECT_GE(curve.points[i].expected_best_f,
                curve.points[i - 1].expected_best_f - 1e-9)
          << curve.platform;
    }
  }
}

TEST_F(StudyIntegration, Table4SharesSumToOne) {
  for (const bool optimized : {false, true}) {
    const auto shares = study().table4("Local", optimized);
    double total = 0;
    for (const auto& [clf, share] : shares) total += share;
    EXPECT_NEAR(total, 1.0, 1e-9);
  }
}

TEST_F(StudyIntegration, NaiveStrategyRuns) {
  const auto naive = study().naive_strategy();
  EXPECT_EQ(naive.size(), 24u);
  for (const auto& r : naive) {
    EXPECT_GE(r.naive_f, std::max(r.lr_f, r.dt_f) - 1e-12);
  }
}

TEST(StudyOptionsTest, QuickModeShrinksCorpus) {
  StudyOptions opt;
  opt.quick = true;
  EXPECT_EQ(opt.corpus_options().n_datasets, 24u);
  EXPECT_LT(opt.corpus_options().max_samples, 1000u);
  EXPECT_NE(opt.cache_path().find("quick_"), std::string::npos);
}

TEST(StudyOptionsTest, CachePathEncodesSeedAndScale) {
  StudyOptions opt;
  opt.seed = 9;
  opt.scale = 2.0;
  EXPECT_NE(opt.cache_path().find("seed9"), std::string::npos);
  EXPECT_NE(opt.cache_path().find("scale2"), std::string::npos);
}

}  // namespace
}  // namespace mlaas
