#include "core/study.h"

#include <cstdlib>

#include "data/generators.h"
#include "util/cli.h"
#include "util/rng.h"

namespace mlaas {

CorpusOptions StudyOptions::corpus_options() const {
  CorpusOptions c;
  c.seed = seed;
  c.scale = scale;
  if (quick) {
    c.n_datasets = 24;
    c.max_samples = 300;
    c.max_features = 16;
  }
  return c;
}

MeasurementOptions StudyOptions::measurement_options() const {
  MeasurementOptions m;
  m.seed = seed;
  m.scale = quick ? 0.5 : scale;
  m.threads = threads;
  m.verbose = verbose;
  m.trace = trace;
  m.campaign = campaign;
  return m;
}

StudyOptions study_options_from_flags(const CliFlags& flags) {
  StudyOptions opt;
  CampaignOptions& c = opt.campaign;
  if (const char* env = std::getenv("MLAAS_SEED")) {
    opt.seed = static_cast<std::uint64_t>(parse_int_value("MLAAS_SEED", env));
  }
  if (const char* env = std::getenv("MLAAS_SCALE")) {
    opt.scale = parse_double_value("MLAAS_SCALE", env);
  }
  if (const char* env = std::getenv("MLAAS_FAULT_RATE")) {
    c.fault_rate = parse_double_value("MLAAS_FAULT_RATE", env);
  }
  opt.seed = static_cast<std::uint64_t>(flags.int_or("seed", static_cast<long long>(opt.seed)));
  opt.scale = flags.double_or("scale", opt.scale);
  opt.threads = static_cast<int>(flags.int_or("threads", opt.threads));
  opt.quick = flags.bool_or("quick", opt.quick);
  c.fault_rate = flags.double_or("fault-rate", c.fault_rate);
  c.quota_profile = flags.get_or("quota-profile", c.quota_profile);
  c.retry_budget = static_cast<int>(flags.int_or("retry-budget", c.retry_budget));
  c.chaos_profile = flags.get_or("chaos-profile", c.chaos_profile);
  c.breaker.enabled = flags.bool_or("breakers", c.breaker.enabled);
  c.breaker.failure_threshold =
      static_cast<int>(flags.int_or("breaker-threshold", c.breaker.failure_threshold));
  c.breaker.cooldown_seconds = flags.double_or("breaker-cooldown", c.breaker.cooldown_seconds);
  c.breaker.max_probes = static_cast<int>(flags.int_or("breaker-probes", c.breaker.max_probes));
  c.jitter = flags.bool_or("jitter", c.jitter);
  c.resume = flags.bool_or("resume", c.resume);
  if (flags.bool_or("fresh", false)) c.resume = false;
  // --quick replaces the campaign's grid scale; check --scale as given.
  MeasurementOptions as_given = opt.measurement_options();
  as_given.scale = opt.scale;
  validate(as_given);
  return opt;
}

std::string StudyOptions::cache_path() const {
  if (!cache_path_override.empty()) return cache_path_override;
  return (quick ? "quick_" : "") + default_cache_path(seed, scale);
}

Study::Study(StudyOptions options) : options_(std::move(options)) {}

const std::vector<Dataset>& Study::corpus() {
  if (!corpus_) corpus_ = build_corpus(options_.corpus_options());
  return *corpus_;
}

const std::vector<PlatformPtr>& Study::platforms() {
  if (platforms_.empty()) platforms_ = make_all_platforms();
  return platforms_;
}

std::vector<std::string> Study::platform_order() const { return platform_names(); }

void Study::ensure_measurements() {
  if (measurements_) return;
  const MeasurementTable full =
      run_or_load(corpus(), platforms(), options_.measurement_options(),
                  options_.cache_path(), &campaign_report_);
  measurements_ = full.succeeded();
  measurement_failures_ = full.failures();
}

const MeasurementTable& Study::measurements() {
  ensure_measurements();
  return *measurements_;
}

const MeasurementTable& Study::measurement_failures() {
  ensure_measurements();
  return *measurement_failures_;
}

const CampaignReport& Study::campaign_report() {
  ensure_measurements();
  return campaign_report_;
}

std::vector<PlatformSummary> Study::baseline() { return baseline_summary(measurements()); }

std::vector<PlatformSummary> Study::optimized() { return optimized_summary(measurements()); }

std::vector<ControlImprovement> Study::control_improvements_fig5() {
  // Figure 5 excludes the fully automated platforms.
  return control_improvements(measurements(),
                              {"Amazon", "BigML", "PredictionIO", "Microsoft", "Local"});
}

std::vector<std::pair<std::string, double>> Study::table4(const std::string& platform,
                                                          bool optimized_params) {
  return classifier_win_shares(measurements(), platform, optimized_params);
}

std::vector<VariationSummary> Study::variation_fig6() {
  std::vector<VariationSummary> out;
  for (const auto& p : platform_order()) out.push_back(overall_variation(measurements(), p));
  return out;
}

std::vector<DimensionVariation> Study::variation_fig7() {
  return dimension_variations(measurements(),
                              {"Amazon", "BigML", "PredictionIO", "Microsoft", "Local"});
}

std::vector<SubsetCurve> Study::subset_curves() {
  std::vector<SubsetCurve> out;
  for (const auto& p : {"BigML", "PredictionIO", "Microsoft", "Local"}) {
    out.push_back(classifier_subset_curve(measurements(), p));
  }
  return out;
}

Dataset Study::circle_probe() const {
  return make_circle_probe(derive_seed(options_.seed, "circle"));
}

Dataset Study::linear_probe() const {
  return make_linear_probe(derive_seed(options_.seed, "linear"));
}

BoundaryMap Study::boundary(const std::string& platform, const Dataset& probe) {
  const PlatformPtr p = make_platform(platform);
  return probe_decision_boundary(*p, probe, derive_seed(options_.seed, "boundary-" + platform));
}

FamilyScores Study::family_gap(const Dataset& probe) {
  return family_gap_on_probe(probe, options_.measurement_options());
}

FamilyPredictorReport Study::family_predictors() {
  if (!family_report_) {
    family_report_ =
        train_family_predictors(measurements(), derive_seed(options_.seed, "family"));
  }
  return *family_report_;
}

std::vector<BlackBoxChoice> Study::blackbox_choices(const std::string& platform) {
  return predict_blackbox_choices(family_predictors(), measurements(), platform);
}

std::vector<NaiveResult> Study::naive_strategy() {
  if (!naive_) naive_ = run_naive_strategy(corpus(), options_.measurement_options());
  return *naive_;
}

NaiveComparison Study::naive_vs(const std::string& platform) {
  return compare_naive_vs_blackbox(naive_strategy(), blackbox_choices(platform),
                                   measurements(), platform);
}

}  // namespace mlaas
