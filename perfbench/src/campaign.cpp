// `campaign`: a cold measurement campaign over the full corpus and all 7
// platforms, write-ahead journal on, followed by save_csv of the cache.
#include <filesystem>

#include "core/study.h"
#include "ml/registry.h"
#include "workloads.h"

namespace perfbench {

using namespace mlaas;

namespace {

std::vector<std::string> classifier_columns() {
  std::vector<std::string> names = classifier_names();
  names.push_back("auto");  // black-box platforms record their automated choice
  return names;
}

/// Per-layer attribution of one campaign from its returned table and report.
void campaign_layers(const CampaignResult& r, Values& v) {
  double fit_total = 0.0, predict_total = 0.0;
  for (const auto& name : classifier_columns()) {
    v["ml.fit_cpu_s." + name] = 0.0;
    v["ml.predict_cpu_s." + name] = 0.0;
  }
  for (const auto& name : platform_names()) v["platform.cpu_s." + name] = 0.0;
  std::size_t ok = 0, failed = 0;
  for (const Measurement& m : r.table.rows()) {
    v["ml.fit_cpu_s." + m.classifier] += m.train_seconds;
    v["ml.predict_cpu_s." + m.classifier] += m.predict_seconds;
    v["platform.cpu_s." + m.platform] += m.train_seconds + m.predict_seconds;
    fit_total += m.train_seconds;
    predict_total += m.predict_seconds;
    m.ok ? ++ok : ++failed;
  }
  v["cells_ok"] = static_cast<double>(ok);
  v["cells_failed"] = static_cast<double>(failed);  // failed + deferred
  v["cells_attempted"] = static_cast<double>(r.table.size());

  const PlatformCampaignStats totals = r.report.totals();
  v["platform.service.requests"] = static_cast<double>(totals.service.requests);
  v["platform.service.uploads"] = static_cast<double>(totals.service.uploads);
  v["platform.service.trainings"] = static_cast<double>(totals.service.trainings);
  v["platform.service.predictions"] = static_cast<double>(totals.service.predictions);
  v["platform.service.retries"] = static_cast<double>(totals.retries);

  const SchedulerStats& s = r.report.scheduler;
  v["eval.scheduler.busy_s"] = s.busy_seconds();
  v["eval.scheduler.makespan_s"] = s.makespan_seconds;
  v["eval.scheduler.imbalance"] = s.imbalance();
  v["eval.scheduler.sessions_stolen"] = static_cast<double>(s.sessions_stolen);
  v["eval.scheduler.sessions"] = static_cast<double>(s.sessions);
  v["eval.scheduler.workers"] = static_cast<double>(s.workers);
  v["eval.cell_overhead_s"] = s.busy_seconds() - fit_total - predict_total;
  v["ml.fit_cpu_s"] = fit_total;
  v["ml.predict_cpu_s"] = predict_total;
}

/// Digest of the measurement table with the two CPU-time columns masked.
std::string table_digest(const MeasurementTable& table) {
  std::uint64_t h = fnv1a("campaign-table-v1\n");
  for (Measurement m : table.rows()) {
    m.train_seconds = 0.0;
    m.predict_seconds = 0.0;
    h = fnv1a(measurement_row_to_tsv(m) + "\n", h);
  }
  return hex64(h);
}

}  // namespace

mlaas::StudyOptions campaign_study_options(const RunInfo& info) {
  StudyOptions so;
  so.seed = info.seed;
  so.scale = kCampaignScale;
  so.threads = static_cast<int>(info.worker_threads);
  so.verbose = false;
  return so;
}

void record_corpus_shape(const std::vector<mlaas::Dataset>& corpus, RunInfo& info) {
  std::size_t samples = 0, features = 0;
  for (const Dataset& d : corpus) {
    samples += d.n_samples();
    features += d.n_features();
  }
  info.shape["corpus_datasets"] = std::to_string(corpus.size());
  info.shape["corpus_samples"] = std::to_string(samples);
  info.shape["corpus_features"] = std::to_string(features);
}

void run_campaign_workload(Context& ctx) {
  const StudyOptions so = campaign_study_options(ctx.info);
  // The corpus is fixed, as the study's collection of datasets is; the
  // run's seed draws the campaigns (splits, model seeds, service traffic).
  // With a corpus drawn from each seed, the largest corpus (21k samples
  // against 17k) took 25% more CPU than the median.  Campaign seeds differ
  // too (one took 15-20% more CPU than others on the same corpus), so the
  // iterations of a run cycle through kSeedsPerRun campaign seeds and the
  // run's median spans them.
  CorpusOptions corpus_options = so.corpus_options();
  corpus_options.seed = kCorpusSeed;
  std::ostringstream config;
  config << "campaign scale=" << kCampaignScale << " corpus_seed=" << kCorpusSeed
         << " seeds_per_run=" << kSeedsPerRun << " platforms=all journal=on";
  ctx.info.config = config.str();
  ctx.cycle = kSeedsPerRun;

  std::vector<Dataset> corpus;
  std::vector<PlatformPtr> platforms;
  std::vector<double> corpus_seconds;
  for (int k = 0; k < ctx.setups; ++k) {
    ctx.record.references.push_back(sample_host_reference());  // untimed
    const double t0 = wall_now();
    {
      SpanRecorder::Scope span(&ctx.spans, "data.build_corpus", "data");
      corpus = build_corpus(corpus_options);
    }
    const double t1 = wall_now();
    {
      SpanRecorder::Scope span(&ctx.spans, "platform.make_all_platforms", "platform");
      platforms = make_all_platforms();
    }
    ctx.record.setup_s.push_back(wall_now() - t0);
    corpus_seconds.push_back(t1 - t0);
  }
  ctx.record.run_values["data.build_corpus_s"] = median(corpus_seconds);
  record_corpus_shape(corpus, ctx.info);

  const std::filesystem::path dir = std::filesystem::path(ctx.info.work_dir) / "campaign";
  std::filesystem::create_directories(dir);
  const std::string journal = (dir / "campaign.journal").string();
  const std::string cache = (dir / "campaign.tsv").string();

  MeasurementOptions mo = so.measurement_options();
  mo.campaign.journal_path = journal;
  mo.campaign.resume = false;

  measure(ctx, [&](int index, Values& v) {
    std::filesystem::remove(journal);
    std::filesystem::remove(cache);
    mo.seed = ctx.info.seed * kSeedsPerRun + static_cast<std::uint64_t>(index % kSeedsPerRun);
    CampaignResult r;
    const Stopwatch watch;
    double save_start = 0.0;
    {
      SpanRecorder::Scope span(&ctx.spans, "eval.run_campaign", "eval");
      r = run_campaign(corpus, platforms, mo);
    }
    {
      save_start = wall_now();
      SpanRecorder::Scope span(&ctx.spans, "eval.save_csv", "eval");
      r.table.save_csv(cache, measurement_fingerprint(corpus, platforms, mo));
    }
    const double save_end = wall_now();
    watch.stop(v);
    v["eval.cache_save_s"] = save_end - save_start;
    v["eval.journal_bytes"] = file_bytes(journal);
    v["eval.cache_bytes"] = file_bytes(cache);
    campaign_layers(r, v);
    return table_digest(r.table);
  });
  std::filesystem::remove_all(dir);
}

}  // namespace perfbench
