// `analysis`: a warm-cache pass.  Set-up fills a private measurement cache
// through the same campaign code `campaign` runs, at the same scale; the
// timed part is the run_or_load cache hit inside Study::measurements()
// followed by every Study experiment (Tables 3-6, Figures 4-14, §6.2, §6.3).
#include <filesystem>
#include <sstream>
#include <unistd.h>

#include "workloads.h"

namespace perfbench {

using namespace mlaas;

namespace {

/// Canonical text of the experiment results, hashed for the output digest.
class Canon {
 public:
  Canon() { out_.precision(17); }
  template <typename T>
  Canon& operator<<(const T& value) {
    out_ << value << ' ';
    return *this;
  }
  Canon& section(const std::string& name) {
    out_ << '\n' << name << ':';
    return *this;
  }
  Canon& metrics(const Metrics& m) {
    return *this << m.f_score << m.accuracy << m.precision << m.recall;
  }
  template <typename T>
  Canon& list(const std::vector<T>& values) {
    *this << values.size();
    for (const T& v : values) *this << v;
    return *this;
  }
  std::string digest() const { return hex64(fnv1a(out_.str())); }

 private:
  std::ostringstream out_;
};

void canon_summaries(Canon& c, const std::vector<PlatformSummary>& rows) {
  for (const auto& s : rows) {
    c << s.platform;
    c.metrics(s.avg) << s.f_std_error << s.rank_f << s.rank_acc << s.rank_prec << s.rank_rec
                     << s.avg_rank << s.n_datasets;
  }
}

/// Every row of a table as cache bytes (CPU columns included): equal strings
/// mean the timed load returned exactly the rows set-up wrote.
std::string table_bytes(const MeasurementTable& table) {
  std::string out;
  for (const Measurement& m : table.rows()) out += measurement_row_to_tsv(m) + "\n";
  return out;
}

void remove_cache_files(const std::string& cache) {
  for (const char* suffix : {"", ".journal", ".campaign.tsv", ".campaign.json"}) {
    std::filesystem::remove(cache + suffix);
  }
}

const char* const kBlackBoxes[] = {"Google", "ABM", "Amazon"};
const char* const kNaiveRivals[] = {"Google", "ABM"};

}  // namespace

void run_analysis_workload(Context& ctx) {
  ctx.info.config = "analysis scale=0.1 platforms=all experiments=all";
  // Private cache location, created fresh by this invocation: a cache left
  // behind by another build would load silently, because the fingerprint
  // identifies the corpus by size only and carries no pipeline version.
  const std::filesystem::path dir = std::filesystem::path(ctx.info.work_dir) /
                                    ("analysis-" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string cache = (dir / "measurements.tsv").string();

  // The full 119-dataset corpus at scale 0.1: the same measurement grid
  // (19,516 rows) on every seed, so the §6.2 meta-predictor does about the
  // same work whatever the seed.  On the 24-dataset quick corpus the dataset
  // mix drawn by the seed moved a pass by 20% between seeds; at scale 0.25 a
  // pass took 12-20 s, too long for a run to hold several.
  StudyOptions so = campaign_study_options(ctx.info);
  so.cache_path_override = cache;

  std::string reference;  // rows set-up wrote (ok rows, then failures)
  std::vector<double> corpus_seconds;
  for (int k = 0; k < ctx.setups; ++k) {
    ctx.record.references.push_back(sample_host_reference());  // untimed
    remove_cache_files(cache);
    const double t0 = wall_now();
    std::vector<Dataset> corpus;
    {
      SpanRecorder::Scope span(&ctx.spans, "data.build_corpus", "data");
      corpus = build_corpus(so.corpus_options());
    }
    corpus_seconds.push_back(wall_now() - t0);
    std::vector<PlatformPtr> platforms;
    {
      SpanRecorder::Scope span(&ctx.spans, "platform.make_all_platforms", "platform");
      platforms = make_all_platforms();
    }
    MeasurementTable filled;
    {
      SpanRecorder::Scope span(&ctx.spans, "eval.run_or_load.fill", "eval");
      filled = run_or_load(corpus, platforms, so.measurement_options(), cache);
    }
    ctx.record.setup_s.push_back(wall_now() - t0);
    reference = table_bytes(filled.succeeded()) + table_bytes(filled.failures());
    record_corpus_shape(corpus, ctx.info);
  }
  ctx.record.run_values["data.build_corpus_s"] = median(corpus_seconds);
  ctx.record.run_values["eval.cache_bytes"] = file_bytes(cache);
  const auto cache_mtime = std::filesystem::last_write_time(cache);

  measure(ctx, [&](int, Values& v) {
    // A fresh Study per iteration: Study memoizes the §6.2/§6.3 results.
    Study study(so);
    study.corpus();
    study.platforms();

    Canon c;
    const Stopwatch watch;
    const double t_load = wall_now();
    {
      SpanRecorder::Scope span(&ctx.spans, "core.Study.experiments", "core");
      {
        SpanRecorder::Scope load(&ctx.spans, "eval.run_or_load.hit", "eval");
        study.measurements();
        study.measurement_failures();
      }
      const double t_aggregate = wall_now();
      {
        SpanRecorder::Scope s(&ctx.spans, "eval.aggregate", "eval");
        c.section("table3a");
        canon_summaries(c, study.baseline());
        c.section("fig4");
        canon_summaries(c, study.optimized());
        c.section("fig5");
        for (const auto& r : study.control_improvements_fig5()) {
          c << r.platform << to_string(r.dimension) << r.baseline_f << r.tuned_f
            << r.relative_improvement << r.supported;
        }
        c.section("table4");
        for (const auto& p : study.platform_order()) {
          for (const bool optimized : {false, true}) {
            for (const auto& [clf, share] : study.table4(p, optimized)) c << clf << share;
          }
        }
        c.section("fig6");
        for (const auto& r : study.variation_fig6()) {
          c << r.platform << r.min_f << r.q1_f << r.median_f << r.q3_f << r.max_f << r.n_configs;
        }
        c.section("fig7");
        for (const auto& r : study.variation_fig7()) {
          c << r.platform << to_string(r.dimension) << r.range << r.normalized_range
            << r.supported;
        }
        c.section("fig8");
        for (const auto& curve : study.subset_curves()) {
          c << curve.platform;
          for (const auto& pt : curve.points) c << pt.k << pt.expected_best_f << pt.std_dev;
        }
      }
      const double t_boundary = wall_now();
      const Dataset circle = study.circle_probe();
      const Dataset linear = study.linear_probe();
      {
        SpanRecorder::Scope s(&ctx.spans, "eval.boundary", "eval");
        c.section("fig10_13");
        for (const char* p : kBlackBoxes) {
          for (const Dataset* probe : {&circle, &linear}) {
            const BoundaryMap map = study.boundary(p, *probe);
            c << p << map.resolution << map.x_lo << map.x_hi << map.y_lo << map.y_hi;
            c.list(map.labels) << map.linear_fit_accuracy << map.positive_fraction;
          }
        }
      }
      const double t_gap = wall_now();
      {
        SpanRecorder::Scope s(&ctx.spans, "eval.family_gap", "eval");
        c.section("fig11_table5");
        for (const Dataset* probe : {&circle, &linear}) {
          const FamilyScores scores = study.family_gap(*probe);
          c.list(scores.linear_f).list(scores.nonlinear_f);
        }
      }
      const double t_predictors = wall_now();
      {
        SpanRecorder::Scope s(&ctx.spans, "eval.family_predictors", "eval");
        const FamilyPredictorReport report = study.family_predictors();
        c.section("fig12");
        for (const auto& p : report.predictors) {
          c << p.dataset_id << p.validation_f << p.test_f << p.trainable;
        }
        c.section("sec62_selected").list(report.selected);
      }
      const double t_choices = wall_now();
      {
        SpanRecorder::Scope s(&ctx.spans, "eval.blackbox_choices", "eval");
        c.section("sec62_choices");
        for (const char* p : kBlackBoxes) {
          for (const auto& r : study.blackbox_choices(p)) {
            c << p << r.dataset_id << to_string(r.family) << r.nonlinear_fraction << r.n_rows;
          }
        }
      }
      const double t_naive = wall_now();
      {
        SpanRecorder::Scope s(&ctx.spans, "eval.naive_strategy", "eval");
        c.section("sec63_naive");
        for (const auto& r : study.naive_strategy()) {
          c << r.dataset_id << r.lr_f << r.dt_f << to_string(r.chosen) << r.naive_f;
        }
      }
      const double t_naive_vs = wall_now();
      {
        SpanRecorder::Scope s(&ctx.spans, "eval.naive_vs", "eval");
        c.section("table6_fig14");
        for (const char* p : kNaiveRivals) {
          const NaiveComparison r = study.naive_vs(p);
          c << r.platform << r.n_datasets << r.naive_wins << r.wins_breakdown[0][0]
            << r.wins_breakdown[0][1] << r.wins_breakdown[1][0] << r.wins_breakdown[1][1];
          c.list(r.win_gaps).list(r.switch_gaps) << r.switching_is_best;
        }
      }
      const double t_end = wall_now();
      v["eval.cache_load_s"] = t_aggregate - t_load;
      v["eval.aggregate_s"] = t_boundary - t_aggregate;
      v["eval.boundary_s"] = t_gap - t_boundary;
      v["eval.family_gap_s"] = t_predictors - t_gap;
      v["eval.family_predictors_s"] = t_choices - t_predictors;
      v["eval.blackbox_choices_s"] = t_naive - t_choices;
      v["eval.naive_strategy_s"] = t_naive_vs - t_naive;
      v["eval.naive_vs_s"] = t_end - t_naive_vs;
    }
    watch.stop(v);

    // The timed load must have been a cache hit: exactly the rows set-up
    // wrote (CPU-time columns included, which a re-run would change) and an
    // untouched cache file.
    const std::string loaded =
        table_bytes(study.measurements()) + table_bytes(study.measurement_failures());
    if (loaded != reference || std::filesystem::last_write_time(cache) != cache_mtime) {
      ctx.record.error = "analysis: the timed run_or_load was not a cache hit of set-up's rows";
    }
    v["rows_loaded"] = static_cast<double>(study.measurements().size() +
                                           study.measurement_failures().size());
    return c.digest();
  });
  std::filesystem::remove_all(dir);
}

}  // namespace perfbench
