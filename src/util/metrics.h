// A typed metrics registry with stable registration order, plus the
// visit_fields-based helpers that let every stats struct in the stack
// (ServiceStats, TenantServingStats, PlatformCampaignStats, SchedulerStats)
// share one merge/registration implementation instead of hand-rolled
// field-by-field copies that drift whenever a counter is added.
//
// A stats struct opts in by defining a static visitor over its scalar
// fields:
//
//   template <typename Self, typename Visitor>
//   static void visit_fields(Self& self, Visitor&& visit) {
//     visit("requests", self.requests);
//     visit("uploads", self.uploads);
//     ...
//   }
//
// The Self template parameter makes the same visitor work for const and
// non-const instances, so merge_stats (mutating) and register_stats
// (read-only) both run off the single field list.
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <type_traits>
#include <vector>

namespace mlaas {

/// Ordered registry of named counters and gauges.  Entries keep their
/// first-registration order, so encoding the registry is deterministic as
/// long as registration order is — which every caller in this repo
/// guarantees by registering in canonical (roster / field-declaration)
/// order.
class MetricsRegistry {
 public:
  enum class Kind { kCounter, kGauge };

  struct Entry {
    std::string name;
    Kind kind = Kind::kCounter;
    double value = 0.0;
  };

  /// Register-or-lookup; counters start at zero.
  double& counter(const std::string& name) { return slot(name, Kind::kCounter); }
  double& gauge(const std::string& name) { return slot(name, Kind::kGauge); }

  void add(const std::string& name, double delta) { counter(name) += delta; }
  void set(const std::string& name, double value) { gauge(name) = value; }

  std::size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }
  const std::vector<Entry>& entries() const { return entries_; }

  /// Value of a registered metric; throws std::out_of_range when absent.
  double value(const std::string& name) const;
  bool contains(const std::string& name) const { return index_.count(name) > 0; }

  /// Fold another registry in: counters add, gauges take the other side's
  /// value.  Entries unknown to this registry are appended in the other
  /// registry's order, so merging preserves determinism.
  void merge(const MetricsRegistry& other);

  /// "name=value;name=value" in registration order.  Integral values print
  /// without a decimal point so encoded counters look like the hand-written
  /// TSV trailers they replace.
  std::string encode() const;

 private:
  double& slot(const std::string& name, Kind kind);

  std::vector<Entry> entries_;
  std::map<std::string, std::size_t> index_;
};

/// Format one metric value the way encode() does: integral values as
/// integers, everything else with enough digits to round-trip.
std::string format_metric_value(double value);

/// Field-wise add of `from` into `into` via the struct's visit_fields.
/// Values are accumulated through double, which is exact for the counter
/// magnitudes this repo produces (below 2^53).
template <typename Stats>
void merge_stats(Stats& into, const Stats& from) {
  std::vector<double> values;
  Stats::visit_fields(from, [&values](const char*, const auto& field) {
    values.push_back(static_cast<double>(field));
  });
  std::size_t i = 0;
  Stats::visit_fields(into, [&values, &i](const char*, auto& field) {
    using Field = std::decay_t<decltype(field)>;
    field = static_cast<Field>(static_cast<double>(field) + values[i++]);
  });
}

/// Register every visit_fields scalar as `prefix + name`, adding into any
/// counter already present (so repeated registration aggregates).
template <typename Stats>
void register_stats(MetricsRegistry& registry, const std::string& prefix,
                    const Stats& stats) {
  Stats::visit_fields(stats, [&registry, &prefix](const char* name, const auto& field) {
    registry.counter(prefix + name) += static_cast<double>(field);
  });
}

}  // namespace mlaas
