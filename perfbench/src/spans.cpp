#include "spans.h"

#include <cstdio>
#include <fstream>
#include <stdexcept>

#include "common.h"

namespace perfbench {

SpanRecorder::SpanRecorder() : origin_(wall_now()) {}

SpanRecorder::Scope::Scope(SpanRecorder* recorder, std::string name, std::string layer)
    : recorder_(recorder != nullptr && recorder->enabled_ ? recorder : nullptr) {
  if (recorder_ == nullptr) return;
  Span span;
  span.name = std::move(name);
  span.layer = std::move(layer);
  span.parent = recorder_->open_.empty() ? -1 : recorder_->open_.back();
  span.iteration = recorder_->iteration_;
  span.start = wall_now() - recorder_->origin_;
  index_ = static_cast<int>(recorder_->spans_.size());
  recorder_->spans_.push_back(std::move(span));
  recorder_->open_.push_back(index_);
}

SpanRecorder::Scope::~Scope() {
  if (recorder_ == nullptr) return;
  recorder_->spans_[static_cast<std::size_t>(index_)].end = wall_now() - recorder_->origin_;
  recorder_->open_.pop_back();
}

std::map<std::string, double> SpanRecorder::self_seconds_by_layer(int iteration) const {
  std::vector<double> child_seconds(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) child_seconds[static_cast<std::size_t>(s.parent)] += s.end - s.start;
  }
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].iteration != iteration) continue;
    self[spans_[i].layer] += (spans_[i].end - spans_[i].start) - child_seconds[i];
  }
  return self;
}

void SpanRecorder::write_chrome_json(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write trace " + path);
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    char buf[160];
    std::snprintf(buf, sizeof buf, "\"ts\":%.3f,\"dur\":%.3f", s.start * 1e6,
                  (s.end - s.start) * 1e6);
    out << (i ? ",\n" : "\n") << "{\"name\":\"" << s.name << "\",\"cat\":\"" << s.layer
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1," << buf << ",\"args\":{\"span\":" << i
        << ",\"parent\":" << s.parent << ",\"iteration\":" << s.iteration << "}}";
  }
  out << "\n]}\n";
  if (!out.flush()) throw std::runtime_error("cannot write trace " + path);
}

}  // namespace perfbench
