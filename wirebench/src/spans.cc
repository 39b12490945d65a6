#include "spans.h"

#include <algorithm>
#include <chrono>
#include <cstdio>

namespace wirebench {
namespace {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

int64_t SpanRecorder::Begin(const char* name, uint64_t request) {
  Span span;
  span.name = name;
  span.parent = open_.empty() ? -1 : open_.back();
  span.request = request;
  spans_.push_back(span);
  const auto id = static_cast<int64_t>(spans_.size() - 1);
  open_.push_back(id);
  spans_.back().start_ns = NowNs();
  return id;
}

void SpanRecorder::End(int64_t id) {
  spans_[static_cast<size_t>(id)].end_ns = NowNs();
  open_.pop_back();
}

std::map<std::string, SpanSummary> SpanRecorder::Summarize() const {
  // Children's intervals per parent, merged so overlaps count once.
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(
      spans_.size());
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      children[static_cast<size_t>(span.parent)].emplace_back(span.start_ns,
                                                              span.end_ns);
    }
  }
  std::map<std::string, SpanSummary> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    auto& intervals = children[i];
    std::sort(intervals.begin(), intervals.end());
    int64_t covered = 0;
    int64_t reach = span.start_ns;
    for (const auto& [begin, end] : intervals) {
      const int64_t from = std::max(begin, reach);
      if (end > from) {
        covered += end - from;
        reach = end;
      }
    }
    SpanSummary& summary = out[span.name];
    ++summary.calls;
    const double duration_us = (span.end_ns - span.start_ns) / 1e3;
    summary.total_self_us += duration_us - covered / 1e3;
    summary.duration_us.push_back(duration_us);
    summary.requests.push_back(span.request);
  }
  return out;
}

bool SpanRecorder::Write(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  for (const Span& span : spans_) {
    std::fprintf(out,
                 "{\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld,"
                 "\"parent\":%lld,\"request\":%llu}\n",
                 span.name, static_cast<long long>(span.start_ns),
                 static_cast<long long>(span.end_ns),
                 static_cast<long long>(span.parent),
                 static_cast<unsigned long long>(span.request));
  }
  return std::fclose(out) == 0;
}

}  // namespace wirebench
