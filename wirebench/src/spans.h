#ifndef WIREBENCH_SPANS_H_
#define WIREBENCH_SPANS_H_

// In-memory span recorder for the traced run: the benchmark wraps each
// call it makes into a program module in a span, keeps the spans in
// memory, and writes them out when the run ends.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace wirebench {

struct Span {
  const char* name = "";  // a string literal
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t parent = -1;  // index into the recorder's spans; -1 for roots
  uint64_t request = 0;
};

struct SpanSummary {
  size_t calls = 0;
  double total_self_us = 0;
  std::vector<double> duration_us;  // whole span, per call
  std::vector<uint64_t> requests;   // request id, per call

  double mean_self_us() const {
    return calls == 0 ? 0.0 : total_self_us / static_cast<double>(calls);
  }
};

class SpanRecorder {
 public:
  /// Opens a span under the innermost open one.
  int64_t Begin(const char* name, uint64_t request);
  void End(int64_t id);

  /// Per span name: call count, self time (duration minus the time its
  /// children cover) and durations.
  std::map<std::string, SpanSummary> Summarize() const;

  /// One JSON object per line: name, start_ns, end_ns, parent, request.
  bool Write(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<int64_t> open_;
};

/// Opens a span for the enclosing scope.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, const char* name,
             uint64_t request)
      : recorder_(recorder), id_(recorder->Begin(name, request)) {}
  ~ScopedSpan() { recorder_->End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* recorder_;
  int64_t id_;
};

}  // namespace wirebench

#endif  // WIREBENCH_SPANS_H_
