#ifndef WIREBENCH_WORKLOADS_H_
#define WIREBENCH_WORKLOADS_H_

// The three traffic mixes and their fixed settings. Each turns a seed into
// request streams; the server only ever sees the generated lines.

#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "dataset.h"
#include "loadgen.h"
#include "util/random.h"

namespace wirebench {

inline constexpr size_t kConnections = 4;

struct WorkloadSettings {
  std::string name;
  /// Offered requests per second of the timed nominal phase, low enough
  /// that the server is far from saturation (see NOTES.md).
  double nominal_rate = 0;
  /// Requests per arrival: 1, or kConnections for a refresh burst.
  size_t burst = 1;
  /// Requests sent before timing starts, at three times the nominal rate.
  size_t warmup_requests = 0;
};

/// Settings by workload name; null when the name is unknown.
const WorkloadSettings* FindWorkload(const std::string& name);

/// Query texts and the order they are requested in.
class Workload {
 public:
  Workload(const WorkloadSettings& settings,
           const themis::data::Table& population, uint64_t seed);

  const WorkloadSettings& settings() const { return settings_; }
  const std::vector<BenchQuery>& queries() const { return queries_; }
  /// Encoded wire request for each query, newline included.
  const std::vector<std::string>& lines() const { return lines_; }

  /// Poisson arrivals at `rate` requests per second for `seconds`.
  PhasePlan MakePhase(double rate, double seconds);
  /// The warm-up requests, at three times the nominal rate.
  PhasePlan MakeWarmup();

  /// Seeded queries of `kind` not in the workload's own mix, to score
  /// answer quality on kinds a workload never sends.
  BenchQuery ExtraQuery(QueryKind kind);

 private:
  uint32_t Next();
  uint32_t Add(BenchQuery query);

  WorkloadSettings settings_;
  QueryFactory factory_;
  themis::Rng rng_;
  std::vector<BenchQuery> queries_;
  std::vector<std::string> lines_;
  std::vector<uint32_t> fixed_;  // hot and churn: the Zipf ranks' queries
  std::unique_ptr<themis::CategoricalSampler> zipf_;
  std::unordered_set<std::string> seen_;  // adhoc: texts already drawn
  themis::Rng extra_rng_;
};

}  // namespace wirebench

#endif  // WIREBENCH_WORKLOADS_H_
