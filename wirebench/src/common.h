#ifndef WIREBENCH_COMMON_H_
#define WIREBENCH_COMMON_H_

// Pieces the untraced and traced runs share: options, the server launch,
// the in-process model build, answer checks and the result line.

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/themis_db.h"
#include "dataset.h"
#include "loadgen.h"
#include "server/client.h"
#include "server_process.h"
#include "spans.h"
#include "workloads.h"

namespace wirebench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string server_path;  // themis_cli
  std::string work_dir;     // generated CSVs and the span file
  size_t rows = 1500000;
};

/// Client timeout per request: an answer later than this counts as failed.
inline constexpr double kClientTimeoutS = 2.0;

bool ParseOptions(int argc, char** argv, Options* options);

/// Starts `themis_cli SAMPLE AGG... --n ROWS --serve 0` on the dataset.
std::unique_ptr<ServerProcess> LaunchServer(const Options& options,
                                            const Dataset& dataset);

/// Loads the dataset's CSVs and builds the model with default options,
/// exactly as `themis_cli` does; with `spans`, each call is a span.
std::unique_ptr<themis::core::ThemisDb> BuildDb(const Options& options,
                                                const Dataset& dataset,
                                                SpanRecorder* spans);

/// Prints the STATS `host` block: CPUs, SIMD backend, cache sizes.
void PrintHost(themis::server::Client& client);

/// False (with the reason on stderr) when any answer had a non-OK status
/// other than an overload refusal, or could not be matched to a request.
bool CheckStatuses(const std::string& label, const PhaseResult& phase);

void PrintPhase(const std::string& label, double rate,
                const PhaseResult& phase);
/// Generator lateness (p99 of send minus due) and host steal.
void PrintHealth(const PhaseResult& phase, double steal_pct);

struct Accuracy {
  double point_pct = 0;    // median percent difference, point queries
  double groupby_pct = 0;  // median of per-query mean group difference
  /// (sql, served response line) of every scored query.
  std::vector<std::pair<std::string, std::string>> lines;
};

/// Sends each query to the server on `port` (over kConnections clients
/// at once) and scores the served hybrid answers against the population
/// truth with the paper's percent difference (Sec 6.3).
bool ScoreAnswers(uint16_t port, const Dataset& dataset,
                  const std::vector<BenchQuery>& queries,
                  Accuracy* accuracy);

/// Builds the in-process oracle and compares each served (sql, response
/// line), byte for byte, with the oracle's encoding of the same query.
bool CheckAgainstOracle(
    const Options& options, const Dataset& dataset,
    const std::vector<std::pair<std::string, std::string>>& served);

/// Metrics in print order; Print writes one line per metric and then the
/// JSON result as the last line of standard output.
class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit);
  void Print(bool correct, size_t attempted, size_t failed) const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
};

}  // namespace wirebench

#endif  // WIREBENCH_COMMON_H_
