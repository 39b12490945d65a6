// Ablation (Sec 4.2.4): the paper answers a GROUP BY from the BN by
// drawing K forward-sampled tables, keeping the groups present in all K
// answers, and averaging the values — "using K samples reduces the
// variance and the number of incorrect phantom groups". Themis now answers
// from exact BN marginals and keeps the consensus groups instead (expected
// count in one draw of n = sample-size rows at least ln 2; see
// HybridEvaluator). This bench draws the K tables itself with
// BayesianNetwork::SampleTable, applies the all-K rule locally for K = 1,
// 2, 5, 10, 20, and prints the exact consensus answer beside them, for a
// 2D GROUP BY on Flights SCorners. At THEMIS_SCALE=0.2 (4-CPU x86) no
// answer has phantom groups; the all-K rule misses more groups as K grows
// (136 at K = 1, 281 at K = 10; mean error 82.7 and 114.6), and the
// consensus answer misses 126 with mean error 57.9. The K rows equal the
// former K-sample models' answers.
#include "common.h"

#include <map>
#include <string>
#include <vector>

#include "core/evaluator.h"
#include "core/model.h"
#include "sql/parser.h"
#include "stats/metrics.h"
#include "util/logging.h"

namespace themis::bench {
namespace {

using workload::FlightsAttrs;

void Run() {
  PrintHeader("Ablation", "K generated samples for GROUP BY answering");
  BenchScale scale;
  DatasetSetup setup = MakeFlights(scale);
  const double n = static_cast<double>(setup.population.num_rows());
  aggregate::AggregateSet aggregates =
      MakePaperAggregates(setup.population, setup.covered_attrs, 5, 4);

  // (origin, elapsed): the two attributes are only indirectly linked in a
  // tree BN (through distance), so generated samples produce impossible
  // combinations — phantom groups for the K-intersection rule to suppress.
  const std::string sql =
      "SELECT origin_state, elapsed_time, COUNT(*) FROM sample "
      "GROUP BY origin_state, elapsed_time";
  sql::Executor truth_executor;
  truth_executor.RegisterTable("sample", &setup.population);
  auto truth = truth_executor.Query(sql);
  THEMIS_CHECK(truth.ok());
  auto truth_map = truth->ValueMap();

  core::ThemisOptions options = BenchOptions();
  options.population_size = n;
  const data::Table& sample = setup.samples.at("SCorners");
  auto model = core::ThemisModel::Build(sample.Clone(), aggregates, options);
  THEMIS_CHECK(model.ok());
  auto stmt = sql::Parse(sql);
  THEMIS_CHECK(stmt.ok());

  auto report = [&](const std::string& label,
                    const std::map<std::string, double>& estimate) {
    size_t phantoms = 0, missed = 0;
    double total_err = 0;
    size_t count = 0;
    for (const auto& [key, tv] : truth_map) {
      auto it = estimate.find(key);
      if (it == estimate.end()) {
        ++missed;
        total_err += stats::kMaxPercentDifference;
      } else {
        total_err += stats::PercentDifference(tv, it->second);
      }
      ++count;
    }
    for (const auto& [key, ev] : estimate) {
      if (!truth_map.count(key)) {
        ++phantoms;
        total_err += stats::kMaxPercentDifference;
        ++count;
      }
    }
    std::printf("  %-17s  %6zu  %8zu  %6zu  %7.1f\n", label.c_str(),
                estimate.size(), phantoms, missed,
                total_err / static_cast<double>(count));
  };

  // The K tables are consecutive draws of one Rng(seed) stream, each of
  // |S'_k| = nS rows, as in the paper; the all-K rule over the first K.
  constexpr size_t kMaxK = 20;
  Rng rng(options.seed);
  std::vector<std::map<std::string, double>> answers;
  for (size_t k = 0; k < kMaxK; ++k) {
    const data::Table draw = model->network()->SampleTable(
        sample.num_rows(), model->population_size(), rng);
    sql::Executor executor;
    executor.RegisterTable("sample", &draw);
    auto result = executor.Execute(*stmt);
    THEMIS_CHECK(result.ok()) << result.status().ToString();
    answers.push_back(result->ValueMap());
  }
  std::printf("  %-17s  groups  phantoms  missed  avg_err\n", "K");
  for (size_t k : {1ul, 2ul, 5ul, 10ul, kMaxK}) {
    std::map<std::string, double> estimate;
    for (const auto& [key, value] : answers[0]) {
      double sum = 0;
      size_t present = 0;
      for (size_t i = 0; i < k; ++i) {
        auto it = answers[i].find(key);
        if (it == answers[i].end()) break;
        sum += it->second;
        ++present;
      }
      if (present == k) estimate[key] = sum / static_cast<double>(k);
    }
    report(std::to_string(k), estimate);
  }
  core::HybridEvaluator evaluator(&*model);
  auto exact = evaluator.Query(sql, core::AnswerMode::kBnOnly);
  THEMIS_CHECK(exact.ok()) << exact.status().ToString();
  report("exact, consensus", exact->ValueMap());
}

}  // namespace
}  // namespace themis::bench

int main() {
  themis::bench::Run();
  return 0;
}
