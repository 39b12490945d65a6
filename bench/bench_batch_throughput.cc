// Measures cross-query parallel throughput of the shared execution
// runtime: queries/sec of a sequential Query() loop vs ThemisDb-style
// QueryBatch on one model, at pool sizes 1/2/4/hw. The batch fans whole
// plans across the pool while each plan's sharded scans nest on the same
// pool; answers must stay bitwise identical to the
// 1-thread sequential loop's — any divergence aborts.
//
//   ./bench_batch_throughput [rounds] [--strict]
//
// The acceptance bar is >= 1.5x batch-at-hw over the sequential loop.
// --strict turns that bar into the exit code; without it timing stays
// informational (wall-clock gates flake on noisy shared runners).
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common.h"

#include "core/evaluator.h"
#include "core/model.h"
#include "util/logging.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace themis::bench {
namespace {

/// The mixed serving workload: point lookups (heavy/light/random hitters)
/// interleaved with GROUP BY aggregates of several shapes.
std::vector<std::string> MakeMixedWorkload(const DatasetSetup& setup,
                                           size_t target_size) {
  const data::SchemaPtr& schema = setup.population.schema();
  std::vector<std::string> sqls;

  Rng rng(2024);
  const auto points = workload::MakeMixedPointQueries(
      setup.population, 2, 3, workload::HitterClass::kRandom, 60, rng);
  for (const auto& q : points) {
    std::string sql = "SELECT COUNT(*) FROM sample WHERE ";
    for (size_t i = 0; i < q.attrs.size(); ++i) {
      if (i > 0) sql += " AND ";
      sql += schema->domain(q.attrs[i]).name() + " = '" +
             schema->domain(q.attrs[i]).Label(q.values[i]) + "'";
    }
    sqls.push_back(std::move(sql));
  }
  for (size_t a = 0; a < schema->num_attributes(); ++a) {
    sqls.push_back("SELECT " + schema->domain(a).name() +
                   ", COUNT(*) FROM sample GROUP BY " +
                   schema->domain(a).name());
    for (size_t b = a + 1; b < schema->num_attributes(); ++b) {
      sqls.push_back("SELECT " + schema->domain(a).name() + ", " +
                     schema->domain(b).name() +
                     ", COUNT(*) FROM sample GROUP BY " +
                     schema->domain(a).name() + ", " +
                     schema->domain(b).name());
    }
  }
  const size_t distinct = sqls.size();
  while (sqls.size() < target_size) {
    sqls.push_back(sqls[sqls.size() % distinct]);
  }
  return sqls;
}

void CheckIdentical(const std::vector<sql::QueryResult>& a,
                    const std::vector<sql::QueryResult>& b,
                    const char* what) {
  THEMIS_CHECK(a.size() == b.size()) << what;
  for (size_t q = 0; q < a.size(); ++q) {
    THEMIS_CHECK(a[q].rows.size() == b[q].rows.size()) << what << " q" << q;
    for (size_t i = 0; i < a[q].rows.size(); ++i) {
      THEMIS_CHECK(a[q].rows[i].group == b[q].rows[i].group)
          << what << " q" << q;
      // Bitwise double equality, not approximate.
      THEMIS_CHECK(a[q].rows[i].values == b[q].rows[i].values)
          << what << " q" << q;
    }
  }
}

int Run(size_t rounds, bool strict) {
  PrintHeader("Batch-throughput micro-bench",
              "sequential Query() loop vs QueryBatch across pool sizes");
  BenchScale scale;
  DatasetSetup setup = MakeFlights(scale);
  const double n = static_cast<double>(setup.population.num_rows());
  aggregate::AggregateSet aggregates =
      MakePaperAggregates(setup.population, setup.covered_attrs, 5, 4);

  core::ThemisOptions options = BenchOptions();
  options.population_size = n;
  auto model = core::ThemisModel::Build(setup.samples.at("Corners").Clone(),
                                        aggregates, options);
  THEMIS_CHECK(model.ok()) << model.status().ToString();

  const std::vector<std::string> sqls = MakeMixedWorkload(setup, 240);
  std::printf("  %zu mixed queries x %zu rounds\n", sqls.size(), rounds);

  const size_t hw = util::DefaultParallelism();
  std::vector<size_t> sizes = {1, 2, 4, hw};
  std::sort(sizes.begin(), sizes.end());
  sizes.erase(std::unique(sizes.begin(), sizes.end()), sizes.end());

  // The 1-thread sequential loop is the baseline; every other
  // configuration must answer bitwise identically to it.
  std::vector<sql::QueryResult> reference;
  double baseline_qps = 0;
  double batch_hw_qps = 0;

  std::printf("  %8s  %14s  %14s\n", "pool", "loop q/s", "batch q/s");
  for (size_t threads : sizes) {
    util::ThreadPool pool(threads);
    // Fresh evaluator per pool size: empty memo and inference cache, so
    // every configuration does the same work.
    core::HybridEvaluator evaluator(&*model, "sample", &pool);

    Timer timer;
    std::vector<sql::QueryResult> loop_results;
    loop_results.reserve(sqls.size() * rounds);
    for (size_t r = 0; r < rounds; ++r) {
      evaluator.ClearResultMemo();
      if (auto* engine = evaluator.mutable_inference_engine()) {
        engine->ClearCache();
      }
      for (const std::string& sql : sqls) {
        auto result = evaluator.Query(sql);
        THEMIS_CHECK(result.ok()) << result.status().ToString();
        loop_results.push_back(std::move(*result));
      }
    }
    const double loop_qps =
        static_cast<double>(sqls.size() * rounds) / timer.Seconds();

    std::vector<sql::QueryResult> batch_results;
    batch_results.reserve(sqls.size() * rounds);
    timer.Restart();
    for (size_t r = 0; r < rounds; ++r) {
      evaluator.ClearResultMemo();
      if (auto* engine = evaluator.mutable_inference_engine()) {
        engine->ClearCache();
      }
      auto batch = evaluator.QueryBatch(sqls, core::AnswerMode::kHybrid);
      THEMIS_CHECK(batch.ok()) << batch.status().ToString();
      for (auto& result : *batch) batch_results.push_back(std::move(result));
    }
    const double batch_qps =
        static_cast<double>(sqls.size() * rounds) / timer.Seconds();

    CheckIdentical(loop_results, batch_results, "loop vs batch");
    if (reference.empty()) {
      reference = std::move(loop_results);
      baseline_qps = loop_qps;
    } else {
      CheckIdentical(reference, batch_results, "pool-size identity");
    }
    if (threads == hw) batch_hw_qps = batch_qps;
    std::printf("  %8zu  %14.0f  %14.0f\n", threads, loop_qps, batch_qps);
  }

  const double speedup = baseline_qps > 0 ? batch_hw_qps / baseline_qps : 0;
  std::printf("  answers bitwise-identical across pool sizes: yes\n");
  std::printf("  batch@%zu vs sequential loop@1: %.2fx %s\n", hw, speedup,
              speedup >= 1.5 ? "(>= 1.5x: batch win demonstrated)"
                             : "(below the 1.5x bar)");
  return (strict && speedup < 1.5) ? 1 : 0;
}

}  // namespace
}  // namespace themis::bench

int main(int argc, char** argv) {
  size_t rounds = 3;
  bool strict = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--strict") == 0) {
      strict = true;
    } else {
      rounds = static_cast<size_t>(std::strtoul(argv[i], nullptr, 10));
    }
  }
  if (rounds == 0) rounds = 1;
  return themis::bench::Run(rounds, strict);
}
