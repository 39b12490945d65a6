#include "common.h"

#include <cstdlib>

#include "aggregate/pruning.h"
#include "stats/descriptive.h"
#include "util/logging.h"

namespace themis::bench {

BenchScale::BenchScale() {
  const double scale = workload::EnvScale();
  flights_rows = static_cast<size_t>(150000 * scale);
  imdb_rows = static_cast<size_t>(80000 * scale);
  queries = static_cast<size_t>(60 * scale);
  if (queries > 100) queries = 100;
}

void PrintHeader(const std::string& id, const std::string& title) {
  std::printf("=====================================================\n");
  std::printf("%s: %s\n", id.c_str(), title.c_str());
  std::printf("(percent-difference metric; see EXPERIMENTS.md)\n");
  std::printf("=====================================================\n");
}

void PrintBoxplotRow(const std::string& label,
                     const std::vector<double>& errors) {
  stats::BoxplotSummary s = stats::Summarize(errors);
  std::printf("  %-22s %s\n", label.c_str(), s.ToString().c_str());
}

void PrintMeanRow(const std::string& label,
                  const std::vector<double>& errors) {
  std::printf("  %-22s mean %7.2f  median %7.2f\n", label.c_str(),
              stats::Mean(errors), stats::Median(errors));
}

DatasetSetup MakeFlights(const BenchScale& scale, uint64_t seed) {
  DatasetSetup setup{
      workload::GenerateFlights({scale.flights_rows, seed}), {}, {}};
  for (const char* name : {"Unif", "June", "SCorners", "Corners"}) {
    auto sample =
        workload::MakeFlightsSample(setup.population, name, 0.1, seed + 7);
    THEMIS_CHECK(sample.ok()) << sample.status().ToString();
    setup.samples.emplace(name, std::move(sample).value());
  }
  setup.covered_attrs = {0, 1, 2, 3, 4};
  return setup;
}

DatasetSetup MakeImdb(const BenchScale& scale, uint64_t seed) {
  DatasetSetup setup{
      workload::GenerateImdb({scale.imdb_rows, 2000, seed}), {}, {}};
  for (const char* name : {"Unif", "GB", "SR159", "R159"}) {
    auto sample =
        workload::MakeImdbSample(setup.population, name, 0.1, seed + 7);
    THEMIS_CHECK(sample.ok()) << sample.status().ToString();
    setup.samples.emplace(name, std::move(sample).value());
  }
  // Aggregates cover MY, MC, G, RG, RT only (Sec 6.2) — name, birth and
  // top-rank stay uncovered, exactly the paper's partial-coverage setup.
  setup.covered_attrs = {
      workload::ImdbAttrs::kMovieYear, workload::ImdbAttrs::kCountry,
      workload::ImdbAttrs::kGender, workload::ImdbAttrs::kRating,
      workload::ImdbAttrs::kRuntime};
  return setup;
}

aggregate::AggregateSet MakePaperAggregates(const data::Table& population,
                                            const std::vector<size_t>& covered,
                                            size_t num_1d, size_t budget_2d,
                                            size_t budget_3d) {
  aggregate::AggregateSet set(population.schema());
  // Multi-dimensional aggregates first, 1D marginals last: Alg 1 sweeps
  // constraints in order, so the coarse marginals hold exactly at sweep
  // end even when sparse higher-dim constraints are unsatisfiable.
  if (budget_2d > 0) {
    std::vector<aggregate::AggregateSpec> candidates;
    for (const auto& attrs : workload::AllSubsets(covered, 2)) {
      candidates.push_back(aggregate::ComputeAggregate(population, attrs));
    }
    for (size_t idx :
         aggregate::SelectAggregatesTCherry(candidates, budget_2d)) {
      set.Add(candidates[idx]);
    }
  }
  if (budget_3d > 0) {
    std::vector<aggregate::AggregateSpec> candidates;
    for (const auto& attrs : workload::AllSubsets(covered, 3)) {
      candidates.push_back(aggregate::ComputeAggregate(population, attrs));
    }
    for (size_t idx :
         aggregate::SelectAggregatesTCherry(candidates, budget_3d)) {
      set.Add(candidates[idx]);
    }
  }
  for (size_t i = 0; i < num_1d && i < covered.size(); ++i) {
    set.Add(aggregate::ComputeAggregate(population, {covered[i]}));
  }
  return set;
}

core::ThemisOptions BenchOptions() {
  core::ThemisOptions options;
  // THEMIS_INFERENCE_CACHE=0 disables cross-query marginal memoization so
  // the reuse win is measurable (answers are identical either way).
  const char* cache_env = std::getenv("THEMIS_INFERENCE_CACHE");
  if (cache_env != nullptr && std::string(cache_env) == "0") {
    options.enable_inference_cache = false;
  }
  return options;
}

}  // namespace themis::bench
