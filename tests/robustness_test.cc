#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

#include "aggregate/aggregate_io.h"
#include "core/themis_db.h"
#include "data/csv.h"
#include "reweight/ipf.h"
#include "stats/descriptive.h"
#include "stats/metrics.h"
#include "workload/experiment.h"
#include "workload/flights.h"
#include "workload/queries.h"
#include "workload/sampler.h"

namespace themis {
namespace {

using workload::FlightsAttrs;

TEST(AggregateIoTest, RoundTrip) {
  auto schema = std::make_shared<data::Schema>();
  schema->AddAttribute("a", {"x", "y"});
  schema->AddAttribute("b", {"0", "1", "2"});
  data::Table t(schema);
  t.AppendRowLabels({"x", "0"});
  t.AppendRowLabels({"x", "2"});
  t.AppendRowLabels({"y", "2"});
  aggregate::AggregateSpec spec = aggregate::ComputeAggregate(t, {0, 1});
  const std::string path =
      std::filesystem::temp_directory_path() / "themis_agg_rt.csv";
  ASSERT_TRUE(aggregate::WriteAggregateCsv(spec, *schema, path).ok());
  auto loaded = aggregate::ReadAggregateCsv(*schema, path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->attrs, spec.attrs);
  EXPECT_EQ(loaded->groups, spec.groups);
  std::remove(path.c_str());
}

TEST(AggregateIoTest, UnsortedHeaderColumnsAreNormalized) {
  auto schema = std::make_shared<data::Schema>();
  schema->AddAttribute("a", {"x", "y"});
  schema->AddAttribute("b", {"0", "1"});
  const std::string path =
      std::filesystem::temp_directory_path() / "themis_agg_rev.csv";
  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    std::fputs("b,a,count\n0,x,7\n1,y,3\n", f);
    std::fclose(f);
  }
  auto loaded = aggregate::ReadAggregateCsv(*schema, path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->attrs, (std::vector<size_t>{0, 1}));
  stats::FreqTable ft = loaded->ToFreqTable();
  EXPECT_DOUBLE_EQ(ft.Mass({0, 0}), 7.0);  // a=x, b=0
  EXPECT_DOUBLE_EQ(ft.Mass({1, 1}), 3.0);  // a=y, b=1
  std::remove(path.c_str());
}

TEST(AggregateIoTest, PublishedValuesNotInSampleAreInterned) {
  // A report can mention domain values the sample has never seen — that is
  // the whole point of the open world.
  auto schema = std::make_shared<data::Schema>();
  schema->AddAttribute("a", {"x"});
  const std::string path =
      std::filesystem::temp_directory_path() / "themis_agg_new.csv";
  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    std::fputs("a,count\nx,5\nz,2\n", f);
    std::fclose(f);
  }
  auto loaded = aggregate::ReadAggregateCsv(*schema, path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(schema->domain(0).size(), 2u);  // "z" interned
  std::remove(path.c_str());
}

TEST(AggregateIoTest, Rejections) {
  auto schema = std::make_shared<data::Schema>();
  schema->AddAttribute("a", {"x"});
  const std::string path =
      std::filesystem::temp_directory_path() / "themis_agg_bad.csv";
  auto write = [&](const char* content) {
    std::FILE* f = std::fopen(path.c_str(), "w");
    std::fputs(content, f);
    std::fclose(f);
  };
  write("a\nx\n");  // no count column
  EXPECT_FALSE(aggregate::ReadAggregateCsv(*schema, path).ok());
  write("zz,count\nx,1\n");  // unknown attribute
  EXPECT_FALSE(aggregate::ReadAggregateCsv(*schema, path).ok());
  write("a,count\nx,-3\n");  // negative count
  EXPECT_FALSE(aggregate::ReadAggregateCsv(*schema, path).ok());
  write("a,count\nx\n");  // ragged
  EXPECT_FALSE(aggregate::ReadAggregateCsv(*schema, path).ok());
  EXPECT_FALSE(aggregate::ReadAggregateCsv(*schema, "/nope.csv").ok());
  std::remove(path.c_str());
}

/// Robustness: Sec 3 says aggregates may be noisy; the pipeline must keep
/// working and degrade smoothly.
class NoisyAggregateTest : public ::testing::TestWithParam<double> {};

TEST_P(NoisyAggregateTest, PipelineSurvivesNoise) {
  const double sigma = GetParam();
  data::Table population = workload::GenerateFlights({20000, 91});
  auto sample = workload::MakeFlightsSample(population, "SCorners", 0.1, 92);
  ASSERT_TRUE(sample.ok());
  aggregate::AggregateSet aggregates(population.schema());
  Rng noise_rng(93);
  for (auto attrs : std::vector<std::vector<size_t>>{
           {FlightsAttrs::kOrigin},
           {FlightsAttrs::kDate},
           {FlightsAttrs::kOrigin, FlightsAttrs::kDest}}) {
    aggregate::AggregateSpec spec =
        aggregate::ComputeAggregate(population, attrs);
    aggregate::PerturbAggregate(spec, sigma, noise_rng);
    aggregates.Add(std::move(spec));
  }
  core::ThemisOptions options;
  options.population_size = static_cast<double>(population.num_rows());
  auto model =
      core::ThemisModel::Build(sample->Clone(), aggregates, options);
  ASSERT_TRUE(model.ok()) << model.status().ToString();
  // Weights stay non-negative; CPTs stay simplexes; queries answer.
  for (double w : model->reweighted_sample().weights()) EXPECT_GE(w, 0.0);
  for (size_t v = 0; v < model->network()->num_nodes(); ++v) {
    EXPECT_TRUE(model->network()->cpt(v).RowsAreSimplexes(1e-5));
  }
  core::HybridEvaluator evaluator(&*model);
  auto estimate = evaluator.PointEstimate(
      {FlightsAttrs::kOrigin},
      {*population.schema()->domain(FlightsAttrs::kOrigin).Code("CA")});
  ASSERT_TRUE(estimate.ok());
  EXPECT_GT(*estimate, 0.0);
}

INSTANTIATE_TEST_SUITE_P(NoiseLevels, NoisyAggregateTest,
                         ::testing::Values(0.0, 0.05, 0.2, 0.5));

TEST(NoisyAggregateTest, MildNoiseOnlyMildlyHurtsIpf) {
  data::Table population = workload::GenerateFlights({20000, 94});
  auto sample = workload::MakeFlightsSample(population, "SCorners", 0.1, 95);
  ASSERT_TRUE(sample.ok());
  Rng query_rng(96);
  auto queries = workload::MakePointQueries(
      population, {FlightsAttrs::kOrigin}, workload::HitterClass::kHeavy, 30,
      query_rng);

  auto error_with_noise = [&](double sigma) {
    aggregate::AggregateSet aggregates(population.schema());
    aggregate::AggregateSpec spec = aggregate::ComputeAggregate(
        population, {FlightsAttrs::kOrigin});
    Rng noise_rng(97);
    aggregate::PerturbAggregate(spec, sigma, noise_rng);
    aggregates.Add(std::move(spec));
    data::Table s = sample->Clone();
    reweight::IpfReweighter rw;
    THEMIS_CHECK_OK(
        rw.Reweight(s, aggregates, population.num_rows()));
    double total = 0;
    for (const auto& q : queries) {
      auto groups = s.GroupWeights(q.attrs);
      auto it = groups.find(q.values);
      total += stats::PercentDifference(
          q.true_count, it == groups.end() ? 0.0 : it->second);
    }
    return total / static_cast<double>(queries.size());
  };

  const double clean = error_with_noise(0.0);
  const double noisy = error_with_noise(0.05);
  EXPECT_LT(clean, 1.0);            // exact aggregate -> near-exact marginal
  EXPECT_LT(noisy, clean + 10.0);   // 5% noise costs only a few points
}

TEST(IpfOrderingTest, LaterConstraintsHoldExactlyWhenInfeasible) {
  // With an infeasible system, IPF's end-of-sweep state satisfies the
  // *last* constraints exactly — the property the bench configs exploit by
  // putting 1D marginals last. Documented behaviour, pinned here.
  data::Table population = workload::GenerateFlights({20000, 98});
  auto sample = workload::MakeFlightsSample(population, "Corners", 0.1, 99);
  ASSERT_TRUE(sample.ok());
  aggregate::AggregateSet aggregates(population.schema());
  aggregates.Add(aggregate::ComputeAggregate(
      population, {FlightsAttrs::kDate, FlightsAttrs::kDest}));
  aggregates.Add(
      aggregate::ComputeAggregate(population, {FlightsAttrs::kDate}));
  data::Table s = sample->Clone();
  reweight::IpfReweighter rw;
  ASSERT_TRUE(rw.Reweight(s, aggregates, population.num_rows()).ok());
  // The trailing 1D date aggregate is satisfied on the sample's support.
  auto truth = population.GroupWeights({FlightsAttrs::kDate});
  auto estimate = s.GroupWeights({FlightsAttrs::kDate});
  for (const auto& [key, est] : estimate) {
    EXPECT_NEAR(est, truth[key], 1e-6 * truth[key] + 1e-6);
  }
}

TEST(ThemisDbTest, FileBasedWorkflow) {
  // The CLI path: sample CSV + aggregate CSV from disk into a ThemisDb.
  data::Table population = workload::GenerateFlights({5000, 100});
  Rng rng(101);
  data::Table sample = workload::UniformSample(population, 0.1, rng);
  const auto dir = std::filesystem::temp_directory_path();
  const std::string sample_path = dir / "themis_wf_sample.csv";
  const std::string agg_path = dir / "themis_wf_agg.csv";
  ASSERT_TRUE(data::WriteCsv(sample, sample_path).ok());
  ASSERT_TRUE(aggregate::WriteAggregateCsv(
                  aggregate::ComputeAggregate(population,
                                              {FlightsAttrs::kOrigin}),
                  *population.schema(), agg_path)
                  .ok());

  auto loaded_sample = data::ReadCsv(sample_path);
  ASSERT_TRUE(loaded_sample.ok());
  auto loaded_agg =
      aggregate::ReadAggregateCsv(*loaded_sample->schema(), agg_path);
  ASSERT_TRUE(loaded_agg.ok()) << loaded_agg.status().ToString();

  core::ThemisOptions options;
  options.population_size = static_cast<double>(population.num_rows());
  core::ThemisDb db(options);
  ASSERT_TRUE(db.InsertSample("sample", std::move(loaded_sample).value()).ok());
  ASSERT_TRUE(
      db.InsertAggregate("sample", std::move(loaded_agg).value()).ok());
  ASSERT_TRUE(db.Build().ok());
  auto result =
      db.Query("SELECT origin_state, COUNT(*) FROM sample GROUP BY "
               "origin_state");
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->rows.size(), 10u);
  std::remove(sample_path.c_str());
  std::remove(agg_path.c_str());
}

}  // namespace
}  // namespace themis
