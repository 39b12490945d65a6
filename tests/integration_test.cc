#include <gtest/gtest.h>

#include "stats/descriptive.h"
#include "workload/experiment.h"
#include "workload/flights.h"
#include "workload/queries.h"
#include "workload/sampler.h"

namespace themis {
namespace {

using workload::FlightsAttrs;

/// Full-pipeline fixture: a flights population, the SCorners biased sample
/// and a Γ with full 1D coverage plus informative 2D aggregates — a scaled
/// version of the paper's main experimental configuration.
class FullPipelineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    population_ = new data::Table(workload::GenerateFlights({40000, 77}));
    auto sample = workload::MakeFlightsSample(*population_, "SCorners", 0.1,
                                              78);
    THEMIS_CHECK(sample.ok());
    sample_ = new data::Table(std::move(sample).value());
    // 2D aggregates first, 1D marginals last: Alg 1 sweeps constraints in
    // order, so when the sparse 2D constraints make the system infeasible
    // the trustworthy 1D marginals still hold exactly at sweep end
    // (standard raking practice).
    std::vector<std::vector<size_t>> sets = {
        {FlightsAttrs::kElapsed, FlightsAttrs::kDistance},
        {FlightsAttrs::kDest, FlightsAttrs::kDistance},
        {FlightsAttrs::kOrigin, FlightsAttrs::kDistance},
        {FlightsAttrs::kDate, FlightsAttrs::kDest},
        {FlightsAttrs::kDate},
        {FlightsAttrs::kOrigin},
        {FlightsAttrs::kDest},
        {FlightsAttrs::kElapsed},
        {FlightsAttrs::kDistance}};
    core::ThemisOptions options;
    auto suite = workload::MethodSuite::Build(
        *sample_, workload::MakeAggregates(*population_, sets),
        population_->num_rows(), options);
    THEMIS_CHECK(suite.ok()) << suite.status().ToString();
    suite_ = new workload::MethodSuite(std::move(suite).value());
  }

  static void TearDownTestSuite() {
    delete suite_;
    delete sample_;
    delete population_;
    suite_ = nullptr;
    sample_ = nullptr;
    population_ = nullptr;
  }

  static data::Table* population_;
  static data::Table* sample_;
  static workload::MethodSuite* suite_;
};

data::Table* FullPipelineTest::population_ = nullptr;
data::Table* FullPipelineTest::sample_ = nullptr;
workload::MethodSuite* FullPipelineTest::suite_ = nullptr;

TEST_F(FullPipelineTest, IpfBeatsAqpOnHeavyHitters) {
  // The paper's headline claim (Table 4): large median improvement over
  // uniform reweighting for heavy hitter queries on biased samples.
  Rng rng(1);
  auto queries = workload::MakeMixedPointQueries(
      *population_, 2, 2, workload::HitterClass::kHeavy, 60, rng);
  auto aqp = suite_->Errors("AQP", queries);
  auto ipf = suite_->Errors("IPF", queries);
  ASSERT_TRUE(aqp.ok() && ipf.ok());
  EXPECT_LT(stats::Median(*ipf), 0.6 * stats::Median(*aqp));
}

TEST_F(FullPipelineTest, HybridBeatsReweightingOnLightHitters) {
  // Fig 3's light-hitter panel: reweighting saturates at 200 for tuples
  // missing from the sample; the hybrid's BN fallback does far better.
  Rng rng(2);
  auto queries = workload::MakeMixedPointQueries(
      *population_, 2, 2, workload::HitterClass::kLight, 60, rng);
  auto ipf = suite_->Errors("IPF", queries);
  auto hybrid = suite_->Errors("Hybrid", queries);
  ASSERT_TRUE(ipf.ok() && hybrid.ok());
  EXPECT_LT(stats::Mean(*hybrid), stats::Mean(*ipf));
}

TEST_F(FullPipelineTest, HybridMatchesIpfOnInSampleTuples) {
  Rng rng(3);
  auto queries = workload::MakePointQueries(
      *population_, {FlightsAttrs::kOrigin}, workload::HitterClass::kHeavy,
      20, rng);
  auto ipf = suite_->Errors("IPF", queries);
  auto hybrid = suite_->Errors("Hybrid", queries);
  ASSERT_TRUE(ipf.ok() && hybrid.ok());
  // Heavy 1D hitters are always in the sample: hybrid routes to IPF.
  for (size_t i = 0; i < ipf->size(); ++i) {
    EXPECT_DOUBLE_EQ((*ipf)[i], (*hybrid)[i]);
  }
}

TEST_F(FullPipelineTest, GroupByCountsApproximatePopulation) {
  auto result = suite_->Query(
      "Hybrid",
      "SELECT origin_state, COUNT(*) FROM sample GROUP BY origin_state");
  ASSERT_TRUE(result.ok());
  auto truth = population_->GroupWeights({FlightsAttrs::kOrigin});
  const auto& domain =
      population_->schema()->domain(FlightsAttrs::kOrigin);
  // Heavy states must be close after IPF debiasing, and strictly better
  // than uniform reweighting (the paper's comparative claim).
  auto aqp_result = suite_->Query(
      "AQP",
      "SELECT origin_state, COUNT(*) FROM sample GROUP BY origin_state");
  ASSERT_TRUE(aqp_result.ok());
  auto map = result->ValueMap();
  auto aqp_map = aqp_result->ValueMap();
  for (const char* state : {"CA", "TX", "NY", "FL"}) {
    const double t = truth[{*domain.Code(state)}];
    ASSERT_TRUE(map.count(state)) << state;
    EXPECT_NEAR(map[state], t, 0.25 * t) << state;
    EXPECT_LT(std::abs(map[state] - t), std::abs(aqp_map[state] - t))
        << state;
  }
}

TEST_F(FullPipelineTest, SqlAvgQueryRuns) {
  auto result = suite_->Query(
      "Hybrid",
      "SELECT origin_state, AVG(elapsed_time) FROM sample "
      "WHERE dest_state = 'CA' GROUP BY origin_state");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(result->rows.size(), 0u);
  for (const auto& row : result->rows) {
    EXPECT_GT(row.values[0], 0.0);
    EXPECT_LT(row.values[0], 600.0);
  }
}

TEST_F(FullPipelineTest, SelfJoinQueryRuns) {
  auto result = suite_->Query(
      "IPF",
      "SELECT t.origin_state, COUNT(*) FROM sample t, sample s "
      "WHERE t.dest_state = s.origin_state AND t.dest_state IN ('WY') "
      "GROUP BY t.origin_state");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
}

TEST_F(FullPipelineTest, BnMarginalTableSharesSchemaAndScale) {
  // GROUP BYs read the BN through marginal tables: they must decode with
  // the sample's schema and weigh N in total, like the sample itself.
  const auto& model = suite_->full_model();
  EXPECT_TRUE(model.bn_samples().empty());
  const bn::InferenceEngine* engine =
      suite_->full_evaluator().inference_engine();
  ASSERT_NE(engine, nullptr);
  auto table = engine->MarginalTable(
      {FlightsAttrs::kDest, FlightsAttrs::kOrigin}, model.population_size());
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  EXPECT_EQ((*table)->schema(), model.reweighted_sample().schema());
  EXPECT_NEAR((*table)->TotalWeight(), model.population_size(),
              1e-9 * model.population_size());
}

TEST_F(FullPipelineTest, ReweightedSampleSumsToPopulation) {
  EXPECT_NEAR(suite_->full_model().reweighted_sample().TotalWeight(),
              suite_->full_model().population_size(),
              0.05 * suite_->full_model().population_size());
}

}  // namespace
}  // namespace themis
