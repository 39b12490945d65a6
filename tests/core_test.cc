#include <gtest/gtest.h>

#include <algorithm>
#include <thread>

#include "core/evaluator.h"
#include "core/model.h"
#include "core/themis_db.h"
#include "util/thread_pool.h"

namespace themis::core {
namespace {

/// Fixture reproducing the paper's running example (Sec 2 / Example 3.1):
/// population of 10 flights, biased sample of 4, Γ = {date; (o_st, d_st)}.
class Example31Test : public ::testing::Test {
 protected:
  void SetUp() override {
    schema_ = std::make_shared<data::Schema>();
    schema_->AddAttribute("date", {"01", "02"});
    schema_->AddAttribute("o_st", {"FL", "NC", "NY"});
    schema_->AddAttribute("d_st", {"FL", "NC", "NY"});
    population_ = std::make_unique<data::Table>(schema_);
    const char* prows[][3] = {
        {"01", "FL", "FL"}, {"01", "FL", "FL"}, {"02", "FL", "NY"},
        {"01", "NC", "FL"}, {"02", "NC", "NY"}, {"02", "NC", "NY"},
        {"02", "NC", "NY"}, {"01", "NY", "FL"}, {"01", "NY", "NC"},
        {"02", "NY", "NY"}};
    for (const auto& r : prows) {
      population_->AppendRowLabels({r[0], r[1], r[2]});
    }
    sample_ = std::make_unique<data::Table>(schema_);
    const char* srows[][3] = {{"01", "FL", "FL"},
                              {"01", "FL", "FL"},
                              {"02", "NC", "NY"},
                              {"01", "NY", "NC"}};
    for (const auto& r : srows) sample_->AppendRowLabels({r[0], r[1], r[2]});
    aggregates_ = aggregate::AggregateSet(schema_);
    aggregates_.Add(aggregate::ComputeAggregate(*population_, {0}));
    aggregates_.Add(aggregate::ComputeAggregate(*population_, {1, 2}));
  }

  ThemisOptions FastOptions() const {
    ThemisOptions options;
    options.bn_group_by_samples = 5;
    options.bn_sample_rows = 50;
    return options;
  }

  data::SchemaPtr schema_;
  std::unique_ptr<data::Table> population_;
  std::unique_ptr<data::Table> sample_;
  aggregate::AggregateSet aggregates_;
};

TEST_F(Example31Test, BuildInfersPopulationSize) {
  auto model =
      ThemisModel::Build(sample_->Clone(), aggregates_, FastOptions());
  ASSERT_TRUE(model.ok()) << model.status().ToString();
  EXPECT_DOUBLE_EQ(model->population_size(), 10.0);
  EXPECT_NE(model->network(), nullptr);
  EXPECT_EQ(model->bn_samples().size(), 5u);
}

TEST_F(Example31Test, ExplicitPopulationSizeWins) {
  ThemisOptions options = FastOptions();
  options.population_size = 42;
  auto model = ThemisModel::Build(sample_->Clone(), aggregates_, options);
  ASSERT_TRUE(model.ok());
  EXPECT_DOUBLE_EQ(model->population_size(), 42.0);
}

TEST_F(Example31Test, EmptySampleRejected) {
  data::Table empty(schema_);
  EXPECT_FALSE(ThemisModel::Build(std::move(empty), aggregates_, {}).ok());
}

TEST_F(Example31Test, HybridUsesSampleForPresentTuples) {
  auto model =
      ThemisModel::Build(sample_->Clone(), aggregates_, FastOptions());
  ASSERT_TRUE(model.ok());
  HybridEvaluator evaluator(&*model);
  // (FL, FL) is in the sample; IPF weight must hit the aggregate count 2.
  auto estimate = evaluator.PointEstimate({1, 2}, {0, 0});
  ASSERT_TRUE(estimate.ok());
  EXPECT_NEAR(*estimate, 2.0, 1e-6);
  EXPECT_TRUE(evaluator.SampleContains({1, 2}, {0, 0}));
}

TEST_F(Example31Test, HybridUsesBnForMissingTuples) {
  auto model =
      ThemisModel::Build(sample_->Clone(), aggregates_, FastOptions());
  ASSERT_TRUE(model.ok());
  HybridEvaluator evaluator(&*model);
  // (FL, NY) exists in P (count 1) but not in S: must be answered by the
  // BN, and the (o_st, d_st) aggregate pins it exactly.
  EXPECT_FALSE(evaluator.SampleContains({1, 2}, {0, 2}));
  auto hybrid = evaluator.PointEstimate({1, 2}, {0, 2});
  ASSERT_TRUE(hybrid.ok());
  EXPECT_NEAR(*hybrid, 1.0, 1e-5);
  // Sample-only answer for the same tuple is 0 (the failure hybrid fixes).
  auto sample_only =
      evaluator.PointEstimate({1, 2}, {0, 2}, AnswerMode::kSampleOnly);
  ASSERT_TRUE(sample_only.ok());
  EXPECT_DOUBLE_EQ(*sample_only, 0.0);
}

TEST_F(Example31Test, ModesDisagreeOnlyWhereExpected) {
  auto model =
      ThemisModel::Build(sample_->Clone(), aggregates_, FastOptions());
  ASSERT_TRUE(model.ok());
  HybridEvaluator evaluator(&*model);
  // For an in-sample tuple hybrid == sample-only.
  auto h = evaluator.PointEstimate({1, 2}, {1, 2});
  auto s = evaluator.PointEstimate({1, 2}, {1, 2}, AnswerMode::kSampleOnly);
  ASSERT_TRUE(h.ok() && s.ok());
  EXPECT_DOUBLE_EQ(*h, *s);
}

TEST_F(Example31Test, GroupByUnionsBnOnlyGroups) {
  auto model =
      ThemisModel::Build(sample_->Clone(), aggregates_, FastOptions());
  ASSERT_TRUE(model.ok());
  HybridEvaluator evaluator(&*model, "flights");
  auto result = evaluator.Query(
      "SELECT o_st, d_st, COUNT(*) FROM flights GROUP BY o_st, d_st");
  ASSERT_TRUE(result.ok());
  // The sample only has 3 distinct (o, d) pairs; the population has 7.
  // Hybrid must return more groups than the sample alone.
  auto sample_result = evaluator.Query(
      "SELECT o_st, d_st, COUNT(*) FROM flights GROUP BY o_st, d_st",
      AnswerMode::kSampleOnly);
  ASSERT_TRUE(sample_result.ok());
  EXPECT_EQ(sample_result->rows.size(), 3u);
  EXPECT_GT(result->rows.size(), sample_result->rows.size());
}

TEST_F(Example31Test, DisabledBnStillAnswers) {
  ThemisOptions options = FastOptions();
  options.enable_bn = false;
  auto model = ThemisModel::Build(sample_->Clone(), aggregates_, options);
  ASSERT_TRUE(model.ok());
  EXPECT_EQ(model->network(), nullptr);
  HybridEvaluator evaluator(&*model);
  auto estimate = evaluator.PointEstimate({1, 2}, {0, 2});
  ASSERT_TRUE(estimate.ok());
  EXPECT_DOUBLE_EQ(*estimate, 0.0);  // falls back to the sample
}

TEST_F(Example31Test, BuildStatsPopulated) {
  auto model =
      ThemisModel::Build(sample_->Clone(), aggregates_, FastOptions());
  ASSERT_TRUE(model.ok());
  EXPECT_EQ(model->build_stats().aggregates_used, 2u);
  EXPECT_GE(model->build_stats().reweight_seconds, 0.0);
  // Example 4.2: the sample misses FL-bound tuples, so IPF stops at its
  // iteration budget with the violation it could not remove.
  EXPECT_FALSE(model->build_stats().reweight_converged);
  EXPECT_EQ(model->build_stats().reweight_iterations, 200);
  EXPECT_GT(model->build_stats().reweight_max_violation, 0.01);
}

TEST_F(Example31Test, BnSamplesBitwiseIdenticalAcrossPoolSizes) {
  // The K tables generate in parallel from jumped-ahead Rng copies; they
  // must equal K SampleTable calls in a row on one Rng(seed), whatever
  // the pool size.
  const ThemisOptions options = FastOptions();
  const size_t hw = std::max(1u, std::thread::hardware_concurrency());
  std::vector<data::Table> expected;
  for (size_t threads : {size_t{1}, size_t{2}, hw}) {
    util::ThreadPool pool(threads);
    auto model =
        ThemisModel::Build(sample_->Clone(), aggregates_, options, &pool);
    ASSERT_TRUE(model.ok()) << model.status().ToString();
    if (expected.empty()) {
      Rng rng(options.seed);
      for (size_t k = 0; k < options.bn_group_by_samples; ++k) {
        expected.push_back(model->network()->SampleTable(
            options.bn_sample_rows, model->population_size(), rng));
      }
    }
    ASSERT_EQ(model->bn_samples().size(), expected.size());
    for (size_t k = 0; k < expected.size(); ++k) {
      const data::Table& got = model->bn_samples()[k];
      ASSERT_EQ(got.num_rows(), expected[k].num_rows());
      for (size_t a = 0; a < got.num_attributes(); ++a) {
        EXPECT_EQ(got.column(a), expected[k].column(a))
            << threads << " threads, sample " << k << ", attribute " << a;
      }
      EXPECT_EQ(got.weights(), expected[k].weights());
    }
  }
}

TEST_F(Example31Test, ThemisDbEndToEnd) {
  ThemisDb db(FastOptions());
  ASSERT_TRUE(db.InsertSample("flights", sample_->Clone()).ok());
  ASSERT_TRUE(
      db.InsertAggregateFrom("flights", *population_, {"date"}).ok());
  ASSERT_TRUE(
      db.InsertAggregateFrom("flights", *population_, {"o_st", "d_st"})
          .ok());
  ASSERT_TRUE(db.Build().ok());
  EXPECT_TRUE(db.built());
  auto count = db.PointQuery({{"o_st", "FL"}, {"d_st", "FL"}});
  ASSERT_TRUE(count.ok());
  EXPECT_NEAR(*count, 2.0, 1e-6);
  auto missing = db.PointQuery({{"o_st", "FL"}, {"d_st", "NY"}});
  ASSERT_TRUE(missing.ok());
  EXPECT_NEAR(*missing, 1.0, 1e-5);
  auto sql_result =
      db.Query("SELECT o_st, COUNT(*) FROM flights GROUP BY o_st");
  ASSERT_TRUE(sql_result.ok());
  EXPECT_EQ(sql_result->rows.size(), 3u);
}

TEST_F(Example31Test, ThemisDbLifecycleErrors) {
  ThemisDb db(FastOptions());
  EXPECT_FALSE(db.Build().ok());  // no sample yet
  EXPECT_FALSE(db.Query("SELECT COUNT(*) FROM flights").ok());
  ASSERT_TRUE(db.InsertSample("flights", sample_->Clone()).ok());
  // A second relation under a fresh name is welcome now; re-registering a
  // taken name is the error.
  ASSERT_TRUE(db.InsertSample("again", sample_->Clone()).ok());
  EXPECT_EQ(db.InsertSample("flights", sample_->Clone()).code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(db.InsertAggregate("wrong_table", {}).code(),
            StatusCode::kNotFound);
  aggregate::AggregateSpec bad;
  bad.attrs = {99};
  EXPECT_FALSE(db.InsertAggregate("flights", bad).ok());
  // Registered but unbuilt relations answer with FailedPrecondition;
  // unknown FROM tables with NotFound.
  EXPECT_EQ(db.Query("SELECT COUNT(*) FROM flights").status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(db.Query("SELECT COUNT(*) FROM nope").status().code(),
            StatusCode::kNotFound);
  ASSERT_TRUE(db.DropRelation("again").ok());
  EXPECT_EQ(db.DropRelation("again").code(), StatusCode::kNotFound);
}

TEST_F(Example31Test, PointQueryUnknownValueReturnsZero) {
  ThemisDb db(FastOptions());
  ASSERT_TRUE(db.InsertSample("flights", sample_->Clone()).ok());
  ASSERT_TRUE(
      db.InsertAggregateFrom("flights", *population_, {"date"}).ok());
  ASSERT_TRUE(db.Build().ok());
  auto result = db.PointQuery({{"o_st", "ZZ"}});
  ASSERT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ(*result, 0.0);
  EXPECT_FALSE(db.PointQuery({{"nope", "FL"}}).ok());
}

TEST_F(Example31Test, SqlPointQueryRoutesThroughExactInference) {
  auto model =
      ThemisModel::Build(sample_->Clone(), aggregates_, FastOptions());
  ASSERT_TRUE(model.ok());
  HybridEvaluator evaluator(&*model, "flights");
  // (FL, NY) is absent from the sample: the SQL path must match the exact
  // hybrid point estimate (BN inference), not the sampled group-by answer.
  auto sql_result = evaluator.Query(
      "SELECT COUNT(*) FROM flights WHERE o_st = 'FL' AND d_st = 'NY'");
  ASSERT_TRUE(sql_result.ok());
  ASSERT_EQ(sql_result->rows.size(), 1u);
  auto direct = evaluator.PointEstimate({1, 2}, {0, 2});
  ASSERT_TRUE(direct.ok());
  EXPECT_DOUBLE_EQ(sql_result->rows[0].values[0], *direct);
  EXPECT_NEAR(sql_result->rows[0].values[0], 1.0, 1e-5);
}

TEST_F(Example31Test, SqlPointQueryUnknownValueIsZero) {
  auto model =
      ThemisModel::Build(sample_->Clone(), aggregates_, FastOptions());
  ASSERT_TRUE(model.ok());
  HybridEvaluator evaluator(&*model, "flights");
  auto result = evaluator.Query(
      "SELECT COUNT(*) FROM flights WHERE o_st = 'ZZ'");
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->rows.size(), 1u);
  EXPECT_DOUBLE_EQ(result->rows[0].values[0], 0.0);
}

TEST_F(Example31Test, NonPointSqlStillUsesGroupByPath) {
  auto model =
      ThemisModel::Build(sample_->Clone(), aggregates_, FastOptions());
  ASSERT_TRUE(model.ok());
  HybridEvaluator evaluator(&*model, "flights");
  // Range predicate disqualifies the point fast-path; must still answer.
  auto result = evaluator.Query(
      "SELECT COUNT(*) FROM flights WHERE date <> '02'");
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->rows.size(), 1u);
  EXPECT_GT(result->rows[0].values[0], 0.0);
}

TEST(ReweightMethodNameTest, AllNamed) {
  EXPECT_STREQ(ReweightMethodName(ReweightMethod::kUniform), "AQP");
  EXPECT_STREQ(ReweightMethodName(ReweightMethod::kLinReg), "LinReg");
  EXPECT_STREQ(ReweightMethodName(ReweightMethod::kIpf), "IPF");
}

}  // namespace
}  // namespace themis::core
