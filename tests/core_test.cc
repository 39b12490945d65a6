#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <thread>

#include "bn/learn.h"
#include "core/evaluator.h"
#include "core/model.h"
#include "core/themis_db.h"
#include "reweight/ipf.h"
#include "sql/executor.h"
#include "sql/parser.h"
#include "util/thread_pool.h"
#include "workload/flights.h"
#include "workload/sampler.h"

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
  // The two (01, FL, FL) rows merge; 5 BN samples of 50 draws shrink too.
  const BuildStats& stats = model->build_stats();
  EXPECT_EQ(stats.sample_rows, 4u);
  EXPECT_EQ(stats.sample_classes, 3u);
  EXPECT_EQ(model->reweighted_sample().num_rows(), 3u);
  EXPECT_EQ(stats.bn_rows, 250u);
  size_t bn_classes = 0;
  for (const data::Table& t : model->bn_samples()) bn_classes += t.num_rows();
  EXPECT_EQ(stats.bn_classes, bn_classes);
  EXPECT_LT(stats.bn_classes, stats.bn_rows);
  EXPECT_GE(stats.compact_seconds, 0.0);
}

TEST_F(Example31Test, BnSamplesBitwiseIdenticalAcrossPoolSizes) {
  // The K tables generate and compact in parallel from jumped-ahead Rng
  // copies; they must equal the compacted outputs of K SampleTable calls
  // in a row on one Rng(seed), whatever the pool size.
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
        expected.push_back(
            model->network()
                ->SampleTable(options.bn_sample_rows,
                              model->population_size(), rng)
                .Compact());
        // 50 draws over 18 possible tuples must repeat some.
        ASSERT_LT(expected.back().num_rows(), options.bn_sample_rows);
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

void ExpectSameNetwork(const bn::BayesianNetwork& got,
                       const bn::BayesianNetwork& want) {
  EXPECT_EQ(got.dag().Edges(), want.dag().Edges());
  ASSERT_EQ(got.num_nodes(), want.num_nodes());
  for (size_t v = 0; v < want.num_nodes(); ++v) {
    EXPECT_EQ(got.cpt(v).parents(), want.cpt(v).parents()) << "node " << v;
    EXPECT_EQ(got.cpt(v).flat(), want.cpt(v).flat()) << "node " << v;
  }
}

/// Every BN variant learned from `sample`'s rows at unit weight and from
/// their compaction, whose weights are the rows' exact multiplicities:
/// each count learning takes is the same integer, so the networks must be
/// bitwise equal. Returns the default variant's network from the rows.
Result<bn::BayesianNetwork> ExpectCompactedSampleLearnsSameBn(
    const data::Table& sample, const aggregate::AggregateSet& aggregates) {
  data::Table rows = sample.Clone();
  rows.FillWeights(1.0);
  const data::Table compacted = rows.Compact();
  EXPECT_LT(compacted.num_rows(), rows.num_rows());
  for (bn::BnVariant variant : {bn::BnVariant::kSS, bn::BnVariant::kSB,
                                bn::BnVariant::kBS, bn::BnVariant::kBB,
                                bn::BnVariant::kAB}) {
    bn::BnLearnOptions options;
    options.variant = variant;
    auto from_rows =
        bn::LearnBayesNet(rows.schema(), &rows, &aggregates, options);
    auto from_compacted =
        bn::LearnBayesNet(rows.schema(), &compacted, &aggregates, options);
    EXPECT_TRUE(from_rows.ok() && from_compacted.ok());
    if (!from_rows.ok() || !from_compacted.ok()) break;
    SCOPED_TRACE(bn::BnVariantName(variant));
    ExpectSameNetwork(*from_compacted, *from_rows);
  }
  return bn::LearnBayesNet(rows.schema(), &rows, &aggregates,
                           ThemisOptions{}.bn);
}

TEST_F(Example31Test, BnFromCompactedSampleIsBitwiseTheRowLevelOne) {
  auto from_rows = ExpectCompactedSampleLearnsSameBn(*sample_, aggregates_);
  ASSERT_TRUE(from_rows.ok());
  auto model =
      ThemisModel::Build(sample_->Clone(), aggregates_, FastOptions());
  ASSERT_TRUE(model.ok());
  ExpectSameNetwork(*model->network(), *from_rows);
}

/// A biased flights sample (Corners, as the benchmark serves) with a 2-D
/// and two 1-D aggregates: many of its rows repeat a tuple.
class CompactedFlightsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    workload::FlightsConfig config;
    config.num_rows = 20000;
    population_ =
        std::make_unique<data::Table>(workload::GenerateFlights(config));
    auto sample =
        workload::MakeFlightsSample(*population_, "Corners", 0.1, 23);
    ASSERT_TRUE(sample.ok());
    sample_ = std::make_unique<data::Table>(std::move(sample).value());
    aggregates_ = aggregate::AggregateSet(population_->schema());
    aggregates_.Add(aggregate::ComputeAggregate(
        *population_,
        {workload::FlightsAttrs::kOrigin, workload::FlightsAttrs::kDest}));
    aggregates_.Add(aggregate::ComputeAggregate(
        *population_, {workload::FlightsAttrs::kDate}));
    aggregates_.Add(aggregate::ComputeAggregate(
        *population_, {workload::FlightsAttrs::kDistance}));
  }

  std::unique_ptr<data::Table> population_;
  std::unique_ptr<data::Table> sample_;
  aggregate::AggregateSet aggregates_;
};

TEST_F(CompactedFlightsTest, BnFromCompactedSampleIsBitwiseTheRowLevelOne) {
  auto from_rows = ExpectCompactedSampleLearnsSameBn(*sample_, aggregates_);
  ASSERT_TRUE(from_rows.ok());
  auto model = ThemisModel::Build(sample_->Clone(), aggregates_);
  ASSERT_TRUE(model.ok());
  ExpectSameNetwork(*model->network(), *from_rows);
}

/// Same groups, and every value within 1e-12 relative.
void ExpectSameAnswer(const sql::QueryResult& got,
                      const sql::QueryResult& want, const std::string& what) {
  ASSERT_EQ(got.rows.size(), want.rows.size()) << what;
  for (size_t i = 0; i < want.rows.size(); ++i) {
    EXPECT_EQ(got.rows[i].group, want.rows[i].group) << what;
    ASSERT_EQ(got.rows[i].values.size(), want.rows[i].values.size());
    for (size_t j = 0; j < want.rows[i].values.size(); ++j) {
      const double w = want.rows[i].values[j];
      EXPECT_NEAR(got.rows[i].values[j], w, 1e-12 * std::abs(w))
          << what << " row " << i << " value " << j;
    }
  }
}

TEST_F(CompactedFlightsTest, AnswersMatchRowTables) {
  ThemisOptions options;
  options.bn_group_by_samples = 3;
  auto model = ThemisModel::Build(sample_->Clone(), aggregates_, options);
  ASSERT_TRUE(model.ok());
  // The row tables the model compacted: the sample reweighted the same
  // way, and the K BN samples drawn from one Rng(seed).
  data::Table rows = sample_->Clone();
  reweight::IpfReweighter ipf(options.ipf);
  ASSERT_TRUE(
      ipf.Reweight(rows, model->aggregates(), model->population_size()).ok());
  ASSERT_LT(model->reweighted_sample().num_rows(), rows.num_rows());
  std::vector<data::Table> bn_rows;
  Rng rng(options.seed);
  for (size_t k = 0; k < options.bn_group_by_samples; ++k) {
    bn_rows.push_back(model->network()->SampleTable(
        rows.num_rows(), model->population_size(), rng));
  }

  const std::vector<std::string> queries = {
      "SELECT origin_state, COUNT(*), SUM(distance), AVG(elapsed_time) "
      "FROM flights GROUP BY origin_state",
      "SELECT fl_date, dest_state, COUNT(*), AVG(distance) FROM flights "
      "WHERE distance < 1000 GROUP BY fl_date, dest_state",
      "SELECT COUNT(*), SUM(elapsed_time) FROM flights "
      "WHERE origin_state = 'CA'",
      "SELECT a.fl_date, COUNT(*), SUM(b.distance), AVG(a.elapsed_time) "
      "FROM flights a, flights b WHERE a.dest_state = b.origin_state "
      "AND a.fl_date = b.fl_date GROUP BY a.fl_date",
  };
  auto expect_same_answers = [&](const data::Table& compacted,
                                 const data::Table& row_table,
                                 const std::string& what) {
    sql::Executor got_exec;
    got_exec.RegisterTable("flights", &compacted);
    sql::Executor want_exec;
    want_exec.RegisterTable("flights", &row_table);
    for (const std::string& sql : queries) {
      auto stmt = sql::Parse(sql);
      ASSERT_TRUE(stmt.ok()) << sql;
      auto got = got_exec.Execute(*stmt);
      auto want = want_exec.Execute(*stmt);
      ASSERT_TRUE(got.ok() && want.ok()) << sql;
      ASSERT_FALSE(want->rows.empty()) << sql;
      ExpectSameAnswer(*got, *want, what + ": " + sql);
    }
  };
  expect_same_answers(model->reweighted_sample(), rows, "sample");
  ASSERT_EQ(model->bn_samples().size(), bn_rows.size());
  for (size_t k = 0; k < bn_rows.size(); ++k) {
    expect_same_answers(model->bn_samples()[k], bn_rows[k],
                        "BN sample " + std::to_string(k));
  }

  // Hybrid points (Sec 4.3) on population tuples: the sample's mass when
  // the rows contain the tuple, the BN's estimate otherwise.
  HybridEvaluator evaluator(&*model, "flights");
  const std::vector<size_t> attrs = {workload::FlightsAttrs::kDate,
                                     workload::FlightsAttrs::kOrigin,
                                     workload::FlightsAttrs::kDest};
  const auto masses = rows.GroupWeights(attrs);
  size_t from_sample = 0;
  for (size_t r = 0; r < population_->num_rows(); r += 97) {
    const data::TupleKey key = population_->KeyFor(r, attrs);
    auto got = evaluator.PointEstimate(attrs, key);
    ASSERT_TRUE(got.ok());
    auto it = masses.find(key);
    if (it != masses.end()) {
      ++from_sample;
      EXPECT_NEAR(*got, it->second, 1e-12 * std::abs(it->second));
    } else {
      auto bn = evaluator.PointEstimate(attrs, key, AnswerMode::kBnOnly);
      ASSERT_TRUE(bn.ok());
      EXPECT_EQ(*got, *bn);
    }
  }
  EXPECT_GT(from_sample, 0u);
  EXPECT_LT(from_sample, (population_->num_rows() + 96) / 97);
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
