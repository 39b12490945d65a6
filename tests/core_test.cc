#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <set>
#include <thread>

#include "aggregate/aggregate_io.h"
#include "aggregate/pruning.h"
#include "bn/inference.h"
#include "bn/learn.h"
#include "core/evaluator.h"
#include "core/model.h"
#include "core/themis_db.h"
#include "data/csv.h"
#include "data/row_classes.h"
#include "reweight/incidence.h"
#include "reweight/ipf.h"
#include "sql/executor.h"
#include "sql/parser.h"
#include "stats/metrics.h"
#include "util/string_util.h"
#include "util/thread_pool.h"
#include "workload/experiment.h"
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

  ThemisOptions FastOptions() const { return ThemisOptions(); }

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
  EXPECT_TRUE(model->bn_samples().empty());  // no BN samples are drawn
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
  // The hybrid answer is the sample's groups plus the BN's consensus
  // groups the sample lacks. Here n = 4: the (o_st, d_st) pairs the
  // sample misses have Pr = 0.1 each (the aggregate pins them), so a draw
  // of 4 expects 0.4 < ln 2 of each and the hybrid adds none of them.
  // ConsensusTest covers a group the hybrid adds.
  for (const char* sql :
       {"SELECT o_st, d_st, COUNT(*) FROM flights GROUP BY o_st, d_st",
        "SELECT date, o_st, COUNT(*) FROM flights GROUP BY date, o_st"}) {
    auto hybrid = evaluator.Query(sql);
    auto sample = evaluator.Query(sql, AnswerMode::kSampleOnly);
    auto bn = evaluator.Query(sql, AnswerMode::kBnOnly);
    ASSERT_TRUE(hybrid.ok() && sample.ok() && bn.ok()) << sql;
    EXPECT_EQ(sample->rows.size(), 3u) << sql;
    std::map<std::vector<std::string>, std::vector<double>> want;
    for (const sql::ResultRow& row : bn->rows) want[row.group] = row.values;
    for (const sql::ResultRow& row : sample->rows) {
      want[row.group] = row.values;
    }
    ASSERT_EQ(hybrid->rows.size(), want.size()) << sql;
    for (const sql::ResultRow& row : hybrid->rows) {
      ASSERT_TRUE(want.count(row.group)) << sql;
      EXPECT_EQ(row.values, want[row.group]) << sql;
    }
  }
  auto pairs = evaluator.Query(
      "SELECT o_st, d_st, COUNT(*) FROM flights GROUP BY o_st, d_st",
      AnswerMode::kBnOnly);
  ASSERT_TRUE(pairs.ok());
  const auto bn_pairs = pairs->ValueMap();
  EXPECT_EQ(bn_pairs.size(), 2u);  // FL|FL (2 of 10) and NC|NY (3 of 10)
  EXPECT_EQ(bn_pairs.count("FL|NY"), 0u);
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
  // The two (01, FL, FL) rows merge; no BN samples are generated.
  const BuildStats& stats = model->build_stats();
  EXPECT_EQ(stats.sample_rows, 4u);
  EXPECT_EQ(stats.sample_classes, 3u);
  EXPECT_EQ(model->reweighted_sample().num_rows(), 3u);
  EXPECT_GE(stats.compact_seconds, 0.0);
  EXPECT_EQ(stats.generate_seconds, 0.0);
}

TEST_F(Example31Test, BnSelfJoinRunsOverMarginalTable) {
  // The BN side of a self-join joins alias a's (o_st, d_st) marginal
  // table with alias b's o_st one: each pair weighs N·P(a)·N·P(b), as the
  // sample path multiplies weights. Groups are then kept by the r = 2
  // consensus rule.
  auto model =
      ThemisModel::Build(sample_->Clone(), aggregates_, FastOptions());
  ASSERT_TRUE(model.ok());
  HybridEvaluator evaluator(&*model, "flights");
  const uint64_t scanned_before = evaluator.executor_stats().rows_scanned;
  auto result = evaluator.Query(
      "SELECT a.o_st, COUNT(*) FROM flights a, flights b "
      "WHERE a.d_st = b.o_st GROUP BY a.o_st",
      AnswerMode::kBnOnly);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // Each side scans its own marginal table; nothing else is read.
  auto pair_table = evaluator.inference_engine()->MarginalTable(
      {1, 2}, model->population_size());
  auto origin_table = evaluator.inference_engine()->MarginalTable(
      {1}, model->population_size());
  ASSERT_TRUE(pair_table.ok() && origin_table.ok());
  EXPECT_EQ(evaluator.executor_stats().rows_scanned - scanned_before,
            (*pair_table)->num_rows() + (*origin_table)->num_rows());

  bn::VariableElimination ve(model->network());
  auto joint = ve.Marginal({1, 2});
  auto origin = ve.Marginal({1});
  ASSERT_TRUE(joint.ok() && origin.ok());
  const double n_total = model->population_size();
  const double share = 4.0 / n_total;  // n = 4 sample rows
  const auto& states = schema_->domain(1);
  std::map<std::string, double> want;
  for (data::ValueCode o = 0; o < 3; ++o) {
    double count = 0;
    for (data::ValueCode d = 0; d < 3; ++d) {
      count += n_total * joint->Mass({o, d}) * n_total * origin->Mass({d});
    }
    if (count * share * share >= std::log(2.0)) want[states.Label(o)] = count;
  }
  ASSERT_FALSE(want.empty());
  const auto got = result->ValueMap();
  ASSERT_EQ(got.size(), want.size());
  for (const auto& [group, count] : want) {
    ASSERT_TRUE(got.count(group)) << group;
    EXPECT_NEAR(got.at(group), count, 1e-9 * count) << group;
  }
}

TEST(FactorBoundTest, PastTheBoundHybridAnswersFromTheSample) {
  // Four 60-value attributes: a GROUP BY over all four needs a 60^4-cell
  // marginal, past bn::kMaxFactorCells, so the BN side fails with
  // ResourceExhausted. BN-only reports it; the hybrid degrades to the
  // sample's answer. Three attributes (216,000 cells) still fit.
  static_assert(60 * 60 * 60 * 60 > bn::kMaxFactorCells);
  static_assert(60 * 60 * 60 <= bn::kMaxFactorCells);
  auto schema = std::make_shared<data::Schema>();
  std::vector<std::string> labels;
  for (int i = 0; i < 60; ++i) labels.push_back(std::to_string(i));
  for (const char* name : {"a", "b", "c", "d"}) {
    schema->AddAttribute(name, labels);
  }
  data::Table population(schema, 20000, 1.0);
  Rng rng(3);
  for (size_t r = 0; r < population.num_rows(); ++r) {
    for (size_t a = 0; a < 4; ++a) {
      population.Set(r, a, static_cast<data::ValueCode>(rng.UniformInt(0, 59)));
    }
  }
  std::vector<bool> keep(population.num_rows());
  for (size_t r = 0; r < keep.size(); ++r) keep[r] = r % 10 == 0;
  aggregate::AggregateSet aggregates(schema);
  for (size_t a = 0; a < 4; ++a) {
    aggregates.Add(aggregate::ComputeAggregate(population, {a}));
  }
  auto model = ThemisModel::Build(population.Filter(keep), aggregates);
  ASSERT_TRUE(model.ok()) << model.status().ToString();
  HybridEvaluator evaluator(&*model, "t");

  const std::string wide =
      "SELECT a, b, c, d, COUNT(*) FROM t GROUP BY a, b, c, d";
  auto bn = evaluator.Query(wide, AnswerMode::kBnOnly);
  ASSERT_FALSE(bn.ok());
  EXPECT_EQ(bn.status().code(), StatusCode::kResourceExhausted);
  auto hybrid = evaluator.Query(wide);
  auto sample = evaluator.Query(wide, AnswerMode::kSampleOnly);
  ASSERT_TRUE(hybrid.ok() && sample.ok());
  ASSERT_EQ(hybrid->rows.size(), sample->rows.size());
  for (size_t i = 0; i < sample->rows.size(); ++i) {
    EXPECT_EQ(hybrid->rows[i].group, sample->rows[i].group);
    EXPECT_EQ(hybrid->rows[i].values, sample->rows[i].values);
  }
  EXPECT_TRUE(evaluator
                  .Query("SELECT a, b, c, COUNT(*) FROM t GROUP BY a, b, c",
                         AnswerMode::kBnOnly)
                  .ok());
}

/// One attribute whose published counts put two groups on either side of
/// the consensus threshold: with n = 100 sample rows, group 2 expects
/// 100 · 692/100000 = 0.692 tuples in a draw of n (below ln 2 = 0.6931…)
/// and group 3 expects 0.694 (above). Neither is in the sample.
TEST(ConsensusTest, ThresholdSplitsGroupsAtLn2) {
  auto schema = std::make_shared<data::Schema>();
  schema->AddAttribute("a", {"1", "2", "3"});
  data::Table population(schema, 100000, 1.0);
  for (size_t r = 0; r < 692; ++r) population.Set(r, 0, 1);
  for (size_t r = 692; r < 692 + 694; ++r) population.Set(r, 0, 2);
  data::Table sample(schema, 100, 1.0);  // every row is a = 1
  aggregate::AggregateSet aggregates(schema);
  aggregates.Add(aggregate::ComputeAggregate(population, {0}));
  auto model = ThemisModel::Build(std::move(sample), aggregates);
  ASSERT_TRUE(model.ok()) << model.status().ToString();
  ASSERT_DOUBLE_EQ(model->population_size(), 100000.0);
  ASSERT_EQ(model->build_stats().sample_rows, 100u);

  // The 1-D aggregate pins the BN, so the hand computation holds.
  bn::VariableElimination ve(model->network());
  auto marginal = ve.Marginal({0});
  ASSERT_TRUE(marginal.ok());
  EXPECT_NEAR(marginal->Mass({1}), 0.00692, 1e-9);
  EXPECT_NEAR(marginal->Mass({2}), 0.00694, 1e-9);

  HybridEvaluator evaluator(&*model, "t");
  const std::string sql = "SELECT a, COUNT(*) FROM t GROUP BY a";
  auto bn_only = evaluator.Query(sql, AnswerMode::kBnOnly);
  ASSERT_TRUE(bn_only.ok()) << bn_only.status().ToString();
  auto bn_groups = bn_only->ValueMap();
  EXPECT_EQ(bn_groups.count("2"), 0u);
  ASSERT_EQ(bn_groups.count("3"), 1u);
  EXPECT_NEAR(bn_groups["3"], 694.0, 1e-4);
  EXPECT_EQ(bn_groups.count("1"), 1u);

  // The hybrid adds group 3 to the sample's group 1; group 2 stays out.
  // The COUNT mass decides for a SUM-only statement too.
  auto hybrid = evaluator.Query(sql);
  ASSERT_TRUE(hybrid.ok());
  ASSERT_EQ(hybrid->rows.size(), 2u);
  EXPECT_EQ(hybrid->rows[0].group, std::vector<std::string>{"1"});
  EXPECT_EQ(hybrid->rows[1].group, std::vector<std::string>{"3"});
  auto sum_only = evaluator.Query("SELECT a, SUM(a) FROM t GROUP BY a",
                                  AnswerMode::kBnOnly);
  ASSERT_TRUE(sum_only.ok());
  ASSERT_EQ(sum_only->rows.size(), 2u);
  EXPECT_EQ(sum_only->value_names, std::vector<std::string>{"sum_a"});
  EXPECT_NEAR(sum_only->rows[1].values[0], 3 * 694.0, 3e-4);
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

/// True when `a` and `b` hold the same doubles bit for bit.
bool Bitwise(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/// IPF over distinct-tuple classes with its sweeps over the incidence
/// matrix's own size_t indices and separate count and weight arrays: the
/// row weights IpfReweighter must give bit for bit.
std::vector<double> ReferenceIpfRowWeights(
    const data::Table& sample, const aggregate::AggregateSet& aggregates,
    const reweight::IpfOptions& options) {
  const data::RowClasses classes =
      data::ClassifyRows(sample, aggregates.CoveredAttributes());
  std::vector<bool> first_row(sample.num_rows(), false);
  for (uint32_t r : classes.first_row) first_row[r] = true;
  const reweight::IncidenceSystem sys =
      reweight::BuildIncidence(sample.Filter(first_row), aggregates);
  const std::vector<double> count(classes.count.begin(), classes.count.end());
  std::vector<double> w(count.size(), 1.0);
  auto row_sum = [&](size_t j) {
    double s = 0;
    for (size_t c : sys.g.Row(j)) s += count[c] * w[c];
    return s;
  };
  for (int iter = 0; iter < options.max_iterations; ++iter) {
    for (size_t j = 0; j < sys.g.rows(); ++j) {
      if (sys.g.Row(j).empty()) continue;
      const double got = row_sum(j);
      if (got == sys.y[j] || got <= 0.0) continue;
      const double s = sys.y[j] / got;
      for (size_t c : sys.g.Row(j)) w[c] *= s;
    }
    double worst = 0;
    for (size_t j = 0; j < sys.g.rows(); ++j) {
      if (sys.g.Row(j).empty()) continue;
      worst = std::max(worst, std::abs(row_sum(j) - sys.y[j]) /
                                  std::max(1.0, std::abs(sys.y[j])));
    }
    if (worst <= options.tolerance) break;
  }
  std::vector<double> row_weights(sample.num_rows());
  for (size_t r = 0; r < sample.num_rows(); ++r) {
    row_weights[r] = w[classes.row_class[r]];
  }
  return row_weights;
}

/// The model a build returns against its stages run one at a time: IPF's
/// row weights, the compacted reweighted sample, and the BN learned from
/// the compacted raw sample, all bit for bit.
void ExpectBuildMatchesStages(const ThemisModel& model,
                              const data::Table& sample,
                              const aggregate::AggregateSet& aggregates) {
  const ThemisOptions& options = model.options();
  data::Table reweighted = sample.Clone();
  reweight::IpfReweighter ipf(options.ipf);
  ASSERT_TRUE(
      ipf.Reweight(reweighted, aggregates, model.population_size()).ok());
  EXPECT_TRUE(Bitwise(reweighted.weights(),
                      ReferenceIpfRowWeights(sample, aggregates, options.ipf)));
  const data::Table compacted = reweighted.Compact();
  const data::Table& got = model.reweighted_sample();
  ASSERT_EQ(got.num_rows(), compacted.num_rows());
  for (size_t a = 0; a < got.num_attributes(); ++a) {
    EXPECT_EQ(got.column(a), compacted.column(a)) << "attribute " << a;
  }
  EXPECT_TRUE(Bitwise(got.weights(), compacted.weights()));

  data::Table raw = sample.Clone();
  raw.FillWeights(1.0);
  raw = raw.Compact();
  auto network =
      bn::LearnBayesNet(raw.schema(), &raw, &aggregates, options.bn);
  ASSERT_TRUE(network.ok());
  ASSERT_NE(model.network(), nullptr);
  ExpectSameNetwork(*model.network(), *network);
  for (size_t v = 0; v < network->num_nodes(); ++v) {
    EXPECT_TRUE(Bitwise(model.network()->cpt(v).flat(),
                        network->cpt(v).flat()))
        << "node " << v;
  }
}

// The BN is learned in a pool task while IPF runs on the calling thread
// (two or more threads), or after it (no pool, one thread). The model is
// bitwise the same in every case. TSan runs this suite.
TEST_F(CompactedFlightsTest, BuildIsBitwiseTheSameAtEveryPoolSize) {
  const size_t hw = std::max(1u, std::thread::hardware_concurrency());
  std::vector<std::unique_ptr<util::ThreadPool>> pools;
  pools.push_back(nullptr);
  for (size_t threads : {size_t{1}, size_t{2}, hw}) {
    pools.push_back(std::make_unique<util::ThreadPool>(threads));
  }
  for (const auto& pool : pools) {
    SCOPED_TRACE(pool == nullptr ? 0 : pool->num_threads());
    auto model =
        ThemisModel::Build(sample_->Clone(), aggregates_, {}, pool.get());
    ASSERT_TRUE(model.ok()) << model.status().ToString();
    EXPECT_EQ(model->build_stats().sample_rows, sample_->num_rows());
    ExpectBuildMatchesStages(*model, *sample_, aggregates_);
  }
}

// A sample and aggregates written with CRLF line ends read as the LF
// files do: the same codes, so the same model. A trailing '\r' once
// stayed on the last column's labels ("CA\r"), while the aggregate reader
// trimmed it, so the aggregate covered none of the sample's tuples.
TEST_F(CompactedFlightsTest, CrlfFilesBuildTheLfModel) {
  const std::string dir = std::filesystem::temp_directory_path();
  const data::Schema& schema = *sample_->schema();
  auto write = [](const std::string& path, const std::string& text) {
    std::ofstream(path, std::ios::binary) << text;
  };
  auto to_crlf = [](const std::string& text) {
    std::string out;
    for (const char c : text) out += c == '\n' ? "\r\n" : std::string(1, c);
    return out;
  };
  // The sample without a weight column, so a label is the line's last
  // field; the aggregate as WriteAggregateCsv writes it.
  std::string sample_text;
  for (size_t a = 0; a < schema.num_attributes(); ++a) {
    if (a > 0) sample_text += ',';
    sample_text += CsvEscape(schema.attribute_name(a));
  }
  sample_text += "\n";
  for (size_t r = 0; r < sample_->num_rows(); ++r) {
    for (size_t a = 0; a < schema.num_attributes(); ++a) {
      if (a > 0) sample_text += ',';
      sample_text += CsvEscape(schema.domain(a).Label(sample_->Get(r, a)));
    }
    sample_text += "\n";
  }
  const std::string agg_lf = dir + "/themis_crlf_test_agg.csv";
  std::vector<std::string> agg_texts;
  for (const auto& spec : aggregates_.specs()) {
    ASSERT_TRUE(aggregate::WriteAggregateCsv(spec, *population_->schema(),
                                             agg_lf)
                    .ok());
    std::ifstream in(agg_lf, std::ios::binary);
    agg_texts.emplace_back(std::istreambuf_iterator<char>(in),
                           std::istreambuf_iterator<char>());
  }

  struct Loaded {
    data::Table sample;
    aggregate::AggregateSet aggregates;
  };
  auto load = [&](bool crlf) -> Loaded {
    const std::string sample_path = dir + "/themis_crlf_test_sample.csv";
    write(sample_path, crlf ? to_crlf(sample_text) : sample_text);
    auto sample = data::ReadCsv(sample_path);
    EXPECT_TRUE(sample.ok());
    aggregate::AggregateSet aggregates(sample->schema());
    for (const std::string& text : agg_texts) {
      write(agg_lf, crlf ? to_crlf(text) : text);
      auto spec = aggregate::ReadAggregateCsv(*sample->schema(), agg_lf);
      EXPECT_TRUE(spec.ok());
      aggregates.Add(std::move(spec).value());
    }
    std::remove(sample_path.c_str());
    return {std::move(sample).value(), std::move(aggregates)};
  };
  const Loaded lf = load(false);
  const Loaded crlf = load(true);
  std::remove(agg_lf.c_str());

  const data::Schema& lf_schema = *lf.sample.schema();
  const data::Schema& crlf_schema = *crlf.sample.schema();
  ASSERT_EQ(crlf_schema.num_attributes(), lf_schema.num_attributes());
  for (size_t a = 0; a < lf_schema.num_attributes(); ++a) {
    EXPECT_EQ(crlf_schema.attribute_name(a), lf_schema.attribute_name(a));
    EXPECT_EQ(crlf_schema.domain(a).labels(), lf_schema.domain(a).labels());
    EXPECT_EQ(crlf.sample.column(a), lf.sample.column(a));
  }
  ASSERT_EQ(crlf.aggregates.size(), lf.aggregates.size());
  for (size_t i = 0; i < lf.aggregates.size(); ++i) {
    EXPECT_EQ(crlf.aggregates.specs()[i].attrs, lf.aggregates.specs()[i].attrs);
    EXPECT_EQ(crlf.aggregates.specs()[i].groups,
              lf.aggregates.specs()[i].groups);
  }
  auto lf_model = ThemisModel::Build(lf.sample.Clone(), lf.aggregates);
  auto crlf_model = ThemisModel::Build(crlf.sample.Clone(), crlf.aggregates);
  ASSERT_TRUE(lf_model.ok() && crlf_model.ok());
  const data::Table& a = lf_model->reweighted_sample();
  const data::Table& b = crlf_model->reweighted_sample();
  ASSERT_EQ(b.num_rows(), a.num_rows());
  for (size_t attr = 0; attr < a.num_attributes(); ++attr) {
    EXPECT_EQ(b.column(attr), a.column(attr));
  }
  EXPECT_TRUE(Bitwise(b.weights(), a.weights()));
  ExpectSameNetwork(*crlf_model->network(), *lf_model->network());
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
  const ThemisOptions options;
  auto model = ThemisModel::Build(sample_->Clone(), aggregates_, options);
  ASSERT_TRUE(model.ok());
  // The row table the model compacted: the sample reweighted the same way.
  data::Table rows = sample_->Clone();
  reweight::IpfReweighter ipf(options.ipf);
  ASSERT_TRUE(
      ipf.Reweight(rows, model->aggregates(), model->population_size()).ok());
  ASSERT_LT(model->reweighted_sample().num_rows(), rows.num_rows());

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

void ExpectBitwiseEqual(const sql::QueryResult& got,
                        const sql::QueryResult& want, const std::string& what) {
  EXPECT_EQ(got.group_names, want.group_names) << what;
  EXPECT_EQ(got.value_names, want.value_names) << what;
  ASSERT_EQ(got.rows.size(), want.rows.size()) << what;
  for (size_t i = 0; i < want.rows.size(); ++i) {
    EXPECT_EQ(got.rows[i].group, want.rows[i].group) << what << " row " << i;
    EXPECT_EQ(got.rows[i].values, want.rows[i].values) << what << " row " << i;
  }
}

TEST_F(CompactedFlightsTest,
       BnAndHybridGroupBysBitwiseIdenticalAcrossPoolSizes) {
  // The BN side scans marginal tables in shards on the evaluator's pool;
  // the answers must carry the same bits at every pool size.
  ThemisOptions options;
  options.shard_rows = 512;  // several shards even on small marginals
  auto model = ThemisModel::Build(sample_->Clone(), aggregates_, options);
  ASSERT_TRUE(model.ok());
  const std::vector<std::string> queries = {
      "SELECT origin_state, COUNT(*), SUM(distance) FROM flights "
      "GROUP BY origin_state",
      "SELECT fl_date, dest_state, COUNT(*), AVG(distance) FROM flights "
      "WHERE distance < 1000 GROUP BY fl_date, dest_state",
      "SELECT origin_state, dest_state, COUNT(*) FROM flights "
      "WHERE elapsed_time > 100 GROUP BY origin_state, dest_state",
      "SELECT a.fl_date, COUNT(*), SUM(b.distance) FROM flights a, flights b "
      "WHERE a.dest_state = b.origin_state AND a.fl_date = b.fl_date "
      "GROUP BY a.fl_date",
  };
  const size_t hw = std::max(1u, std::thread::hardware_concurrency());
  std::vector<sql::QueryResult> expected;
  for (size_t threads : {size_t{1}, size_t{2}, hw}) {
    util::ThreadPool pool(threads);
    HybridEvaluator evaluator(&*model, "flights", &pool);
    size_t i = 0;
    for (AnswerMode mode : {AnswerMode::kBnOnly, AnswerMode::kHybrid}) {
      for (const std::string& sql : queries) {
        auto result = evaluator.Query(sql, mode);
        ASSERT_TRUE(result.ok()) << sql << ": " << result.status().ToString();
        if (expected.size() <= i) {
          ASSERT_FALSE(result->rows.empty()) << sql;
          expected.push_back(*result);
        } else {
          ExpectBitwiseEqual(*result, expected[i],
                             std::to_string(threads) + " threads: " + sql);
        }
        ++i;
      }
    }
  }
}

/// Mean percent difference (Sec 6.3) over the union of the truth's and the
/// estimate's groups; missed and phantom groups count 200.
double MeanPercentDifference(const sql::QueryResult& truth,
                             const sql::QueryResult& estimate) {
  const auto want = truth.ValueMap();
  const auto got = estimate.ValueMap();
  double total = 0;
  size_t groups = 0;
  for (const auto& [group, value] : want) {
    auto it = got.find(group);
    total += it == got.end() ? stats::kMaxPercentDifference
                             : stats::PercentDifference(value, it->second);
    ++groups;
  }
  for (const auto& entry : got) {
    if (want.count(entry.first) == 0) {
      total += stats::kMaxPercentDifference;
      ++groups;
    }
  }
  return groups == 0 ? 0.0 : total / static_cast<double>(groups);
}

/// The retired sampled BN answer: `stmt` over each of the K draws, keeping
/// the groups present in all K and averaging their values.
sql::QueryResult AllKRule(const std::vector<data::Table>& draws,
                          const sql::SelectStatement& stmt) {
  std::map<std::vector<std::string>, std::pair<std::vector<double>, size_t>>
      merged;
  sql::QueryResult out;
  for (const data::Table& draw : draws) {
    sql::Executor executor;
    executor.RegisterTable("flights", &draw);
    auto result = executor.Execute(stmt);
    THEMIS_CHECK(result.ok()) << result.status().ToString();
    out.group_names = result->group_names;
    out.value_names = result->value_names;
    for (const sql::ResultRow& row : result->rows) {
      auto [it, inserted] = merged.try_emplace(
          row.group, std::vector<double>(row.values.size(), 0.0), 0u);
      for (size_t i = 0; i < row.values.size(); ++i) {
        it->second.first[i] += row.values[i];
      }
      ++it->second.second;
    }
  }
  for (auto& [group, acc] : merged) {
    if (acc.second != draws.size()) continue;
    for (double& v : acc.first) v /= static_cast<double>(draws.size());
    out.rows.push_back({group, acc.first});
  }
  return out;
}

/// The sample's groups plus the BN groups the sample lacks (Sec 4.3).
sql::QueryResult HybridUnion(sql::QueryResult sample,
                             const sql::QueryResult& bn) {
  std::set<std::vector<std::string>> present;
  for (const sql::ResultRow& row : sample.rows) present.insert(row.group);
  for (const sql::ResultRow& row : bn.rows) {
    if (present.count(row.group) == 0) sample.rows.push_back(row);
  }
  return sample;
}

/// Accuracy gate for the exact BN GROUP BY: a reduced version of the
/// benchmark's configuration (flights, Corners 10% sample, four t-cherry
/// 2-D aggregates and the five 1-D ones) and seeded filtered GROUP BYs of
/// its shape (one group attribute, one or two filters). The consensus
/// answers must be no worse, in mean percent difference, than the all-K
/// rule over K = 10 draws of n = sample-size rows, for both the hybrid and
/// the BN alone.
TEST(FlightsAccuracyTest, ExactConsensusNoWorseThanAllKSamples) {
  constexpr size_t kAttrs = 5;
  const data::Table population =
      workload::GenerateFlights({200000, 3});
  auto sample = workload::MakeFlightsSample(population, "Corners", 0.1, 4);
  ASSERT_TRUE(sample.ok());
  std::vector<size_t> all_attrs = {0, 1, 2, 3, 4};
  std::vector<aggregate::AggregateSpec> pairs;
  for (const auto& attrs : workload::AllSubsets(all_attrs, 2)) {
    pairs.push_back(aggregate::ComputeAggregate(population, attrs));
  }
  aggregate::AggregateSet aggregates(population.schema());
  for (size_t idx : aggregate::SelectAggregatesTCherry(pairs, 4)) {
    aggregates.Add(pairs[idx]);
  }
  for (size_t a = 0; a < kAttrs; ++a) {
    aggregates.Add(aggregate::ComputeAggregate(population, {a}));
  }
  auto model = ThemisModel::Build(sample->Clone(), aggregates);
  ASSERT_TRUE(model.ok()) << model.status().ToString();
  HybridEvaluator evaluator(&*model, "flights");

  constexpr size_t kDraws = 10;
  std::vector<data::Table> draws;
  Rng draw_rng(model->options().seed);
  for (size_t k = 0; k < kDraws; ++k) {
    draws.push_back(model->network()->SampleTable(
        sample->num_rows(), model->population_size(), draw_rng));
  }

  sql::Executor truth_executor;
  truth_executor.RegisterTable("flights", &population);
  const data::Schema& schema = *population.schema();
  Rng rng(11);
  constexpr size_t kQueries = 40;
  double exact_hybrid = 0, exact_bn = 0, all_k_hybrid = 0, all_k_bn = 0;
  for (size_t q = 0; q < kQueries; ++q) {
    const size_t group = static_cast<size_t>(rng.UniformInt(0, kAttrs - 1));
    std::vector<size_t> others;
    for (size_t a = 0; a < kAttrs; ++a) {
      if (a != group) others.push_back(a);
    }
    std::shuffle(others.begin(), others.end(), rng.engine());
    const size_t row = static_cast<size_t>(rng.UniformInt(
        0, static_cast<int64_t>(population.num_rows()) - 1));
    std::string where;
    for (size_t i = 0; i < static_cast<size_t>(rng.UniformInt(1, 2)); ++i) {
      const size_t attr = others[i];
      const data::Domain& domain = schema.domain(attr);
      if (!where.empty()) where += " AND ";
      if (attr == workload::FlightsAttrs::kElapsed ||
          attr == workload::FlightsAttrs::kDistance) {
        const auto code = static_cast<data::ValueCode>(
            rng.UniformInt(1, static_cast<int64_t>(domain.size()) - 1));
        where += domain.name() + " < " +
                 std::to_string(sql::NumericValueOfLabel(domain.Label(code)));
      } else {
        where += domain.name() + " = '" +
                 domain.Label(population.Get(row, attr)) + "'";
      }
    }
    const std::string& name = schema.attribute_name(group);
    const std::string sql = "SELECT " + name +
                            ", COUNT(*) FROM flights WHERE " + where +
                            " GROUP BY " + name;
    auto stmt = sql::Parse(sql);
    ASSERT_TRUE(stmt.ok()) << sql;
    auto truth = truth_executor.Execute(*stmt);
    auto hybrid = evaluator.Query(sql);
    auto bn = evaluator.Query(sql, AnswerMode::kBnOnly);
    auto sample_only = evaluator.Query(sql, AnswerMode::kSampleOnly);
    ASSERT_TRUE(truth.ok() && hybrid.ok() && bn.ok() && sample_only.ok())
        << sql;
    const sql::QueryResult all_k = AllKRule(draws, *stmt);
    exact_hybrid += MeanPercentDifference(*truth, *hybrid);
    exact_bn += MeanPercentDifference(*truth, *bn);
    all_k_hybrid +=
        MeanPercentDifference(*truth, HybridUnion(*sample_only, all_k));
    all_k_bn += MeanPercentDifference(*truth, all_k);
  }
  exact_hybrid /= kQueries;
  exact_bn /= kQueries;
  all_k_hybrid /= kQueries;
  all_k_bn /= kQueries;
  std::printf("mean percent difference over %zu GROUP BYs: hybrid %.2f "
              "(all-K %.2f), BN only %.2f (all-K %.2f)\n",
              kQueries, exact_hybrid, all_k_hybrid, exact_bn, all_k_bn);
  EXPECT_LE(exact_hybrid, all_k_hybrid);
  EXPECT_LE(exact_bn, all_k_bn);
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
