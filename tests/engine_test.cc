// Tests for the unified inference engine and plan-based query path: the
// memoizing bn::InferenceEngine (hit/miss accounting, LRU bound, bitwise
// cache-on/off identity), the core::QueryPlanner (point detection, plan
// cache, SQL normalization), and ThemisDb::QueryBatch.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "bn/inference.h"
#include "bn/inference_engine.h"
#include "core/evaluator.h"
#include "core/model.h"
#include "core/query_plan.h"
#include "core/themis_db.h"
#include "util/lru_cache.h"
#include "util/thread_pool.h"

namespace themis::core {
namespace {

/// The paper's running example (Sec 2 / Example 3.1): population of 10
/// flights, biased sample of 4, Γ = {date; (o_st, d_st)}.
class EngineTest : public ::testing::Test {
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

  ThemisModel BuildModel(const ThemisOptions& options) const {
    auto model = ThemisModel::Build(sample_->Clone(), aggregates_, options);
    EXPECT_TRUE(model.ok()) << model.status().ToString();
    return std::move(model).value();
  }

  data::SchemaPtr schema_;
  std::unique_ptr<data::Table> population_;
  std::unique_ptr<data::Table> sample_;
  aggregate::AggregateSet aggregates_;
};

TEST(LruCacheTest, EvictsLeastRecentlyUsed) {
  LruCache<int, int> cache(2);
  cache.Put(1, 10);
  cache.Put(2, 20);
  EXPECT_EQ(*cache.Get(1), 10);  // 1 is now most-recently used
  cache.Put(3, 30);              // evicts 2
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_FALSE(cache.Get(2).has_value());
  EXPECT_TRUE(cache.Get(1).has_value());
  EXPECT_TRUE(cache.Get(3).has_value());
}

TEST(LruCacheTest, UnboundedWhenCapacityZero) {
  LruCache<int, int> cache(0);
  for (int i = 0; i < 100; ++i) cache.Put(i, i);
  EXPECT_EQ(cache.size(), 100u);
  EXPECT_EQ(cache.evictions(), 0u);
}

TEST(LruCacheTest, PutOverwritesInPlace) {
  LruCache<int, int> cache(2);
  cache.Put(1, 10);
  cache.Put(1, 11);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(*cache.Get(1), 11);
}

TEST(NormalizeSqlTest, CollapsesWhitespaceOutsideLiterals) {
  EXPECT_EQ(NormalizeSql("  SELECT   COUNT(*)\n FROM  f  "),
            "SELECT COUNT(*) FROM f");
  // Whitespace inside single-quoted literals is semantic; two literals
  // differing only in internal spacing must not share a cache key.
  EXPECT_NE(NormalizeSql("SELECT COUNT(*) FROM f WHERE a = 'x  y'"),
            NormalizeSql("SELECT COUNT(*) FROM f WHERE a = 'x y'"));
}

TEST_F(EngineTest, EngineMatchesVariableElimination) {
  ThemisModel model = BuildModel(FastOptions());
  ASSERT_NE(model.network(), nullptr);
  bn::InferenceEngine engine(model.network());
  bn::VariableElimination ve(model.network());
  const bn::Evidence evidence = {{1, 0}, {2, 2}};  // o_st=FL, d_st=NY
  auto from_engine = engine.Probability(evidence);
  auto from_ve = ve.Probability(evidence);
  ASSERT_TRUE(from_engine.ok() && from_ve.ok());
  EXPECT_EQ(*from_engine, *from_ve);

  auto m_engine = engine.MarginalTable({1, 2}, 10.0);
  auto m_ve = ve.Marginal({1, 2});
  ASSERT_TRUE(m_engine.ok() && m_ve.ok());
  const data::Table& table = **m_engine;
  ASSERT_EQ(table.num_rows(), m_ve->num_groups());
  for (size_t r = 0; r < table.num_rows(); ++r) {
    EXPECT_DOUBLE_EQ(table.weight(r),
                     10.0 * m_ve->Mass(table.KeyFor(r, {1, 2})));
  }
}

TEST_F(EngineTest, RepeatedQueriesHitTheCache) {
  ThemisModel model = BuildModel(FastOptions());
  bn::InferenceEngine engine(model.network());
  const bn::Evidence evidence = {{1, 0}, {2, 2}};
  auto first = engine.Probability(evidence);
  auto second = engine.Probability(evidence);
  ASSERT_TRUE(first.ok() && second.ok());
  EXPECT_EQ(*first, *second);  // bitwise: the cached double comes back
  bn::InferenceCacheStats stats = engine.cache_stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_DOUBLE_EQ(stats.HitRate(), 0.5);
}

TEST_F(EngineTest, MarginalCacheIsOrderInsensitive) {
  ThemisModel model = BuildModel(FastOptions());
  bn::InferenceEngine engine(model.network());
  auto forward = engine.MarginalTable({1, 2}, 10.0);
  auto backward = engine.MarginalTable({2, 1, 2}, 10.0);
  ASSERT_TRUE(forward.ok() && backward.ok());
  // {2, 1, 2} is served from the {1, 2} entry.
  EXPECT_EQ(engine.cache_stats().hits, 1u);
  EXPECT_EQ(engine.cache_stats().misses, 1u);
  EXPECT_EQ(forward->get(), backward->get());
  // Another scale is another table.
  ASSERT_TRUE(engine.MarginalTable({1, 2}, 20.0).ok());
  EXPECT_EQ(engine.cache_stats().misses, 2u);
}

TEST_F(EngineTest, LruEvictionRespectsConfiguredBound) {
  ThemisModel model = BuildModel(FastOptions());
  bn::InferenceEngine::Options options;
  options.cache_capacity = 2;
  bn::InferenceEngine engine(model.network(), options);
  ASSERT_TRUE(engine.Probability({{1, 0}}).ok());
  ASSERT_TRUE(engine.Probability({{1, 1}}).ok());
  ASSERT_TRUE(engine.Probability({{1, 2}}).ok());  // evicts {{1,0}}
  bn::InferenceCacheStats stats = engine.cache_stats();
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_EQ(stats.evictions, 1u);
  // The evicted entry misses again.
  ASSERT_TRUE(engine.Probability({{1, 0}}).ok());
  EXPECT_EQ(engine.cache_stats().misses, 4u);
  EXPECT_EQ(engine.cache_stats().hits, 0u);
}

TEST_F(EngineTest, DisabledCacheComputesAndCountsNothing) {
  ThemisModel model = BuildModel(FastOptions());
  bn::InferenceEngine::Options options;
  options.enable_cache = false;
  bn::InferenceEngine engine(model.network(), options);
  auto first = engine.Probability({{1, 0}, {2, 2}});
  auto second = engine.Probability({{1, 0}, {2, 2}});
  ASSERT_TRUE(first.ok() && second.ok());
  EXPECT_EQ(*first, *second);
  bn::InferenceCacheStats stats = engine.cache_stats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 0u);
  EXPECT_EQ(stats.entries, 0u);
}

TEST_F(EngineTest, AnswersIdenticalWithCacheOnAndOff) {
  ThemisModel model = BuildModel(FastOptions());
  HybridEvaluator evaluator(&model, "flights");
  bn::InferenceEngine* engine = evaluator.mutable_inference_engine();
  ASSERT_NE(engine, nullptr);

  const std::vector<std::string> sqls = {
      // In-sample point, BN-answered point, out-of-domain point.
      "SELECT COUNT(*) FROM flights WHERE o_st = 'FL' AND d_st = 'FL'",
      "SELECT COUNT(*) FROM flights WHERE o_st = 'FL' AND d_st = 'NY'",
      "SELECT COUNT(*) FROM flights WHERE o_st = 'ZZ'",
      // GROUP BY and a non-point global aggregate.
      "SELECT o_st, d_st, COUNT(*) FROM flights GROUP BY o_st, d_st",
      "SELECT COUNT(*) FROM flights WHERE date <> '02'",
  };
  for (AnswerMode mode : {AnswerMode::kHybrid, AnswerMode::kSampleOnly,
                          AnswerMode::kBnOnly}) {
    for (const std::string& sql : sqls) {
      engine->ClearCache();
      engine->set_cache_enabled(false);
      auto uncached = evaluator.Query(sql, mode);
      engine->ClearCache();
      engine->set_cache_enabled(true);
      auto cold = evaluator.Query(sql, mode);   // populates the cache
      auto warm = evaluator.Query(sql, mode);   // served from it
      ASSERT_EQ(uncached.ok(), cold.ok()) << sql;
      if (!uncached.ok()) continue;
      ASSERT_TRUE(warm.ok()) << sql;
      for (const auto* cached : {&*cold, &*warm}) {
        ASSERT_EQ(uncached->rows.size(), cached->rows.size()) << sql;
        for (size_t i = 0; i < uncached->rows.size(); ++i) {
          EXPECT_EQ(uncached->rows[i].group, cached->rows[i].group) << sql;
          ASSERT_EQ(uncached->rows[i].values.size(),
                    cached->rows[i].values.size());
          for (size_t j = 0; j < uncached->rows[i].values.size(); ++j) {
            // Bitwise identity, not approximate equality.
            EXPECT_EQ(uncached->rows[i].values[j], cached->rows[i].values[j])
                << sql;
          }
        }
      }
    }
  }
}

TEST_F(EngineTest, PointQueryHitRateIncreasesOnRepeats) {
  ThemisDb db(FastOptions());
  ASSERT_TRUE(db.InsertSample("flights", sample_->Clone()).ok());
  ASSERT_TRUE(
      db.InsertAggregateFrom("flights", *population_, {"date"}).ok());
  ASSERT_TRUE(
      db.InsertAggregateFrom("flights", *population_, {"o_st", "d_st"})
          .ok());
  ASSERT_TRUE(db.Build().ok());
  // (FL, NY) is missing from the sample, so every hybrid answer runs BN
  // inference — the second time from the memo table.
  const std::string sql =
      "SELECT COUNT(*) FROM flights WHERE o_st = 'FL' AND d_st = 'NY'";
  ASSERT_TRUE(db.Query(sql).ok());
  const bn::InferenceCacheStats before =
      db.evaluator()->inference_engine()->cache_stats();
  ASSERT_TRUE(db.Query(sql).ok());
  const bn::InferenceCacheStats after =
      db.evaluator()->inference_engine()->cache_stats();
  EXPECT_EQ(after.hits, before.hits + 1);
  EXPECT_EQ(after.misses, before.misses);
  EXPECT_GT(after.HitRate(), before.HitRate());
}

TEST_F(EngineTest, PlannerClassifiesShapes) {
  ThemisModel model = BuildModel(FastOptions());
  HybridEvaluator evaluator(&model, "flights");

  auto point = evaluator.Plan(
      "SELECT COUNT(*) FROM flights WHERE o_st = 'FL' AND d_st = 'NY'");
  ASSERT_TRUE(point.ok());
  EXPECT_EQ((*point)->kind, PlanKind::kPoint);
  EXPECT_EQ((*point)->point_attrs, (std::vector<size_t>{1, 2}));
  EXPECT_EQ((*point)->point_values, (data::TupleKey{0, 2}));
  EXPECT_FALSE((*point)->out_of_domain);

  auto oob = evaluator.Plan("SELECT COUNT(*) FROM flights WHERE o_st = 'ZZ'");
  ASSERT_TRUE(oob.ok());
  EXPECT_EQ((*oob)->kind, PlanKind::kPoint);
  EXPECT_TRUE((*oob)->out_of_domain);

  auto group_by = evaluator.Plan(
      "SELECT o_st, COUNT(*) FROM flights GROUP BY o_st");
  ASSERT_TRUE(group_by.ok());
  EXPECT_EQ((*group_by)->kind, PlanKind::kGroupBy);

  auto range = evaluator.Plan(
      "SELECT COUNT(*) FROM flights WHERE date <> '02'");
  ASSERT_TRUE(range.ok());
  EXPECT_EQ((*range)->kind, PlanKind::kGroupBy);

  EXPECT_FALSE(evaluator.Plan("not sql at all").ok());
}

TEST_F(EngineTest, PlannerWithoutBnPlansPassthrough) {
  ThemisOptions options = FastOptions();
  options.enable_bn = false;
  ThemisModel model = BuildModel(options);
  HybridEvaluator evaluator(&model, "flights");
  auto plan = evaluator.Plan(
      "SELECT COUNT(*) FROM flights WHERE o_st = 'FL' AND d_st = 'NY'");
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ((*plan)->kind, PlanKind::kPassthrough);
}

TEST_F(EngineTest, PlanCacheSharesNormalizedText) {
  ThemisModel model = BuildModel(FastOptions());
  HybridEvaluator evaluator(&model, "flights");
  auto a = evaluator.Plan("SELECT o_st, COUNT(*) FROM flights GROUP BY o_st");
  auto b = evaluator.Plan(
      "SELECT  o_st,   COUNT(*)\nFROM flights\nGROUP BY o_st");
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->get(), b->get());  // one shared plan object
  EXPECT_EQ(evaluator.planner().cache_hits(), 1u);
  EXPECT_EQ(evaluator.planner().cache_misses(), 1u);
}

TEST_F(EngineTest, QueryBatchMatchesSequentialLoop) {
  ThemisDb db(FastOptions());
  ASSERT_TRUE(db.InsertSample("flights", sample_->Clone()).ok());
  ASSERT_TRUE(
      db.InsertAggregateFrom("flights", *population_, {"date"}).ok());
  ASSERT_TRUE(
      db.InsertAggregateFrom("flights", *population_, {"o_st", "d_st"})
          .ok());
  ASSERT_TRUE(db.Build().ok());

  const std::vector<std::string> sqls = {
      "SELECT o_st, d_st, COUNT(*) FROM flights GROUP BY o_st, d_st",
      "SELECT COUNT(*) FROM flights WHERE o_st = 'FL' AND d_st = 'NY'",
      "SELECT COUNT(*) FROM flights WHERE o_st = 'ZZ'",
      "SELECT o_st, d_st, COUNT(*) FROM flights GROUP BY o_st, d_st",
      "SELECT date, COUNT(*) FROM flights GROUP BY date",
  };
  for (AnswerMode mode : {AnswerMode::kHybrid, AnswerMode::kSampleOnly,
                          AnswerMode::kBnOnly}) {
    auto batch = db.QueryBatch(sqls, mode);
    ASSERT_TRUE(batch.ok()) << batch.status().ToString();
    ASSERT_EQ(batch->size(), sqls.size());
    for (size_t q = 0; q < sqls.size(); ++q) {
      auto sequential = db.Query(sqls[q], mode);
      ASSERT_TRUE(sequential.ok());
      const sql::QueryResult& batched = (*batch)[q];
      ASSERT_EQ(sequential->rows.size(), batched.rows.size()) << sqls[q];
      for (size_t i = 0; i < sequential->rows.size(); ++i) {
        EXPECT_EQ(sequential->rows[i].group, batched.rows[i].group);
        EXPECT_EQ(sequential->rows[i].values, batched.rows[i].values);
      }
    }
  }
}

TEST_F(EngineTest, ByteBudgetWeighsMarginalsOverProbabilities) {
  ThemisModel model = BuildModel(FastOptions());
  bn::InferenceEngine::Options options;
  options.cache_bytes = 4096;
  bn::InferenceEngine engine(model.network(), options);
  ASSERT_TRUE(engine.Probability({{1, 0}}).ok());
  const size_t prob_cost = engine.cache_stats().cost;
  EXPECT_GT(prob_cost, 0u);
  ASSERT_TRUE(engine.MarginalTable({1, 2}, 10.0).ok());
  const size_t with_marginal = engine.cache_stats().cost;
  // A 9-group marginal table costs more than a scalar probability entry.
  EXPECT_GT(with_marginal - prob_cost, prob_cost);
  EXPECT_EQ(engine.cache_stats().entries, 2u);
}

TEST_F(EngineTest, TinyByteBudgetRejectsHugeMarginals) {
  ThemisModel model = BuildModel(FastOptions());
  bn::InferenceEngine::Options options;
  options.cache_bytes = 96;  // fits a probability, not a marginal table
  bn::InferenceEngine engine(model.network(), options);
  ASSERT_TRUE(engine.Probability({{1, 0}}).ok());
  EXPECT_EQ(engine.cache_stats().entries, 1u);
  auto first = engine.MarginalTable({1, 2}, 10.0);
  auto second = engine.MarginalTable({1, 2}, 10.0);
  ASSERT_TRUE(first.ok() && second.ok());
  // The marginal was never admitted: both calls miss, the probability
  // entry survives, and answers are unaffected.
  EXPECT_GE(engine.cache_stats().rejections, 2u);
  EXPECT_EQ(engine.cache_stats().entries, 1u);
  ASSERT_TRUE(engine.Probability({{1, 0}}).ok());
  EXPECT_EQ(engine.cache_stats().hits, 1u);
  EXPECT_EQ((*first)->weights(), (*second)->weights());
}

TEST_F(EngineTest, ResultMemoServesRepeatedGroupByTraffic) {
  ThemisDb db(FastOptions());
  ASSERT_TRUE(db.InsertSample("flights", sample_->Clone()).ok());
  ASSERT_TRUE(
      db.InsertAggregateFrom("flights", *population_, {"o_st", "d_st"})
          .ok());
  ASSERT_TRUE(db.Build().ok());
  const std::string sql =
      "SELECT o_st, COUNT(*) FROM flights GROUP BY o_st";
  auto cold = db.Query(sql);
  ASSERT_TRUE(cold.ok());
  ResultMemoStats stats = db.evaluator()->result_memo_stats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.entries, 1u);

  auto warm = db.Query(sql);
  ASSERT_TRUE(warm.ok());
  stats = db.evaluator()->result_memo_stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  ASSERT_EQ(cold->rows.size(), warm->rows.size());
  for (size_t i = 0; i < cold->rows.size(); ++i) {
    EXPECT_EQ(cold->rows[i].group, warm->rows[i].group);
    EXPECT_EQ(cold->rows[i].values, warm->rows[i].values);  // bitwise
  }

  // Point queries bypass the memo (the inference cache already covers
  // them) and memoization is per (fingerprint, mode).
  ASSERT_TRUE(
      db.Query("SELECT COUNT(*) FROM flights WHERE o_st = 'FL'").ok());
  EXPECT_EQ(db.evaluator()->result_memo_stats().misses, 1u);
  ASSERT_TRUE(db.Query(sql, AnswerMode::kSampleOnly).ok());
  EXPECT_EQ(db.evaluator()->result_memo_stats().misses, 2u);
}

/// The result memo's cost-aware admission: under a `result_memo_bytes`
/// budget entries weigh their approximate result bytes, oversized answers
/// are rejected outright, and the stats surface evictions/rejections/cost.
TEST_F(EngineTest, ResultMemoCostAwareAdmissionAndStats) {
  auto make_db = [&](const ThemisOptions& options) {
    auto db = std::make_unique<ThemisDb>(options);
    EXPECT_TRUE(db->InsertSample("flights", sample_->Clone()).ok());
    EXPECT_TRUE(
        db->InsertAggregateFrom("flights", *population_, {"o_st", "d_st"})
            .ok());
    EXPECT_TRUE(db->Build().ok());
    return db;
  };
  const std::string group_by_1d =
      "SELECT o_st, COUNT(*) FROM flights GROUP BY o_st";
  const std::string group_by_2d =
      "SELECT o_st, d_st, COUNT(*) FROM flights GROUP BY o_st, d_st";

  {
    // Entry-count LRU bound: the second distinct fingerprint evicts the
    // first, and the unit-cost accounting shows up in `cost`.
    ThemisOptions options = FastOptions();
    options.result_memo_capacity = 1;
    auto db = make_db(options);
    ASSERT_TRUE(db->Query(group_by_1d).ok());
    ASSERT_TRUE(db->Query(group_by_2d).ok());
    ResultMemoStats stats = db->evaluator()->result_memo_stats();
    EXPECT_EQ(stats.entries, 1u);
    EXPECT_EQ(stats.evictions, 1u);
    EXPECT_EQ(stats.rejections, 0u);
    EXPECT_EQ(stats.cost, 1u);
  }
  {
    // A byte budget too small for any answer: every Put is rejected, so
    // repeats keep missing — but answers are unaffected.
    ThemisOptions options = FastOptions();
    options.result_memo_bytes = 32;
    auto db = make_db(options);
    auto first = db->Query(group_by_1d);
    auto second = db->Query(group_by_1d);
    ASSERT_TRUE(first.ok() && second.ok());
    ResultMemoStats stats = db->evaluator()->result_memo_stats();
    EXPECT_EQ(stats.entries, 0u);
    EXPECT_EQ(stats.hits, 0u);
    EXPECT_EQ(stats.misses, 2u);
    EXPECT_GE(stats.rejections, 2u);
    for (size_t i = 0; i < first->rows.size(); ++i) {
      EXPECT_EQ(first->rows[i].values, second->rows[i].values);
    }
  }
  {
    // An ample byte budget admits entries at their approximate byte cost
    // (well above the unit cost) and serves repeats.
    ThemisOptions options = FastOptions();
    options.result_memo_bytes = 1 << 20;
    auto db = make_db(options);
    ASSERT_TRUE(db->Query(group_by_1d).ok());
    ASSERT_TRUE(db->Query(group_by_1d).ok());
    ResultMemoStats stats = db->evaluator()->result_memo_stats();
    EXPECT_EQ(stats.entries, 1u);
    EXPECT_EQ(stats.hits, 1u);
    EXPECT_EQ(stats.rejections, 0u);
    EXPECT_GT(stats.cost, 100u);
    // The 9-group 2D answer weighs more than the 3-group 1D one.
    const size_t cost_1d = stats.cost;
    ASSERT_TRUE(db->Query(group_by_2d).ok());
    stats = db->evaluator()->result_memo_stats();
    EXPECT_GT(stats.cost - cost_1d, cost_1d);
  }
}

TEST_F(EngineTest, ResultMemoInvalidatedOnRebuild) {
  ThemisDb db(FastOptions());
  ASSERT_TRUE(db.InsertSample("flights", sample_->Clone()).ok());
  ASSERT_TRUE(
      db.InsertAggregateFrom("flights", *population_, {"date"}).ok());
  ASSERT_TRUE(db.Build().ok());
  const std::string sql =
      "SELECT o_st, COUNT(*) FROM flights GROUP BY o_st";
  auto before = db.Query(sql);
  ASSERT_TRUE(before.ok());
  ASSERT_TRUE(db.Query(sql).ok());  // memoized now
  EXPECT_EQ(db.evaluator()->result_memo_stats().hits, 1u);

  // New knowledge arrives and the model is rebuilt: the memo must not
  // serve stale answers.
  ASSERT_TRUE(
      db.InsertAggregateFrom("flights", *population_, {"o_st", "d_st"})
          .ok());
  ASSERT_TRUE(db.Build().ok());
  ResultMemoStats stats = db.evaluator()->result_memo_stats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.entries, 0u);
  auto after = db.Query(sql);
  ASSERT_TRUE(after.ok());
  // The (o_st, d_st) aggregate reweights the sample, so the answer
  // actually changes — the fresh memo recomputed it.
  EXPECT_NE(before->ValueMap(), after->ValueMap());
}

/// 200+ mixed point/GROUP BY queries, pool sizes {1, 2, hw}: batch answers
/// bitwise-equal to a sequential Query() loop under every mode, and the
/// result memo pays off on a repeat pass.
TEST_F(EngineTest, QueryBatchStressAcrossPoolSizes) {
  std::vector<std::string> sqls;
  const char* states[] = {"FL", "NC", "NY", "ZZ"};
  for (const char* o : states) {
    for (const char* d : states) {
      sqls.push_back(std::string("SELECT COUNT(*) FROM flights WHERE "
                                 "o_st = '") +
                     o + "' AND d_st = '" + d + "'");
    }
  }
  for (const char* date : {"01", "02"}) {
    for (const char* o : states) {
      sqls.push_back(std::string("SELECT d_st, COUNT(*) FROM flights "
                                 "WHERE date = '") +
                     date + "' AND o_st = '" + o + "' GROUP BY d_st");
    }
  }
  sqls.push_back("SELECT o_st, d_st, COUNT(*) FROM flights GROUP BY o_st, d_st");
  sqls.push_back("SELECT date, COUNT(*) FROM flights GROUP BY date");
  sqls.push_back("SELECT COUNT(*) FROM flights WHERE date <> '01'");
  // Repeat the mix until the workload tops 200 queries.
  const size_t distinct = sqls.size();
  while (sqls.size() < 200) {
    sqls.push_back(sqls[sqls.size() % distinct]);
  }
  ASSERT_GE(sqls.size(), 200u);

  const size_t hw = util::DefaultParallelism();
  for (size_t threads : std::vector<size_t>{1, 2, hw}) {
    ThemisOptions options = FastOptions();
    options.num_threads = threads;
    // Honest comparison: the loop must execute, not read the batch's memo.
    options.enable_result_memo = false;
    ThemisDb db(options);
    ASSERT_TRUE(db.InsertSample("flights", sample_->Clone()).ok());
    ASSERT_TRUE(
        db.InsertAggregateFrom("flights", *population_, {"date"}).ok());
    ASSERT_TRUE(
        db.InsertAggregateFrom("flights", *population_, {"o_st", "d_st"})
            .ok());
    ASSERT_TRUE(db.Build().ok());
    for (AnswerMode mode : {AnswerMode::kHybrid, AnswerMode::kSampleOnly,
                            AnswerMode::kBnOnly}) {
      auto batch = db.QueryBatch(sqls, mode);
      ASSERT_TRUE(batch.ok()) << batch.status().ToString();
      ASSERT_EQ(batch->size(), sqls.size());
      for (size_t q = 0; q < sqls.size(); ++q) {
        auto sequential = db.Query(sqls[q], mode);
        ASSERT_TRUE(sequential.ok());
        const sql::QueryResult& batched = (*batch)[q];
        ASSERT_EQ(sequential->rows.size(), batched.rows.size())
            << sqls[q] << " threads=" << threads;
        for (size_t i = 0; i < sequential->rows.size(); ++i) {
          EXPECT_EQ(sequential->rows[i].group, batched.rows[i].group);
          // Bitwise equality, any pool size.
          EXPECT_EQ(sequential->rows[i].values, batched.rows[i].values)
              << sqls[q] << " threads=" << threads;
        }
      }
    }
  }

  // Repeat pass with the memo on: the second batch is served from it.
  ThemisOptions options = FastOptions();
  options.num_threads = 2;
  ThemisDb db(options);
  ASSERT_TRUE(db.InsertSample("flights", sample_->Clone()).ok());
  ASSERT_TRUE(
      db.InsertAggregateFrom("flights", *population_, {"o_st", "d_st"})
          .ok());
  ASSERT_TRUE(db.Build().ok());
  auto first = db.QueryBatch(sqls, AnswerMode::kHybrid);
  ASSERT_TRUE(first.ok());
  const ResultMemoStats cold = db.evaluator()->result_memo_stats();
  auto second = db.QueryBatch(sqls, AnswerMode::kHybrid);
  ASSERT_TRUE(second.ok());
  const ResultMemoStats warm = db.evaluator()->result_memo_stats();
  EXPECT_GT(warm.hits, cold.hits);
  // Every non-point query of the repeat pass hit (the first pass already
  // memoized all distinct fingerprints it saw).
  EXPECT_EQ(warm.misses, cold.misses);
  for (size_t q = 0; q < sqls.size(); ++q) {
    ASSERT_EQ((*first)[q].rows.size(), (*second)[q].rows.size());
    for (size_t i = 0; i < (*first)[q].rows.size(); ++i) {
      EXPECT_EQ((*first)[q].rows[i].values, (*second)[q].rows[i].values);
    }
  }
}

/// Single-flight coalescing at the evaluator: a duplicate burst executes
/// the plan exactly once. The leader is parked deterministically by the
/// uncached-execute hook, followers attach while it is parked (observable
/// via coalesced_hits), and every answer — including a fresh post-clear
/// execution — is bitwise identical.
TEST_F(EngineTest, ConcurrentDuplicateGroupBysExecuteOnce) {
  ThemisOptions options = FastOptions();
  options.num_threads = 2;
  ThemisDb db(options);
  ASSERT_TRUE(db.InsertSample("flights", sample_->Clone()).ok());
  ASSERT_TRUE(
      db.InsertAggregateFrom("flights", *population_, {"o_st", "d_st"})
          .ok());
  ASSERT_TRUE(db.Build().ok());
  const std::string sql =
      "SELECT o_st, COUNT(*) FROM flights GROUP BY o_st";

  constexpr size_t kCallers = 4;
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  std::atomic<size_t> uncached_executions{0};
  auto first = std::make_shared<std::atomic<bool>>(true);
  db.evaluator()->set_uncached_execute_hook([&, first] {
    uncached_executions.fetch_add(1);
    if (first->exchange(false)) released.wait();  // park only the leader
  });

  std::vector<Result<sql::QueryResult>> answers(
      kCallers, Result<sql::QueryResult>(Status::Internal("unset")));
  std::vector<std::thread> callers;
  for (size_t i = 0; i < kCallers; ++i) {
    callers.emplace_back(
        [&db, &answers, &sql, i] { answers[i] = db.Query(sql); });
  }
  // The leader is parked inside the hook; wait until every other caller
  // has attached to its flight, then let it run.
  while (db.evaluator()->result_memo_stats().coalesced_hits < kCallers - 1) {
    std::this_thread::yield();
  }
  release.set_value();
  for (std::thread& t : callers) t.join();
  db.evaluator()->set_uncached_execute_hook(nullptr);

  EXPECT_EQ(uncached_executions.load(), 1u);
  const ResultMemoStats stats = db.evaluator()->result_memo_stats();
  EXPECT_EQ(stats.coalesced_flights, 1u);
  EXPECT_EQ(stats.coalesced_hits, kCallers - 1);
  EXPECT_EQ(stats.coalesced_detached, 0u);

  // Bitwise: all coalesced answers equal a fresh uncoalesced execution.
  db.evaluator()->ClearResultMemo();
  auto fresh = db.Query(sql);
  ASSERT_TRUE(fresh.ok());
  for (const auto& answer : answers) {
    ASSERT_TRUE(answer.ok()) << answer.status().ToString();
    ASSERT_EQ(answer->rows.size(), fresh->rows.size());
    for (size_t i = 0; i < fresh->rows.size(); ++i) {
      EXPECT_EQ(answer->rows[i].group, fresh->rows[i].group);
      EXPECT_EQ(answer->rows[i].values, fresh->rows[i].values);
    }
  }
}

/// A follower whose own deadline lapses mid-flight detaches and answers
/// kDeadlineExceeded itself; the leader's execution is untouched and
/// still publishes an OK answer.
TEST_F(EngineTest, FollowerDeadlineDetachesWithoutKillingTheFlight) {
  ThemisOptions options = FastOptions();
  options.num_threads = 2;
  ThemisDb db(options);
  ASSERT_TRUE(db.InsertSample("flights", sample_->Clone()).ok());
  ASSERT_TRUE(
      db.InsertAggregateFrom("flights", *population_, {"o_st", "d_st"})
          .ok());
  ASSERT_TRUE(db.Build().ok());
  const std::string sql =
      "SELECT o_st, COUNT(*) FROM flights GROUP BY o_st";

  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  auto first = std::make_shared<std::atomic<bool>>(true);
  db.evaluator()->set_uncached_execute_hook([released, first] {
    if (first->exchange(false)) released.wait();
  });

  Result<sql::QueryResult> leader_answer(Status::Internal("unset"));
  std::thread leader(
      [&db, &leader_answer, &sql] { leader_answer = db.Query(sql); });
  while (db.evaluator()->result_memo_stats().coalesced_flights < 1) {
    std::this_thread::yield();
  }

  // Attach with a 1ms budget while the leader is parked: this call must
  // come back DeadlineExceeded on its own, well before the leader runs.
  util::CancelToken short_deadline(/*deadline_ms=*/1);
  auto follower_answer =
      db.evaluator()->Query(sql, AnswerMode::kHybrid, &short_deadline);
  EXPECT_EQ(follower_answer.status().code(),
            StatusCode::kDeadlineExceeded);
  EXPECT_EQ(db.evaluator()->result_memo_stats().coalesced_detached, 1u);

  release.set_value();
  leader.join();
  db.evaluator()->set_uncached_execute_hook(nullptr);
  ASSERT_TRUE(leader_answer.ok()) << leader_answer.status().ToString();
}

/// The leader's cancellation does not kill work a follower still wants:
/// the collective flight token ignores the (fired) leader token while a
/// follower is attached, the value is published to the follower, and the
/// leader alone answers kCancelled.
TEST_F(EngineTest, LeaderCancellationPromotesAnAttachedFollower) {
  ThemisOptions options = FastOptions();
  options.num_threads = 2;
  ThemisDb db(options);
  ASSERT_TRUE(db.InsertSample("flights", sample_->Clone()).ok());
  ASSERT_TRUE(
      db.InsertAggregateFrom("flights", *population_, {"o_st", "d_st"})
          .ok());
  ASSERT_TRUE(db.Build().ok());
  const std::string sql =
      "SELECT o_st, COUNT(*) FROM flights GROUP BY o_st";

  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  auto first = std::make_shared<std::atomic<bool>>(true);
  db.evaluator()->set_uncached_execute_hook([released, first] {
    if (first->exchange(false)) released.wait();
  });

  util::CancelToken leader_token;
  Result<sql::QueryResult> leader_answer(Status::Internal("unset"));
  std::thread leader([&db, &leader_answer, &sql, &leader_token] {
    leader_answer =
        db.evaluator()->Query(sql, AnswerMode::kHybrid, &leader_token);
  });
  while (db.evaluator()->result_memo_stats().coalesced_flights < 1) {
    std::this_thread::yield();
  }

  Result<sql::QueryResult> follower_answer(Status::Internal("unset"));
  std::thread follower(
      [&db, &follower_answer, &sql] { follower_answer = db.Query(sql); });
  while (db.evaluator()->result_memo_stats().coalesced_hits < 1) {
    std::this_thread::yield();
  }

  leader_token.Cancel();  // fires while a follower is attached
  release.set_value();
  leader.join();
  follower.join();
  db.evaluator()->set_uncached_execute_hook(nullptr);

  ASSERT_TRUE(follower_answer.ok()) << follower_answer.status().ToString();
  EXPECT_EQ(leader_answer.status().code(), StatusCode::kCancelled);

  // The promoted execution's answer is the bitwise answer.
  db.evaluator()->ClearResultMemo();
  auto fresh = db.Query(sql);
  ASSERT_TRUE(fresh.ok());
  ASSERT_EQ(follower_answer->rows.size(), fresh->rows.size());
  for (size_t i = 0; i < fresh->rows.size(); ++i) {
    EXPECT_EQ(follower_answer->rows[i].values, fresh->rows[i].values);
  }
}

TEST_F(EngineTest, QueryBatchRequiresBuild) {
  ThemisDb db(FastOptions());
  const std::vector<std::string> sqls = {"SELECT COUNT(*) FROM flights"};
  EXPECT_FALSE(db.QueryBatch(sqls).ok());
}

TEST_F(EngineTest, QueryBatchFailsFastOnMalformedSql) {
  ThemisDb db(FastOptions());
  ASSERT_TRUE(db.InsertSample("flights", sample_->Clone()).ok());
  ASSERT_TRUE(
      db.InsertAggregateFrom("flights", *population_, {"date"}).ok());
  ASSERT_TRUE(db.Build().ok());
  const std::vector<std::string> sqls = {
      "SELECT COUNT(*) FROM flights", "definitely not sql"};
  EXPECT_FALSE(db.QueryBatch(sqls).ok());
}

}  // namespace
}  // namespace themis::core
