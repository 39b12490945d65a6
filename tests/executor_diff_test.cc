// Differential test of the vectorized executor against the retained
// row-at-a-time reference implementation: ~100 generated queries across
// filters x GROUP BY arities x joins x pool sizes must be bitwise
// identical on both paths. Row weights are multiples of 0.25, so sums are
// exact and every shard layout (sequential, auto, forced-small) must
// agree bit for bit as well. A second executor pinned to the scalar SIMD
// backend (THEMIS_SIMD=scalar at construction) runs every query too, so
// on SIMD-capable hosts each check is three-way:
// simd == scalar == reference, bit for bit. The same queries run again
// over Table::Compact() of both tables, the form a model stores.
#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "data/table.h"
#include "sql/executor.h"
#include "sql/parser.h"
#include "util/thread_pool.h"

// TSan instrumentation slows the reference path ~50x; a reduced query
// count still races every parallel code path (sharded scan, sharded
// build, sharded probe, packed and wide keys) on every pool size.
#if defined(__SANITIZE_THREAD__)
#define THEMIS_DIFF_TEST_QUERIES 25
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define THEMIS_DIFF_TEST_QUERIES 25
#endif
#endif
#ifndef THEMIS_DIFF_TEST_QUERIES
#define THEMIS_DIFF_TEST_QUERIES 100
#endif

namespace themis::sql {
namespace {

constexpr size_t kNumQueries = THEMIS_DIFF_TEST_QUERIES;

void ExpectBitwiseEqual(const QueryResult& a, const QueryResult& b,
                        const std::string& what) {
  ASSERT_EQ(a.group_names, b.group_names) << what;
  ASSERT_EQ(a.value_names, b.value_names) << what;
  ASSERT_EQ(a.rows.size(), b.rows.size()) << what;
  for (size_t i = 0; i < a.rows.size(); ++i) {
    EXPECT_EQ(a.rows[i].group, b.rows[i].group) << what;
    ASSERT_EQ(a.rows[i].values.size(), b.rows[i].values.size()) << what;
    for (size_t j = 0; j < a.rows[i].values.size(); ++j) {
      // Bitwise double equality, not approximate.
      EXPECT_EQ(a.rows[i].values[j], b.rows[i].values[j])
          << what << " row " << i << " value " << j;
    }
  }
}

/// Fixture: a probe-sized table `t` and a smaller build-side table `u`
/// whose join domains only partially overlap (and are distinct Domain
/// objects, exercising the probe-side code translation).
class ExecutorDiffTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto label_range = [](const std::string& prefix, size_t lo, size_t n) {
      std::vector<std::string> labels;
      for (size_t i = 0; i < n; ++i) {
        labels.push_back(prefix + std::to_string(lo + i));
      }
      return labels;
    };
    auto numbers = [](size_t n) {
      std::vector<std::string> labels;
      for (size_t i = 0; i < n; ++i) labels.push_back(std::to_string(i));
      return labels;
    };

    auto t_schema = std::make_shared<data::Schema>();
    t_schema->AddAttribute("g1", label_range("g1_", 0, 7));
    t_schema->AddAttribute("g2", label_range("g2_", 0, 13));
    t_schema->AddAttribute("v", numbers(9));
    t_schema->AddAttribute("c", label_range("c", 0, 5));
    // A fairly selective join key keeps the reference path's per-pair
    // cost bounded across the ~100 generated queries.
    t_schema->AddAttribute("k", label_range("k", 0, 199));
    t_ = std::make_unique<data::Table>(t_schema);
    std::mt19937_64 rng(11);
    for (size_t r = 0; r < 12000; ++r) {
      t_->AppendRow({static_cast<data::ValueCode>(rng() % 7),
                     static_cast<data::ValueCode>(rng() % 13),
                     static_cast<data::ValueCode>(rng() % 9),
                     static_cast<data::ValueCode>(rng() % 5),
                     static_cast<data::ValueCode>(rng() % 199)});
      t_->set_weight(r, static_cast<double>(rng() % 16) * 0.25 + 0.25);
    }

    auto u_schema = std::make_shared<data::Schema>();
    u_schema->AddAttribute("k2", label_range("k", 50, 199));  // k50..k248
    u_schema->AddAttribute("h", label_range("h", 0, 4));
    u_schema->AddAttribute("w", numbers(6));
    u_ = std::make_unique<data::Table>(u_schema);
    for (size_t r = 0; r < 2000; ++r) {
      u_->AppendRow({static_cast<data::ValueCode>(rng() % 199),
                     static_cast<data::ValueCode>(rng() % 4),
                     static_cast<data::ValueCode>(rng() % 6)});
      u_->set_weight(r, static_cast<double>(rng() % 8) * 0.25 + 0.5);
    }

    executor_.RegisterTable("t", t_.get());
    executor_.RegisterTable("u", u_.get());
    scalar_executor_ = MakeScalarExecutor();
    ASSERT_EQ(scalar_executor_->stats().simd_backend, "scalar");
    scalar_executor_->RegisterTable("t", t_.get());
    scalar_executor_->RegisterTable("u", u_.get());
  }

  /// The scalar twin: an executor whose kernel table was pinned to the
  /// scalar backend at construction, regardless of host capability.
  static std::unique_ptr<Executor> MakeScalarExecutor() {
    const char* prev = std::getenv("THEMIS_SIMD");
    const std::string saved = prev ? prev : "";
    setenv("THEMIS_SIMD", "scalar", 1);
    auto scalar = std::make_unique<Executor>();
    if (prev) {
      setenv("THEMIS_SIMD", saved.c_str(), 1);
    } else {
      unsetenv("THEMIS_SIMD");
    }
    return scalar;
  }

  /// Runs `sql` on both paths across execution configurations and checks
  /// every answer is bitwise identical to the pool-less reference.
  void CheckQuery(const std::string& sql) {
    CheckQuery(sql, executor_, *scalar_executor_);
  }

  /// CheckQuery over the tables registered in `executor` and its scalar
  /// twin `scalar_executor`.
  void CheckQuery(const std::string& sql, Executor& executor,
                  Executor& scalar_executor) {
    auto stmt = Parse(sql);
    ASSERT_TRUE(stmt.ok()) << sql;
    auto reference = executor.ExecuteReference(*stmt);
    ASSERT_TRUE(reference.ok()) << sql;
    auto vectorized = executor.Execute(*stmt);
    ASSERT_TRUE(vectorized.ok()) << sql;
    ExpectBitwiseEqual(*vectorized, *reference, "sequential: " + sql);
    auto scalar = scalar_executor.Execute(*stmt);
    ASSERT_TRUE(scalar.ok()) << sql;
    ExpectBitwiseEqual(*scalar, *reference, "scalar sequential: " + sql);

    for (util::ThreadPool* pool : pools()) {
      for (const size_t shard_rows : {size_t{0}, size_t{1000}}) {
        const std::string what = sql + " [pool " +
                                 std::to_string(pool->num_threads()) +
                                 " shard " + std::to_string(shard_rows) + "]";
        auto ref_pooled = executor.ExecuteReference(*stmt, pool, shard_rows);
        ASSERT_TRUE(ref_pooled.ok()) << what;
        auto vec_pooled = executor.Execute(*stmt, pool, shard_rows);
        ASSERT_TRUE(vec_pooled.ok()) << what;
        ExpectBitwiseEqual(*vec_pooled, *ref_pooled, "pooled: " + what);
        // Exact weights: every layout agrees with the sequential answer.
        ExpectBitwiseEqual(*vec_pooled, *reference, "vs sequential: " + what);
        auto scalar_pooled =
            scalar_executor.Execute(*stmt, pool, shard_rows);
        ASSERT_TRUE(scalar_pooled.ok()) << what;
        ExpectBitwiseEqual(*vec_pooled, *scalar_pooled,
                           "simd vs scalar: " + what);
      }
    }
  }

  /// Pool sizes 1, 2, and hardware, created once for the whole test.
  std::vector<util::ThreadPool*> pools() {
    if (pools_.empty()) {
      const size_t hw =
          std::max<size_t>(2, std::thread::hardware_concurrency());
      for (const size_t threads : {size_t{1}, size_t{2}, hw}) {
        pools_.push_back(std::make_unique<util::ThreadPool>(threads));
      }
    }
    std::vector<util::ThreadPool*> out;
    for (auto& pool : pools_) out.push_back(pool.get());
    return out;
  }

  std::unique_ptr<data::Table> t_;
  std::unique_ptr<data::Table> u_;
  std::vector<std::unique_ptr<util::ThreadPool>> pools_;
  Executor executor_;
  std::unique_ptr<Executor> scalar_executor_;
};

/// `num_queries` generated queries over the fixture's tables: filters x
/// GROUP BY arities x joins (30% joins).
std::vector<std::string> RandomQueries(size_t num_queries) {
  std::mt19937_64 rng(2026);
  const std::vector<std::string> t_filters = {
      "g1 = 'g1_2'",         "g2 <> 'g2_5'", "c IN ('c0', 'c2', 'c4')",
      "v < 6",               "v >= 2",       "k IN ('k1', 'k4', 'k9')",
      "g1 IN ('g1_0', 'g1_6')"};
  const std::vector<std::string> u_filters = {
      "h = 'h1'", "h <> 'h3'", "w > 1", "k2 IN ('k3', 'k7', 'k12')"};
  const std::vector<std::string> t_groups = {"g1", "g2", "c", "v"};
  const std::vector<std::string> u_groups = {"h", "w"};
  const std::vector<std::string> t_aggs = {"SUM(v)", "AVG(v)"};
  const std::vector<std::string> u_aggs = {"SUM(w)", "AVG(w)"};

  auto pick = [&rng](const std::vector<std::string>& from, size_t count) {
    std::vector<std::string> out(from);
    for (size_t i = 0; i < out.size(); ++i) {
      std::swap(out[i], out[i + rng() % (out.size() - i)]);
    }
    out.resize(std::min(count, out.size()));
    return out;
  };

  std::vector<std::string> queries;
  for (size_t i = 0; i < num_queries; ++i) {
    const bool join = i % 10 >= 7;  // 30% joins
    std::vector<std::string> filters;
    std::vector<std::string> groups;
    std::vector<std::string> aggs = {"COUNT(*)"};
    std::string from;
    if (join) {
      from = "u b, t p WHERE b.k2 = p.k";
      for (const auto& f : pick(u_filters, rng() % 2)) {
        filters.push_back(f);
      }
      for (const auto& f : pick(t_filters, rng() % 2)) {
        filters.push_back(f);
      }
      groups = pick(rng() % 2 == 0 ? t_groups : u_groups, rng() % 3);
      for (const auto& a : pick(rng() % 2 == 0 ? t_aggs : u_aggs, rng() % 3)) {
        aggs.push_back(a);
      }
    } else {
      from = "t";
      for (const auto& f : pick(t_filters, rng() % 3)) {
        filters.push_back(f);
      }
      groups = pick(t_groups, rng() % 3);
      for (const auto& a : pick(t_aggs, rng() % 3)) {
        aggs.push_back(a);
      }
    }
    std::string sql = "SELECT ";
    for (const auto& g : groups) sql += g + ", ";
    for (size_t a = 0; a < aggs.size(); ++a) {
      sql += aggs[a] + (a + 1 < aggs.size() ? ", " : " ");
    }
    sql += "FROM " + from;
    for (size_t f = 0; f < filters.size(); ++f) {
      sql += (f == 0 && !join ? " WHERE " : " AND ") + filters[f];
    }
    if (!groups.empty()) {
      sql += " GROUP BY ";
      for (size_t g = 0; g < groups.size(); ++g) {
        sql += groups[g] + (g + 1 < groups.size() ? ", " : "");
      }
    }
    queries.push_back(std::move(sql));
  }
  return queries;
}

TEST_F(ExecutorDiffTest, RandomizedQueriesBitwiseIdentical) {
  size_t checked = 0;
  for (const std::string& sql : RandomQueries(kNumQueries)) {
    if (HasFailure()) break;
    CheckQuery(sql);
    ++checked;
  }
  EXPECT_EQ(checked, kNumQueries);
}

TEST_F(ExecutorDiffTest, CompactedTablesBitwiseIdentical) {
  // Over the compacted tables every path agrees as above. The weights are
  // multiples of 0.25, so the sums a merged row carries are exact, and
  // every answer also equals the row tables' answer bit for bit.
  const data::Table t = t_->Compact();
  const data::Table u = u_->Compact();
  ASSERT_LT(t.num_rows(), t_->num_rows());
  ASSERT_LT(u.num_rows(), u_->num_rows());
  Executor executor;
  executor.RegisterTable("t", &t);
  executor.RegisterTable("u", &u);
  std::unique_ptr<Executor> scalar_executor = MakeScalarExecutor();
  scalar_executor->RegisterTable("t", &t);
  scalar_executor->RegisterTable("u", &u);
  size_t checked = 0;
  for (const std::string& sql : RandomQueries(kNumQueries)) {
    if (HasFailure()) break;
    CheckQuery(sql, executor, *scalar_executor);
    auto stmt = Parse(sql);
    ASSERT_TRUE(stmt.ok()) << sql;
    auto compacted = executor.Execute(*stmt);
    ASSERT_TRUE(compacted.ok()) << sql;
    auto rows = executor_.ExecuteReference(*stmt);
    ASSERT_TRUE(rows.ok()) << sql;
    ExpectBitwiseEqual(*compacted, *rows, "compacted vs rows: " + sql);
    ++checked;
  }
  EXPECT_EQ(checked, kNumQueries);
}

/// 10 group columns x 100-label domains = ~70 key bits: exercises the
/// TupleKey fallback for both grouping and join keys.
TEST(ExecutorWideKeyTest, WideGroupAndJoinKeysMatchReference) {
  auto labels100 = [] {
    std::vector<std::string> labels;
    for (size_t i = 0; i < 100; ++i) labels.push_back(std::to_string(i));
    return labels;
  }();
  auto schema = std::make_shared<data::Schema>();
  for (size_t a = 0; a < 10; ++a) {
    schema->AddAttribute("a" + std::to_string(a), labels100);
  }
  data::Table wide(schema);
  std::mt19937_64 rng(5);
  for (size_t r = 0; r < 3000; ++r) {
    std::vector<data::ValueCode> codes;
    for (size_t a = 0; a < 10; ++a) {
      // Narrow value range so groups and join keys repeat.
      codes.push_back(static_cast<data::ValueCode>(rng() % 3 * 7));
    }
    wide.AppendRow(codes);
    wide.set_weight(r, static_cast<double>(rng() % 4) * 0.25 + 0.25);
  }
  Executor executor;
  executor.RegisterTable("wide", &wide);

  std::string all_cols;
  std::string join_on;
  for (size_t a = 0; a < 10; ++a) {
    all_cols += "a" + std::to_string(a) + ", ";
    join_on += std::string(a == 0 ? "" : " AND ") + "x.a" + std::to_string(a) +
               " = y.a" + std::to_string(a);
  }
  const std::vector<std::string> sqls = {
      "SELECT " + all_cols + "COUNT(*) FROM wide GROUP BY " +
          all_cols.substr(0, all_cols.size() - 2),
      "SELECT COUNT(*) FROM wide x, wide y WHERE " + join_on,
      "SELECT x.a0, COUNT(*) FROM wide x, wide y WHERE " + join_on +
          " GROUP BY x.a0",
  };
  util::ThreadPool pool(3);
  for (const std::string& sql : sqls) {
    auto stmt = Parse(sql);
    ASSERT_TRUE(stmt.ok()) << sql;
    for (util::ThreadPool* p : {static_cast<util::ThreadPool*>(nullptr),
                                &pool}) {
      auto reference = executor.ExecuteReference(*stmt, p, 500);
      ASSERT_TRUE(reference.ok()) << sql;
      auto vectorized = executor.Execute(*stmt, p, 500);
      ASSERT_TRUE(vectorized.ok()) << sql;
      ExpectBitwiseEqual(*vectorized, *reference, sql);
      ASSERT_FALSE(reference->rows.empty()) << sql;
    }
  }
}

}  // namespace
}  // namespace themis::sql
