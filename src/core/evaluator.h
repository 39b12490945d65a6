#ifndef THEMIS_CORE_EVALUATOR_H_
#define THEMIS_CORE_EVALUATOR_H_

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "bn/inference_engine.h"
#include "core/model.h"
#include "core/query_plan.h"
#include "obs/trace.h"
#include "sql/ast.h"
#include "sql/executor.h"
#include "util/cancel.h"
#include "util/lru_cache.h"
#include "util/single_flight.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace themis::core {

/// Which machinery answered (or should answer) a query.
enum class AnswerMode {
  kHybrid,      ///< the paper's evaluator (Sec 4.3)
  kSampleOnly,  ///< reweighted sample only (AQP / IPF / LinReg baselines)
  kBnOnly,      ///< Bayesian network only (BB et al. baselines)
};

/// Snapshot of the plan->result memo counters.
struct ResultMemoStats {
  size_t hits = 0;
  size_t misses = 0;
  size_t entries = 0;
  /// Entries dropped by the LRU bound since the evaluator was built.
  size_t evictions = 0;
  /// Entries refused admission because their cost alone exceeded the
  /// capacity (only possible under a `result_memo_bytes` budget).
  size_t rejections = 0;
  /// Total cost of the resident entries: approximate bytes under a byte
  /// budget, the entry count otherwise.
  size_t cost = 0;
  /// The active bound in the same units as `cost` (0 = unbounded).
  /// Changes when the catalog rebalances budgets after DropRelation.
  size_t capacity = 0;
  /// Single-flight coalescing companions (see util/single_flight.h):
  /// distinct in-flight executions led, requests that attached to an
  /// already-running execution instead of re-executing, and followers
  /// that detached early because their own deadline/cancel fired.
  size_t coalesced_flights = 0;
  size_t coalesced_hits = 0;
  size_t coalesced_detached = 0;

  double HitRate() const {
    const size_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) / total;
  }
};

/// Approximate in-memory footprint of a memoized query result: rows,
/// group-label strings, and value doubles. The admission cost of result
/// entries under a `result_memo_bytes` budget.
size_t ApproxResultBytes(const sql::QueryResult& result);

/// Themis's hybrid query evaluator (Sec 4.3), structured as a plan-based
/// engine: SQL text -> QueryPlanner (cached logical plan) -> ExecutePlan
/// (mode dispatch), with all BN inference routed through a memoizing
/// bn::InferenceEngine so repeated queries reuse prior computation.
///
/// Point queries: if the queried tuple exists in the (reweighted) sample,
/// answer from the sample; otherwise use direct BN inference,
/// n · Pr(X₁=x₁, ..., X_d=x_d).
///
/// GROUP BY queries: the reweighted-sample answer, unioned with groups
/// that appear in the BN answer but not the sample answer. The BN answer
/// is exact: each FROM entry reads the BN's joint on the attributes the
/// statement reads through it, as a weighted table with one row per
/// nonzero cell weighing N·Pr(cell) (bn::InferenceEngine::MarginalTable,
/// memoized), and the executor runs the statement over those tables.
/// Filters, IN lists, ranges, SUM/AVG midpoints and self-joins therefore
/// keep the sample path's semantics. A BN group is kept when it is a
/// consensus answer (Li & Deshpande): its presence probability in one
/// draw of n rows, the size of the raw sample, is at least ½. Under
/// Poisson presence that is an expected count COUNT·(n/N)^r ≥ ln 2, for r
/// FROM entries; the COUNT mass decides even for SUM/AVG items. A global
/// aggregate (no GROUP BY) keeps its row.
///
/// All parallelism runs on one util::ThreadPool (the shared execution
/// runtime): QueryBatch fans whole plans across the pool and large scans
/// shard by row range inside the executor — one pool, no
/// oversubscription, and results bitwise identical to a sequential
/// Query() loop at any pool size (the fan-outs merge deterministically).
/// GROUP BY / passthrough answers are additionally memoized per
/// (plan fingerprint, mode); the memo dies with the evaluator, so a
/// Build() rebuild invalidates it.
///
/// Thread-safe for concurrent const use; the lazily built group index is
/// guarded by a shared_mutex and the engine, planner, and result memo
/// carry their own locks.
class HybridEvaluator {
 public:
  /// `model` must outlive the evaluator. `table_name` is the name the
  /// sample is registered under for SQL queries. Cache and pool knobs come
  /// from the model's ThemisOptions; a non-null `pool` overrides the
  /// options-derived pool (used by the catalog to share one pool across
  /// relations, and to compare pool sizes on one model). `relation` is the
  /// catalog relation stamp for plan fingerprints — it defaults to
  /// `table_name`, so two evaluators answering the same SQL text never
  /// share a memo fingerprint unless both their names agree.
  HybridEvaluator(const ThemisModel* model,
                  std::string table_name = "sample",
                  util::ThreadPool* pool = nullptr,
                  std::string relation = "");

  const std::string& table_name() const { return table_name_; }
  const std::string& relation() const { return relation_; }

  /// d-dimensional point query: estimated COUNT(*) of tuples with
  /// `values` on `attrs` (attribute indices into the sample schema).
  Result<double> PointEstimate(const std::vector<size_t>& attrs,
                               const data::TupleKey& values,
                               AnswerMode mode = AnswerMode::kHybrid) const;

  /// True if some sample tuple matches `values` on `attrs`.
  bool SampleContains(const std::vector<size_t>& attrs,
                      const data::TupleKey& values) const;

  /// Executes a SQL query (point, group-by, join) under the given mode:
  /// Plan + ExecutePlan. `cancel` (optional) is the serving layer's
  /// cooperative cancellation handle — see ExecutePlan. `trace`
  /// (optional) records per-stage spans (plan lookup, execution,
  /// single-flight wait, executor shard loops); null costs one pointer
  /// check per site and changes nothing else.
  Result<sql::QueryResult> Query(const std::string& sql,
                                 AnswerMode mode = AnswerMode::kHybrid,
                                 const util::CancelToken* cancel = nullptr,
                                 obs::TraceContext* trace = nullptr) const;

  /// Plans `sql` through the shared plan cache.
  Result<QueryPlanPtr> Plan(const std::string& sql) const;

  /// Executes a previously planned query on the shared pool (large scans
  /// fan out; a 1-thread pool degenerates to the identical sequential
  /// execution). Serves memoized GROUP BY / passthrough results when the
  /// plan carries a fingerprint.
  ///
  /// `cancel` is polled once on entry (before the memo, so an expired
  /// deadline answers kDeadlineExceeded even for a memoized plan) and
  /// once per shard inside the executors; a fired token unwinds with
  /// kCancelled / kDeadlineExceeded and is never memoized.
  /// `trace` additionally distinguishes the coalesced-follower case: a
  /// request that attached to another request's in-flight execution
  /// records the whole wait as an obs::Stage::kSingleFlightWait span and
  /// no kExecute span at all (only the leader executed).
  Result<sql::QueryResult> ExecutePlan(const QueryPlan& plan,
                                       AnswerMode mode,
                                       const util::CancelToken* cancel =
                                           nullptr,
                                       obs::TraceContext* trace =
                                           nullptr) const;

  /// Batched answering: plans every query first (repeated texts share one
  /// plan, malformed SQL fails before any work runs), then submits whole
  /// plans to the pool so distinct queries execute concurrently. Results
  /// line up with the input order and are bitwise identical to a
  /// sequential Query() loop. One `cancel` token covers the whole batch.
  Result<std::vector<sql::QueryResult>> QueryBatch(
      std::span<const std::string> sqls, AnswerMode mode,
      const util::CancelToken* cancel = nullptr,
      obs::TraceContext* trace = nullptr) const;

  /// The memoizing inference engine; null when the model has no BN.
  const bn::InferenceEngine* inference_engine() const {
    return engine_.get();
  }
  bn::InferenceEngine* mutable_inference_engine() { return engine_.get(); }

  const QueryPlanner& planner() const { return *planner_; }

  ResultMemoStats result_memo_stats() const;

  /// Aggregated scan-path counters over the sample executor and every
  /// scan of a BN marginal table — rows scanned/passed, groups emitted,
  /// join build/probe rows (see sql::ExecutorStats).
  sql::ExecutorStats executor_stats() const;

  /// Drops every memoized query result (the memo also dies naturally with
  /// the evaluator on rebuild).
  void ClearResultMemo() const;

  /// Run-time toggle for single-flight coalescing (effective only when
  /// ThemisOptions::enable_single_flight was set at build). Const-qualified
  /// like ClearResultMemo so serving/bench code reaching the evaluator
  /// through the catalog's const surface can flip it between runs; answers
  /// are bitwise identical either way.
  void set_coalescing_enabled(bool enabled) const {
    coalescing_enabled_.store(enabled, std::memory_order_relaxed);
  }
  bool coalescing_enabled() const {
    return single_flight_supported_ &&
           coalescing_enabled_.load(std::memory_order_relaxed);
  }

  /// Test-only: runs at the start of every *uncached* plan execution on
  /// the executing (leader) thread, after the single-flight entry has been
  /// published — lets tests park a leader mid-flight so followers attach
  /// deterministically. Const-qualified for the same catalog-surface
  /// reason as set_coalescing_enabled; set it before serving traffic.
  void set_uncached_execute_hook(std::function<void()> hook) const {
    uncached_execute_hook_ = std::move(hook);
  }

  /// Rebounds the byte-budgeted caches in place — the inference cache to
  /// `inference_cache_bytes`, the result memo to `result_memo_bytes` —
  /// keeping warm entries when growing, evicting LRU-first when
  /// shrinking. Either value 0 leaves that cache untouched, as does a
  /// cache not built under a byte budget. How the catalog re-inflates
  /// surviving relations' shares when a neighbor is dropped.
  void SetCacheBudgets(size_t inference_cache_bytes,
                       size_t result_memo_bytes);

 private:
  /// Σ weight over sample rows matching the key (0 when absent).
  double SampleMass(const std::vector<size_t>& attrs,
                    const data::TupleKey& values) const;

  /// n · Pr(values on attrs) by exact (memoized) BN inference.
  Result<double> BnPointEstimate(const std::vector<size_t>& attrs,
                                 const data::TupleKey& values) const;

  /// Runs `stmt` over BN marginal tables, one per FROM entry, and keeps
  /// the consensus groups (see the class comment).
  Result<sql::QueryResult> BnGroupBy(const sql::SelectStatement& stmt,
                                     const util::CancelToken* cancel,
                                     obs::TraceContext* trace) const;

  /// Executes the plan without consulting the result memo.
  Result<sql::QueryResult> ExecutePlanUncached(
      const QueryPlan& plan, AnswerMode mode,
      const util::CancelToken* cancel, obs::TraceContext* trace) const;

  /// Group-weight index per attribute set, built lazily under the lock.
  const std::unordered_map<data::TupleKey, double, data::TupleKeyHash>&
  GroupIndex(const std::vector<size_t>& attrs) const;

  const ThemisModel* model_;
  std::string table_name_;
  std::string relation_;
  sql::Executor sample_executor_;
  /// Counters of the per-call executors that scan BN marginal tables.
  mutable std::mutex bn_stats_mu_;
  mutable sql::ExecutorStats bn_stats_;
  std::unique_ptr<bn::InferenceEngine> engine_;
  std::unique_ptr<QueryPlanner> planner_;
  std::unique_ptr<util::ThreadPool> owned_pool_;  // when num_threads is set
  util::ThreadPool* pool_;
  size_t shard_rows_;  // ThemisOptions::shard_rows, resolved at build
  bool result_memo_enabled_;
  bool result_memo_cost_aware_;  // true when options.result_memo_bytes > 0
  /// ThemisOptions::enable_single_flight at build; the atomic is the
  /// run-time toggle layered on top (see set_coalescing_enabled).
  bool single_flight_supported_;
  mutable std::atomic<bool> coalescing_enabled_{true};
  mutable util::SingleFlight<Result<sql::QueryResult>> flights_;
  mutable std::function<void()> uncached_execute_hook_;
  mutable std::mutex memo_mu_;
  mutable LruCache<std::string, std::shared_ptr<const sql::QueryResult>>
      result_memo_;
  mutable size_t memo_hits_ = 0;
  mutable size_t memo_misses_ = 0;
  mutable std::shared_mutex group_index_mu_;
  mutable std::map<std::vector<size_t>,
                   std::unordered_map<data::TupleKey, double,
                                      data::TupleKeyHash>>
      group_index_cache_;
};

}  // namespace themis::core

#endif  // THEMIS_CORE_EVALUATOR_H_
