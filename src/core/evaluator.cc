#include "core/evaluator.h"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <set>
#include <utility>

#include "util/logging.h"
#include "util/string_util.h"

namespace themis::core {

size_t ApproxResultBytes(const sql::QueryResult& result) {
  size_t bytes = sizeof(sql::QueryResult);
  for (const std::string& name : result.group_names) bytes += name.size();
  for (const std::string& name : result.value_names) bytes += name.size();
  for (const sql::ResultRow& row : result.rows) {
    bytes += sizeof(sql::ResultRow);
    for (const std::string& label : row.group) {
      bytes += sizeof(std::string) + label.size();
    }
    bytes += row.values.size() * sizeof(double);
  }
  return bytes;
}

HybridEvaluator::HybridEvaluator(const ThemisModel* model,
                                 std::string table_name,
                                 util::ThreadPool* pool,
                                 std::string relation)
    : model_(model),
      table_name_(std::move(table_name)),
      relation_(std::move(relation)) {
  THEMIS_CHECK(model_ != nullptr);
  if (relation_.empty()) relation_ = table_name_;
  sample_executor_.RegisterTable(table_name_, &model_->reweighted_sample());
  const ThemisOptions& options = model_->options();
  if (model_->network() != nullptr) {
    bn::InferenceEngine::Options engine_options;
    engine_options.enable_cache = options.enable_inference_cache;
    engine_options.cache_capacity = options.inference_cache_capacity;
    engine_options.cache_bytes = options.inference_cache_bytes;
    engine_ = std::make_unique<bn::InferenceEngine>(model_->network(),
                                                    engine_options);
  }
  planner_ = std::make_unique<QueryPlanner>(
      model_->reweighted_sample().schema(), engine_ != nullptr,
      options.plan_cache_capacity, relation_);
  pool_ = util::ResolvePool(pool, options.num_threads, owned_pool_);
  // The environment override resolves once here so the shard layout
  // (which fixes the float summation order) cannot drift mid-run; a
  // remaining 0 means the executor's cache-aware auto policy picks the
  // size per query — deterministically, from the query and table alone.
  shard_rows_ = options.shard_rows > 0 ? options.shard_rows
                                       : sql::ShardRowsEnvOverride();
  result_memo_enabled_ = options.enable_result_memo;
  result_memo_cost_aware_ = options.result_memo_bytes > 0;
  single_flight_supported_ = options.enable_single_flight;
  result_memo_ =
      LruCache<std::string, std::shared_ptr<const sql::QueryResult>>(
          result_memo_cost_aware_ ? options.result_memo_bytes
                                  : options.result_memo_capacity);
}

const std::unordered_map<data::TupleKey, double, data::TupleKeyHash>&
HybridEvaluator::GroupIndex(const std::vector<size_t>& attrs) const {
  {
    std::shared_lock<std::shared_mutex> lock(group_index_mu_);
    auto it = group_index_cache_.find(attrs);
    if (it != group_index_cache_.end()) return it->second;
  }
  // Build outside any lock, then publish; a losing racer reuses the
  // winner's index (std::map nodes stay put, so the reference outlives
  // the lock).
  auto weights = model_->reweighted_sample().GroupWeights(attrs);
  std::unique_lock<std::shared_mutex> lock(group_index_mu_);
  return group_index_cache_.try_emplace(attrs, std::move(weights))
      .first->second;
}

bool HybridEvaluator::SampleContains(const std::vector<size_t>& attrs,
                                     const data::TupleKey& values) const {
  return GroupIndex(attrs).count(values) > 0;
}

double HybridEvaluator::SampleMass(const std::vector<size_t>& attrs,
                                   const data::TupleKey& values) const {
  const auto& index = GroupIndex(attrs);
  auto it = index.find(values);
  return it == index.end() ? 0.0 : it->second;
}

Result<double> HybridEvaluator::BnPointEstimate(
    const std::vector<size_t>& attrs, const data::TupleKey& values) const {
  if (engine_ == nullptr) {
    return Status::FailedPrecondition("model has no Bayesian network");
  }
  bn::Evidence evidence;
  for (size_t i = 0; i < attrs.size(); ++i) {
    evidence[attrs[i]] = values[i];
  }
  THEMIS_ASSIGN_OR_RETURN(double p, engine_->Probability(evidence));
  return model_->population_size() * p;
}

Result<double> HybridEvaluator::PointEstimate(
    const std::vector<size_t>& attrs, const data::TupleKey& values,
    AnswerMode mode) const {
  if (attrs.size() != values.size() || attrs.empty()) {
    return Status::InvalidArgument("PointEstimate: attrs/values mismatch");
  }
  switch (mode) {
    case AnswerMode::kSampleOnly:
      return SampleMass(attrs, values);
    case AnswerMode::kBnOnly:
      return BnPointEstimate(attrs, values);
    case AnswerMode::kHybrid:
      // Sec 4.3: sample answer when the tuple is present, BN otherwise.
      if (SampleContains(attrs, values) || model_->network() == nullptr) {
        return SampleMass(attrs, values);
      }
      return BnPointEstimate(attrs, values);
  }
  return Status::Internal("unreachable");
}

namespace {

/// Attribute indices `stmt` reads through FROM entry `t`: selected,
/// aggregated, filtered, joined and grouped columns qualified by its alias
/// or not qualified at all. Names the schema lacks are skipped; binding
/// the statement reports them.
std::vector<size_t> ReferencedAttributes(const sql::SelectStatement& stmt,
                                         size_t t,
                                         const data::Schema& schema) {
  std::vector<size_t> attrs;
  auto add = [&](const sql::ColumnRef& ref) {
    if (!ref.table_alias.empty() &&
        !EqualsIgnoreCase(ref.table_alias, stmt.tables[t].alias)) {
      return;
    }
    auto attr = schema.AttributeIndex(ref.column);
    if (attr.ok()) attrs.push_back(*attr);
  };
  for (const sql::SelectItem& item : stmt.items) {
    if (item.func != sql::AggFunc::kCount) add(item.column);
  }
  for (const sql::Predicate& pred : stmt.where) {
    add(pred.lhs);
    if (pred.is_join) add(pred.rhs_column);
  }
  for (const sql::ColumnRef& ref : stmt.group_by) add(ref);
  return attrs;
}

}  // namespace

Result<sql::QueryResult> HybridEvaluator::BnGroupBy(
    const sql::SelectStatement& stmt, const util::CancelToken* cancel,
    obs::TraceContext* trace) const {
  const double population = model_->population_size();
  // Each FROM entry of the relation scans the marginal table of the
  // columns read through it; a self-join's second entry is renamed to a
  // name no SQL text can spell, so each alias binds its own table. A
  // trailing COUNT(*) carries each group's mass for the consensus test.
  sql::SelectStatement counted = stmt;
  counted.items.push_back({sql::AggFunc::kCount, {}, ""});
  sql::Executor executor;
  std::vector<std::shared_ptr<const data::Table>> tables;
  for (size_t t = 0; t < counted.tables.size(); ++t) {
    sql::TableRef& ref = counted.tables[t];
    if (ref.name != table_name_) continue;  // binding reports it
    THEMIS_ASSIGN_OR_RETURN(
        std::shared_ptr<const data::Table> table,
        engine_->MarginalTable(
            ReferencedAttributes(stmt, t, *model_->network()->schema()),
            population));
    if (t > 0) ref.name = table_name_ + '\x1f' + std::to_string(t);
    executor.RegisterTable(ref.name, table.get());
    tables.push_back(std::move(table));
  }
  auto result = executor.Execute(counted, pool_, shard_rows_, cancel, trace);
  {
    std::lock_guard<std::mutex> lock(bn_stats_mu_);
    bn_stats_ += executor.stats();
  }
  if (!result.ok()) return result.status();

  // Consensus groups: presence probability ≥ ½ in one draw of n rows,
  // i.e. an expected count COUNT·(n/N)^r ≥ ln 2.
  const double draw_share =
      std::pow(static_cast<double>(model_->build_stats().sample_rows) /
                   population,
               static_cast<double>(stmt.tables.size()));
  std::vector<sql::ResultRow> kept;
  for (sql::ResultRow& row : result->rows) {
    const double count = row.values.back();
    row.values.pop_back();
    if (stmt.group_by.empty() || count * draw_share >= std::numbers::ln2) {
      kept.push_back(std::move(row));
    }
  }
  result->rows = std::move(kept);
  result->value_names.pop_back();
  return result;
}

Result<QueryPlanPtr> HybridEvaluator::Plan(const std::string& sql) const {
  return planner_->Plan(sql);
}

Result<sql::QueryResult> HybridEvaluator::ExecutePlanUncached(
    const QueryPlan& plan, AnswerMode mode, const util::CancelToken* cancel,
    obs::TraceContext* trace) const {
  if (plan.kind == PlanKind::kPassthrough || mode == AnswerMode::kSampleOnly ||
      engine_ == nullptr) {
    return sample_executor_.Execute(plan.stmt, pool_, shard_rows_, cancel,
                                    trace);
  }

  if (plan.kind == PlanKind::kPoint) {
    // Pure point queries (d-dimensional COUNT(*) with equality predicates)
    // route through the Sec 4.3 point rule: N·Pr(x) by exact BN inference
    // instead of the GROUP BY machinery.
    double estimate = 0;
    if (!plan.out_of_domain) {
      THEMIS_ASSIGN_OR_RETURN(
          estimate, PointEstimate(plan.point_attrs, plan.point_values, mode));
    }
    sql::QueryResult result;
    result.value_names = {"count"};
    result.rows.push_back({{}, {estimate}});
    return result;
  }

  if (mode == AnswerMode::kBnOnly) {
    return BnGroupBy(plan.stmt, cancel, trace);
  }

  // Hybrid: sample answer unioned with BN-only groups (Sec 4.3).
  THEMIS_ASSIGN_OR_RETURN(sql::QueryResult sample_result,
                          sample_executor_.Execute(plan.stmt, pool_,
                                                   shard_rows_, cancel,
                                                   trace));
  auto bn_result = BnGroupBy(plan.stmt, cancel, trace);
  if (!bn_result.ok()) {
    // A BN failure normally degrades to the sample answer — but a fired
    // cancel token must surface, not be swallowed as a degraded answer.
    if (bn_result.status().code() == StatusCode::kCancelled ||
        bn_result.status().code() == StatusCode::kDeadlineExceeded) {
      return bn_result.status();
    }
    return sample_result;
  }

  std::set<std::vector<std::string>> sample_groups;
  for (const sql::ResultRow& row : sample_result.rows) {
    sample_groups.insert(row.group);
  }
  for (const sql::ResultRow& row : bn_result->rows) {
    if (sample_groups.count(row.group) == 0) {
      sample_result.rows.push_back(row);
    }
  }
  std::sort(sample_result.rows.begin(), sample_result.rows.end(),
            [](const sql::ResultRow& a, const sql::ResultRow& b) {
              return a.group < b.group;
            });
  return sample_result;
}

Result<sql::QueryResult> HybridEvaluator::ExecutePlan(
    const QueryPlan& plan, AnswerMode mode, const util::CancelToken* cancel,
    obs::TraceContext* trace) const {
  // Entry poll, before the memo: a request whose deadline has already
  // lapsed answers kDeadlineExceeded even when the plan is memoized —
  // deadline semantics must not depend on cache temperature, or the
  // deterministic deadline tests (and clients' retry logic) would flap.
  THEMIS_RETURN_IF_ERROR(util::CheckCancel(cancel));
  if (trace != nullptr) trace->SetPlanInfo(relation_, plan.fingerprint);
  // The result memo covers every execution that actually scans — GROUP
  // BY, passthrough, and point plans forced onto the sample executor by
  // kSampleOnly / a BN-less model. Point plans answered through the
  // Sec 4.3 point rule bypass it: the inference memo already serves them
  // at the cost of one cache probe.
  const bool point_via_inference = plan.kind == PlanKind::kPoint &&
                                   engine_ != nullptr &&
                                   mode != AnswerMode::kSampleOnly;
  const bool memoizable = result_memo_enabled_ && !point_via_inference &&
                          !plan.fingerprint.empty();
  std::string key;
  if (memoizable) {
    obs::ScopedSpan memo_span(trace, obs::Stage::kPlanLookup);
    key = plan.fingerprint;
    key.push_back('\x1f');
    key.push_back(static_cast<char>('0' + static_cast<int>(mode)));
    std::shared_ptr<const sql::QueryResult> hit;
    {
      std::lock_guard<std::mutex> lock(memo_mu_);
      if (auto cached = result_memo_.Get(key)) {
        ++memo_hits_;
        hit = *cached;
      } else {
        ++memo_misses_;
      }
    }
    if (hit != nullptr) return *hit;
  }
  // Compute-and-publish for one uncached execution. Runs under `exec` —
  // the caller's own token on the direct path, the flight's collective
  // token under single-flight — and fills the memo on success so the
  // value outlives the flight.
  // `executed` flips on whichever request actually ran the compute — a
  // follower that parked on another request's flight never sets it, so
  // its trace gets the whole Run() duration as single-flight wait and
  // (correctly) no execute span at all.
  bool executed = false;
  const auto compute =
      [this, &plan, mode, &key, trace,
       &executed](const util::CancelToken* exec) -> Result<sql::QueryResult> {
    executed = true;
    obs::ScopedSpan execute_span(trace, obs::Stage::kExecute);
    if (uncached_execute_hook_) uncached_execute_hook_();
    auto result = ExecutePlanUncached(plan, mode, exec, trace);
    if (!key.empty() && result.ok()) {
      // Two executions racing the same cold plan both compute and publish
      // the same deterministic answer; the second Put overwrites in place.
      auto shared = std::make_shared<const sql::QueryResult>(*result);
      const size_t cost =
          result_memo_cost_aware_ ? ApproxResultBytes(*shared) : 1;
      std::lock_guard<std::mutex> lock(memo_mu_);
      result_memo_.Put(key, std::move(shared), cost);
    }
    return result;
  };
  // Single-flight closes the window the memo cannot: a thundering herd of
  // identical requests arriving before the first completes. The herd's
  // first request leads one execution, the rest attach as followers and
  // share the value; followers whose own deadline fires detach without
  // cancelling the leader, and a cancelled leader's execution survives as
  // long as a follower still wants it (see util/single_flight.h).
  if (memoizable && coalescing_enabled()) {
    if (trace == nullptr) return flights_.Run(key, cancel, compute);
    const int64_t run_begin_ns = util::SteadyNowNs();
    auto result = flights_.Run(key, cancel, compute);
    if (!executed) {
      trace->RecordSpan(obs::Stage::kSingleFlightWait, run_begin_ns,
                        util::SteadyNowNs());
    }
    return result;
  }
  return compute(cancel);
}

sql::ExecutorStats HybridEvaluator::executor_stats() const {
  sql::ExecutorStats total = sample_executor_.stats();
  std::lock_guard<std::mutex> lock(bn_stats_mu_);
  total += bn_stats_;
  return total;
}

ResultMemoStats HybridEvaluator::result_memo_stats() const {
  ResultMemoStats stats;
  {
    std::lock_guard<std::mutex> lock(memo_mu_);
    stats.hits = memo_hits_;
    stats.misses = memo_misses_;
    stats.entries = result_memo_.size();
    stats.evictions = result_memo_.evictions();
    stats.rejections = result_memo_.rejections();
    stats.cost = result_memo_.total_cost();
    stats.capacity = result_memo_.capacity();
  }
  const util::SingleFlightStats flights = flights_.stats();
  stats.coalesced_flights = flights.flights;
  stats.coalesced_hits = flights.followers;
  stats.coalesced_detached = flights.detached;
  return stats;
}

void HybridEvaluator::SetCacheBudgets(size_t inference_cache_bytes,
                                      size_t result_memo_bytes) {
  if (engine_ != nullptr) engine_->set_cache_bytes(inference_cache_bytes);
  if (result_memo_cost_aware_ && result_memo_bytes > 0) {
    std::lock_guard<std::mutex> lock(memo_mu_);
    result_memo_.set_capacity(result_memo_bytes);
  }
}

void HybridEvaluator::ClearResultMemo() const {
  std::lock_guard<std::mutex> lock(memo_mu_);
  result_memo_.Clear();
  memo_hits_ = 0;
  memo_misses_ = 0;
}

Result<sql::QueryResult> HybridEvaluator::Query(
    const std::string& sql, AnswerMode mode, const util::CancelToken* cancel,
    obs::TraceContext* trace) const {
  QueryPlanPtr plan;
  {
    obs::ScopedSpan plan_span(trace, obs::Stage::kPlanLookup);
    THEMIS_ASSIGN_OR_RETURN(plan, planner_->Plan(sql));
  }
  return ExecutePlan(*plan, mode, cancel, trace);
}

Result<std::vector<sql::QueryResult>> HybridEvaluator::QueryBatch(
    std::span<const std::string> sqls, AnswerMode mode,
    const util::CancelToken* cancel, obs::TraceContext* trace) const {
  std::vector<QueryPlanPtr> plans;
  plans.reserve(sqls.size());
  {
    obs::ScopedSpan plan_span(trace, obs::Stage::kPlanLookup);
    for (const std::string& sql : sqls) {
      THEMIS_ASSIGN_OR_RETURN(QueryPlanPtr plan, planner_->Plan(sql));
      plans.push_back(std::move(plan));
    }
  }
  // Whole plans are pool tasks: distinct queries run concurrently, and
  // each plan's sharded scans nest on the same pool.
  std::vector<Result<sql::QueryResult>> results(
      plans.size(), Result<sql::QueryResult>(Status::Internal("not run")));
  pool_->ParallelFor(0, plans.size(), [&](size_t i) {
    results[i] = ExecutePlan(*plans[i], mode, cancel, trace);
  });
  std::vector<sql::QueryResult> out;
  out.reserve(plans.size());
  for (Result<sql::QueryResult>& result : results) {
    // Report the lowest-index failure so batch errors are deterministic.
    if (!result.ok()) return result.status();
    out.push_back(std::move(*result));
  }
  return out;
}

}  // namespace themis::core
