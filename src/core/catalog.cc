#include "core/catalog.h"

#include <algorithm>
#include <utility>

#include "core/query_plan.h"
#include "util/logging.h"

namespace themis::core {

Catalog::Catalog(ThemisOptions options, util::ThreadPool* pool)
    : options_(std::move(options)),
      route_cache_(std::make_unique<RouteCache>()),
      mutation_listeners_(std::make_unique<MutationListeners>()) {
  pool_ = util::ResolvePool(pool, options_.num_threads, owned_pool_);
}

uint64_t Catalog::AddMutationListener(MutationListener listener) const {
  std::lock_guard<std::mutex> lock(mutation_listeners_->mu);
  const uint64_t id = mutation_listeners_->next_id++;
  mutation_listeners_->listeners.emplace(id, std::move(listener));
  return id;
}

void Catalog::RemoveMutationListener(uint64_t id) const {
  std::lock_guard<std::mutex> lock(mutation_listeners_->mu);
  mutation_listeners_->listeners.erase(id);
}

void Catalog::NotifyMutation(const std::string& relation) const {
  // Listeners run under the registry lock: registration is rare (server
  // start/stop) and mutations never race queries, so contention is moot;
  // holding the lock keeps removal well-ordered against a firing listener.
  std::lock_guard<std::mutex> lock(mutation_listeners_->mu);
  for (const auto& [id, listener] : mutation_listeners_->listeners) {
    listener(relation);
  }
}

Status Catalog::InsertSample(const std::string& name, data::Table sample,
                             RelationConfig config) {
  if (name.empty()) {
    return Status::InvalidArgument("relation name is empty");
  }
  if (relations_.count(name) > 0) {
    return Status::AlreadyExists("relation '" + name + "' already exists");
  }
  if (sample.num_rows() == 0) {
    return Status::InvalidArgument("sample for relation '" + name +
                                   "' is empty");
  }
  const std::string table_name =
      config.table_name.empty() ? name : std::move(config.table_name);
  // FROM-routing resolves relation names, so a table alias that shadows
  // another relation's name (or a name shadowing another's alias) would
  // silently route queries to the wrong relation — reject it up front.
  for (const auto& [existing_name, existing] : relations_) {
    if (table_name != name && table_name == existing_name) {
      return Status::InvalidArgument(
          "table name '" + table_name + "' of relation '" + name +
          "' shadows the relation '" + existing_name + "'");
    }
    if (existing.table_name != existing_name && existing.table_name == name) {
      return Status::InvalidArgument(
          "relation name '" + name + "' shadows the table name of relation '" +
          existing_name + "'");
    }
  }
  Relation relation;
  relation.table_name = table_name;
  relation.base_options =
      config.options.has_value() ? std::move(*config.options) : options_;
  relation.pending_aggregates =
      std::make_unique<aggregate::AggregateSet>(sample.schema());
  relation.pending_sample =
      std::make_unique<data::Table>(std::move(sample));
  relations_.emplace(name, std::move(relation));
  NotifyMutation(name);
  return Status::OK();
}

Status Catalog::InsertAggregate(const std::string& name,
                                aggregate::AggregateSpec aggregate) {
  auto it = relations_.find(name);
  if (it == relations_.end()) {
    return Status::NotFound("no relation '" + name + "'");
  }
  Relation& relation = it->second;
  for (size_t attr : aggregate.attrs) {
    if (attr >= relation.pending_sample->schema()->num_attributes()) {
      return Status::InvalidArgument("aggregate attribute out of range for '" +
                                     name + "'");
    }
  }
  relation.pending_aggregates->Add(std::move(aggregate));
  // New knowledge invalidates this relation's model and with it the
  // relation's inference cache and result memo; other relations keep
  // serving their memoized answers untouched.
  relation.model.reset();
  relation.evaluator.reset();
  NotifyMutation(name);
  return Status::OK();
}

Status Catalog::InsertAggregateFrom(
    const std::string& name, const data::Table& population,
    const std::vector<std::string>& attr_names) {
  if (relations_.count(name) == 0) {
    return Status::NotFound("no relation '" + name + "'");
  }
  std::vector<size_t> attrs;
  for (const std::string& attr_name : attr_names) {
    THEMIS_ASSIGN_OR_RETURN(size_t idx,
                            population.schema()->AttributeIndex(attr_name));
    attrs.push_back(idx);
  }
  return InsertAggregate(name,
                         aggregate::ComputeAggregate(population, attrs));
}

Status Catalog::Build(const std::string& name) {
  auto it = relations_.find(name);
  if (it == relations_.end()) {
    return Status::NotFound("no relation '" + name + "'");
  }
  Relation& relation = it->second;
  // Split the catalog-wide cache-byte budgets evenly across the relations
  // registered right now: one relation cannot starve the others' caches.
  ThemisOptions effective = relation.base_options;
  const size_t n = std::max<size_t>(1, relations_.size());
  if (effective.inference_cache_bytes > 0) {
    effective.inference_cache_bytes =
        std::max<size_t>(1, effective.inference_cache_bytes / n);
  }
  if (effective.result_memo_bytes > 0) {
    effective.result_memo_bytes =
        std::max<size_t>(1, effective.result_memo_bytes / n);
  }
  auto model = ThemisModel::Build(relation.pending_sample->Clone(),
                                  *relation.pending_aggregates, effective);
  if (!model.ok()) return model.status();
  const BuildStats& stats = model->build_stats();
  THEMIS_LOG(Info) << "built relation '" << name << "': "
                   << ReweightMethodName(effective.reweight) << " "
                   << stats.reweight_seconds << " s ("
                   << stats.reweight_iterations << " iterations, converged "
                   << (stats.reweight_converged ? "yes" : "no")
                   << ", max violation " << stats.reweight_max_violation
                   << "), BN structure " << stats.bn_structure_seconds
                   << " s, parameters " << stats.bn_parameter_seconds
                   << " s, compact " << stats.compact_seconds << " s (sample "
                   << stats.sample_rows << " -> " << stats.sample_classes
                   << " rows)";
  relation.model = std::make_unique<ThemisModel>(std::move(model).value());
  relation.evaluator = std::make_unique<HybridEvaluator>(
      relation.model.get(), relation.table_name, pool_, name);
  NotifyMutation(name);
  return Status::OK();
}

Status Catalog::BuildAll() {
  if (relations_.empty()) {
    return Status::FailedPrecondition("no sample inserted");
  }
  std::vector<std::string> names = RelationNames();
  std::vector<Status> statuses(names.size());
  // Model learning is embarrassingly parallel across relations; each build
  // may further fan out on the same pool (nesting never deadlocks). Only
  // un-built relations learn (inserting aggregates un-builds exactly the
  // touched relation), so already-built neighbors keep their models and
  // warm caches.
  pool_->ParallelFor(0, names.size(), [&](size_t i) {
    if (!built(names[i])) statuses[i] = Build(names[i]);
  });
  for (const Status& status : statuses) {
    if (!status.ok()) return status;
  }
  return Status::OK();
}

Status Catalog::DropRelation(const std::string& name) {
  auto it = relations_.find(name);
  if (it == relations_.end()) {
    return Status::NotFound("no relation '" + name + "'");
  }
  relations_.erase(it);
  // Survivors inherit the dropped relation's cache-byte share right away
  // — a smaller catalog serves the same budget, not a shrunken one.
  RebalanceCacheBudgets();
  NotifyMutation(name);
  return Status::OK();
}

void Catalog::RebalanceCacheBudgets() {
  if (relations_.empty()) return;
  const size_t n = relations_.size();
  for (auto& [name, relation] : relations_) {
    if (relation.evaluator == nullptr) continue;
    const ThemisOptions& base = relation.base_options;
    // Grow-only: a survivor built when the catalog was smaller may hold
    // more than base/n already (shares are fixed at build time); clamping
    // it down would evict warm entries mid-serving, which is exactly what
    // this rebalance exists to avoid. Shrinking happens only through the
    // relation's own rebuild.
    const auto grown = [n](size_t budget, size_t current) -> size_t {
      if (budget == 0) return 0;  // not byte-budgeted: leave untouched
      return std::max(current, std::max<size_t>(1, budget / n));
    };
    const size_t inference_current =
        relation.evaluator->inference_engine() != nullptr
            ? relation.evaluator->inference_engine()->cache_stats().capacity
            : 0;
    const size_t memo_current =
        relation.evaluator->result_memo_stats().capacity;
    relation.evaluator->SetCacheBudgets(
        grown(base.inference_cache_bytes, inference_current),
        grown(base.result_memo_bytes, memo_current));
  }
}

bool Catalog::Has(const std::string& name) const {
  return relations_.count(name) > 0;
}

bool Catalog::built(const std::string& name) const {
  auto it = relations_.find(name);
  return it != relations_.end() && it->second.evaluator != nullptr;
}

bool Catalog::all_built() const {
  if (relations_.empty()) return false;
  for (const auto& [name, relation] : relations_) {
    if (relation.evaluator == nullptr) return false;
  }
  return true;
}

std::vector<std::string> Catalog::RelationNames() const {
  std::vector<std::string> names;
  names.reserve(relations_.size());
  for (const auto& [name, relation] : relations_) names.push_back(name);
  return names;
}

const ThemisModel* Catalog::model(const std::string& name) const {
  auto it = relations_.find(name);
  return it == relations_.end() ? nullptr : it->second.model.get();
}

const HybridEvaluator* Catalog::evaluator(const std::string& name) const {
  auto it = relations_.find(name);
  return it == relations_.end() ? nullptr : it->second.evaluator.get();
}

Result<RelationStats> Catalog::StatsFor(const std::string& name) const {
  auto it = relations_.find(name);
  if (it == relations_.end()) {
    return Status::NotFound("no relation '" + name + "'");
  }
  RelationStats stats;
  const HybridEvaluator* evaluator = it->second.evaluator.get();
  if (evaluator == nullptr) return stats;  // registered, not built
  stats.built = true;
  stats.plan_cache_hits = evaluator->planner().cache_hits();
  stats.plan_cache_misses = evaluator->planner().cache_misses();
  if (evaluator->inference_engine() != nullptr) {
    stats.inference_cache = evaluator->inference_engine()->cache_stats();
  }
  stats.result_memo = evaluator->result_memo_stats();
  stats.executor = evaluator->executor_stats();
  return stats;
}

std::map<std::string, RelationStats> Catalog::Stats() const {
  std::map<std::string, RelationStats> out;
  for (const auto& [name, relation] : relations_) {
    out.emplace(name, *StatsFor(name));
  }
  return out;
}

Result<const Catalog::Relation*> Catalog::FindBuilt(
    const std::string& name) const {
  auto it = relations_.find(name);
  if (it == relations_.end()) {
    return Status::NotFound("no relation '" + name + "'");
  }
  if (it->second.evaluator == nullptr) {
    return Status::FailedPrecondition("relation '" + name +
                                      "' is not built; call Build(\"" + name +
                                      "\") first");
  }
  return &it->second;
}

Result<std::string> Catalog::RouteFor(const std::string& sql) const {
  {
    std::lock_guard<std::mutex> lock(route_cache_->mu);
    if (auto hit = route_cache_->cache.Get(sql)) return *hit;
  }
  THEMIS_ASSIGN_OR_RETURN(std::string from, FirstFromTable(sql));
  std::lock_guard<std::mutex> lock(route_cache_->mu);
  route_cache_->cache.Put(sql, from);
  return from;
}

Result<sql::QueryResult> Catalog::Query(const std::string& sql,
                                        AnswerMode mode,
                                        const util::CancelToken* cancel,
                                        obs::TraceContext* trace) const {
  THEMIS_ASSIGN_OR_RETURN(std::string from, RouteFor(sql));
  return QueryOn(from, sql, mode, cancel, trace);
}

Result<sql::QueryResult> Catalog::QueryOn(const std::string& relation,
                                          const std::string& sql,
                                          AnswerMode mode,
                                          const util::CancelToken* cancel,
                                          obs::TraceContext* trace) const {
  THEMIS_ASSIGN_OR_RETURN(const Relation* entry, FindBuilt(relation));
  return entry->evaluator->Query(sql, mode, cancel, trace);
}

std::vector<Result<sql::QueryResult>> Catalog::QueryMany(
    std::span<const QueryItem> items) const {
  // Per-item route + plan with per-item fault isolation: one bad request
  // records its error in its own slot and its batch-mates still run.
  std::vector<Result<sql::QueryResult>> results(
      items.size(), Result<sql::QueryResult>(Status::Internal("not run")));
  std::vector<const HybridEvaluator*> evaluators(items.size(), nullptr);
  std::vector<QueryPlanPtr> plans(items.size());
  for (size_t i = 0; i < items.size(); ++i) {
    const QueryItem& item = items[i];
    std::string route = item.relation;
    if (route.empty()) {
      auto from = RouteFor(item.sql);
      if (!from.ok()) {
        results[i] = from.status();
        continue;
      }
      route = std::move(*from);
    }
    auto entry = FindBuilt(route);
    if (!entry.ok()) {
      results[i] = entry.status();
      continue;
    }
    auto plan = (*entry)->evaluator->Plan(item.sql);
    if (!plan.ok()) {
      results[i] = plan.status();
      continue;
    }
    evaluators[i] = (*entry)->evaluator.get();
    plans[i] = std::move(*plan);
  }
  // Whole plans are pool tasks, exactly as in QueryBatch; duplicate items
  // inside one micro-batch coalesce through the evaluator's single-flight
  // layer like any other concurrent duplicates.
  pool_->ParallelFor(0, items.size(), [&](size_t i) {
    if (plans[i] == nullptr) return;  // planning already failed
    results[i] = evaluators[i]->ExecutePlan(*plans[i], items[i].mode,
                                            items[i].cancel, items[i].trace);
  });
  return results;
}

void Catalog::SetCoalescingEnabled(bool enabled) const {
  for (const auto& [name, relation] : relations_) {
    if (relation.evaluator != nullptr) {
      relation.evaluator->set_coalescing_enabled(enabled);
    }
  }
}

Result<std::vector<sql::QueryResult>> Catalog::QueryBatch(
    std::span<const std::string> sqls, AnswerMode mode,
    const util::CancelToken* cancel, obs::TraceContext* trace) const {
  // Route + plan everything first: repeated texts share one plan through
  // each relation's plan cache, and routing errors, malformed SQL, or an
  // unbuilt relation fail before any execution starts.
  std::vector<const HybridEvaluator*> evaluators;
  std::vector<QueryPlanPtr> plans;
  evaluators.reserve(sqls.size());
  plans.reserve(sqls.size());
  for (const std::string& sql : sqls) {
    THEMIS_ASSIGN_OR_RETURN(std::string from, RouteFor(sql));
    THEMIS_ASSIGN_OR_RETURN(const Relation* entry, FindBuilt(from));
    THEMIS_ASSIGN_OR_RETURN(QueryPlanPtr plan, entry->evaluator->Plan(sql));
    evaluators.push_back(entry->evaluator.get());
    plans.push_back(std::move(plan));
  }
  // Whole plans are pool tasks, interleaved across relations; each GROUP
  // BY plan's K-executor fan-out nests on the same pool.
  std::vector<Result<sql::QueryResult>> results(
      plans.size(), Result<sql::QueryResult>(Status::Internal("not run")));
  pool_->ParallelFor(0, plans.size(), [&](size_t i) {
    results[i] = evaluators[i]->ExecutePlan(*plans[i], mode, cancel, trace);
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

Result<double> Catalog::PointQuery(
    const std::string& relation,
    const std::vector<std::pair<std::string, std::string>>& equalities,
    AnswerMode mode) const {
  THEMIS_ASSIGN_OR_RETURN(const Relation* entry, FindBuilt(relation));
  const data::SchemaPtr& schema =
      entry->model->reweighted_sample().schema();
  std::vector<size_t> attrs;
  data::TupleKey values;
  for (const auto& [attr_name, value_label] : equalities) {
    THEMIS_ASSIGN_OR_RETURN(size_t idx, schema->AttributeIndex(attr_name));
    auto code = schema->domain(idx).Code(value_label);
    if (!code.ok()) {
      // Value outside the active domain: the open-world estimate is the
      // BN's, but with no domain entry the probability is zero.
      return 0.0;
    }
    attrs.push_back(idx);
    values.push_back(*code);
  }
  return entry->evaluator->PointEstimate(attrs, values, mode);
}

}  // namespace themis::core
