#ifndef THEMIS_CORE_QUERY_PLAN_H_
#define THEMIS_CORE_QUERY_PLAN_H_

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "data/schema.h"
#include "data/tuple_key.h"
#include "sql/ast.h"
#include "util/lru_cache.h"
#include "util/status.h"

namespace themis::core {

/// How a parsed query will be answered: the Sec 4.3 mode dispatch, hoisted
/// out of the evaluator's ad-hoc sniffing into a reusable logical plan.
enum class PlanKind {
  /// d-dimensional COUNT(*) with only equality predicates: the point rule
  /// (reweighted-sample mass when present, exact BN inference otherwise).
  kPoint,
  /// Any other statement against a BN-backed model: executor answers, with
  /// the exact BN-marginal union machinery outside sample-only mode.
  kGroupBy,
  /// The model has no usable BN, so every mode degenerates to the
  /// reweighted-sample executor whatever the statement shape.
  kPassthrough,
};

const char* PlanKindName(PlanKind kind);

/// An immutable logical plan for one SQL text against one model; shared by
/// const pointer between the plan cache and concurrent executions.
struct QueryPlan {
  PlanKind kind = PlanKind::kPassthrough;
  sql::SelectStatement stmt;

  /// The catalog relation this plan was built against (the planner's
  /// relation stamp); empty for planners created without one.
  std::string relation;

  /// The plan's identity for the evaluator's plan->result memo: the
  /// relation stamp joined with the normalized SQL text, so two relations
  /// planning the same text can never share a memo entry. Empty for plans
  /// constructed outside the planner (such plans are never memoized).
  std::string fingerprint;

  /// kPoint only: resolved attribute indices and value codes.
  std::vector<size_t> point_attrs;
  data::TupleKey point_values;

  /// kPoint whose predicate constant lies outside the active domain: the
  /// answer is 0 in every mode, touching neither sample nor BN.
  bool out_of_domain = false;
};

using QueryPlanPtr = std::shared_ptr<const QueryPlan>;

/// Collapses whitespace runs (outside single-quoted literals) and trims,
/// so formatting differences share one plan-cache entry.
std::string NormalizeSql(const std::string& sql);

/// The table named by the first FROM clause of `sql` — how the catalog
/// routes a query to a relation before any per-relation planning runs.
/// ParseError when the text has no FROM <identifier>.
Result<std::string> FirstFromTable(const std::string& sql);

/// Parses and plans SQL against a fixed schema, caching plans by
/// normalized SQL text in a bounded LRU. Thread-safe.
class QueryPlanner {
 public:
  /// `has_bn` is whether the model can answer through the BN machinery
  /// (a learned network is present). `relation` is
  /// stamped into every produced plan and its fingerprint, isolating the
  /// plan->result memo entries of catalog relations from one another.
  QueryPlanner(data::SchemaPtr schema, bool has_bn,
               size_t plan_cache_capacity = 256, std::string relation = "");

  Result<QueryPlanPtr> Plan(const std::string& sql) const;

  size_t cache_hits() const;
  size_t cache_misses() const;

 private:
  QueryPlan PlanStatement(sql::SelectStatement stmt) const;

  data::SchemaPtr schema_;
  bool has_bn_;
  std::string relation_;
  mutable std::mutex mu_;
  mutable LruCache<std::string, QueryPlanPtr> cache_;
  mutable size_t hits_ = 0;
  mutable size_t misses_ = 0;
};

}  // namespace themis::core

#endif  // THEMIS_CORE_QUERY_PLAN_H_
