#ifndef THEMIS_BN_INFERENCE_ENGINE_H_
#define THEMIS_BN_INFERENCE_ENGINE_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <variant>
#include <vector>

#include "bn/inference.h"
#include "data/table.h"
#include "util/lru_cache.h"

namespace themis::bn {

/// Snapshot of the engine's memoization counters.
struct InferenceCacheStats {
  size_t hits = 0;
  size_t misses = 0;
  size_t evictions = 0;
  /// Entries refused admission under a byte budget (entry alone too big).
  size_t rejections = 0;
  size_t entries = 0;
  /// Total cost of the resident entries: approximate bytes under a byte
  /// budget, the entry count otherwise.
  size_t cost = 0;
  /// The active bound in the same units as `cost` (0 = unbounded).
  /// Changes when the catalog rebalances budgets after DropRelation.
  size_t capacity = 0;

  double HitRate() const {
    const size_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) / total;
  }
};

/// The unified inference entry point: wraps VariableElimination with a
/// thread-safe LRU memo table of point probabilities (keyed by the
/// canonicalized evidence) and marginal tables (keyed by the sorted
/// attribute set). Every query-path caller goes through an engine, so
/// repeated and batched queries reuse prior computation across queries —
/// the serving-side analogue of the paper's Table 6 reuse experiment.
/// Both kinds are computed from the canonical form alone, so answers are
/// bitwise identical whether the cache is enabled or not.
class InferenceEngine {
 public:
  struct Options {
    bool enable_cache = true;
    /// Maximum number of memoized results; 0 means unbounded.
    size_t cache_capacity = 4096;
    /// When positive, overrides `cache_capacity` with a cost-aware bound:
    /// entries are weighted by their approximate bytes (marginal tables by
    /// their columns and weights, probabilities by a small constant), so one
    /// huge marginal cannot silently displace thousands of cheap entries
    /// — and is rejected outright if it alone exceeds the budget. Each
    /// engine serves exactly one model; a core::Catalog splits its
    /// catalog-wide byte budget evenly across relations before it reaches
    /// this knob, so the relations' engines divide one admission budget
    /// (each engine's share is fixed at its relation's build time).
    size_t cache_bytes = 0;
  };

  explicit InferenceEngine(const BayesianNetwork* network);
  InferenceEngine(const BayesianNetwork* network, Options options);

  const BayesianNetwork* network() const { return network_; }

  /// Pr(evidence): probability that a population tuple takes exactly the
  /// listed values on the listed attributes. Memoized.
  Result<double> Probability(const Evidence& evidence) const;

  /// VariableElimination::JointTable(attrs, population_size): the joint
  /// over `attrs` as a table of one row per nonzero cell weighing
  /// population_size · Pr(cell). Memoized on the sorted attribute set and
  /// the scale, so the cached and fresh tables are bitwise equal.
  Result<std::shared_ptr<const data::Table>> MarginalTable(
      const std::vector<size_t>& attrs, double population_size) const;

  bool cache_enabled() const;
  void set_cache_enabled(bool enabled);

  /// Rebounds a cost-aware cache in place (no-op for an engine built
  /// without Options::cache_bytes, or when `cache_bytes` is 0): growing
  /// keeps every warm entry, shrinking evicts LRU-first. How a catalog
  /// re-inflates surviving relations' shares after DropRelation.
  void set_cache_bytes(size_t cache_bytes);

  /// Drops every memoized entry and resets the counters.
  void ClearCache();

  InferenceCacheStats cache_stats() const;

 private:
  /// A probability or a marginal table.
  using CacheValue =
      std::variant<double, std::shared_ptr<const data::Table>>;

  /// Admission cost of one cache entry under the active policy.
  size_t EntryCost(const CacheValue& value) const;

  const BayesianNetwork* network_;
  VariableElimination ve_;
  bool cost_aware_;  // true when Options::cache_bytes > 0
  /// Atomic so the hot paths snapshot it without taking mu_; a toggle
  /// racing an in-flight call at worst stores into (or skips) the cache
  /// once, which ClearCache() tidies up.
  mutable std::atomic<bool> cache_enabled_;
  mutable std::mutex mu_;
  mutable LruCache<std::string, CacheValue> cache_;
  mutable size_t hits_ = 0;
  mutable size_t misses_ = 0;
};

}  // namespace themis::bn

#endif  // THEMIS_BN_INFERENCE_ENGINE_H_
