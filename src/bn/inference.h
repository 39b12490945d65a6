#ifndef THEMIS_BN_INFERENCE_H_
#define THEMIS_BN_INFERENCE_H_

#include <cstddef>
#include <unordered_map>
#include <vector>

#include "bn/bayes_net.h"
#include "stats/freq_table.h"
#include "util/status.h"

namespace themis::bn {

/// A partial assignment: attribute index -> value code.
using Evidence = std::unordered_map<size_t, data::ValueCode>;

/// The most cells any factor of one elimination may hold (32 MiB of
/// doubles). An elimination whose product or result would exceed it fails
/// with kResourceExhausted before allocating; the hybrid evaluator then
/// answers from the sample alone.
inline constexpr size_t kMaxFactorCells = size_t{1} << 22;

/// Exact inference on a discrete BN by variable elimination over dense
/// factors (strided arrays over sorted scopes). Nodes that are not
/// ancestors of a target or evidence attribute are dropped first (their
/// CPTs sum to one); the rest are eliminated greedily by smallest product
/// scope, ties to the lower index, so the order, and with it every float
/// sum, depends only on the network structure, the targets and the
/// evidence attributes. Used for Themis's probabilistic point-query
/// answering, n · Pr(X1 = x1, ..., Xd = xd) (Sec 4.2.4), for the exact
/// GROUP BY marginals, and for parent-joint distributions during
/// constrained parameter learning.
class VariableElimination {
 public:
  explicit VariableElimination(const BayesianNetwork* network)
      : network_(network) {}

  /// Pr(evidence): probability that a population tuple takes exactly the
  /// listed values on the listed attributes.
  Result<double> Probability(const Evidence& evidence) const;

  /// Joint distribution over `targets` given `evidence` (normalized over
  /// the evidence-consistent worlds), keyed in the order of `targets`.
  /// Targets must be distinct and disjoint from the evidence.
  Result<stats::FreqTable> Marginal(const std::vector<size_t>& targets,
                                    const Evidence& evidence = {}) const;

  /// The normalized joint over the attribute set `targets` (any order,
  /// repeats ignored, possibly empty) given `evidence`, as a weighted
  /// table on the network's schema: one row per nonzero cell, in
  /// row-major cell order over the sorted targets, weighing
  /// scale · Pr(cell); every other column holds code 0. A query reading
  /// only the targets answers over it as over a sample of `scale` tuples.
  Result<data::Table> JointTable(std::vector<size_t> targets, double scale,
                                 const Evidence& evidence = {}) const;

 private:
  const BayesianNetwork* network_;
};

}  // namespace themis::bn

#endif  // THEMIS_BN_INFERENCE_H_
