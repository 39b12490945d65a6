#ifndef THEMIS_REWEIGHT_IPF_H_
#define THEMIS_REWEIGHT_IPF_H_

#include "reweight/reweighter.h"

namespace themis::reweight {

/// Options for Iterative Proportional Fitting.
struct IpfOptions {
  /// Maximum sweeps over all aggregate constraints (Alg 1's maxIter).
  int max_iterations = 200;
  /// Relative satisfaction tolerance: converged when every constraint j
  /// has |G[j]·w − y[j]| ≤ tolerance · max(1, y[j]).
  double tolerance = 1e-8;
  /// When true (default off), sum-normalize the final weights to the
  /// population size. The raw IPF fixed point already matches each
  /// aggregate's total when a feasible scaling exists, so this is off by
  /// default to preserve exact marginal satisfaction.
  bool sum_normalize = false;
};

struct IpfStats {
  int iterations = 0;       ///< sweeps actually performed
  bool converged = false;   ///< all constraints satisfied within tolerance
  double max_violation = 0; ///< final max relative constraint violation
};

/// Iterative Proportional Fitting (Sec 4.1.2, Alg 1): treats every tuple
/// weight as an independent unknown and rescales the participants of each
/// unsatisfied aggregate group in turn until all constraints hold (or the
/// iteration budget is exhausted — e.g. when the sample is missing tuples,
/// Example 4.2, in which case the approximate weights are still returned).
/// Rows with equal codes on every aggregate-covered attribute always share
/// one weight, so the loop runs over those distinct-tuple classes, weighing
/// each by its row count, and copies the class weight to its rows at the
/// end.
class IpfReweighter : public Reweighter {
 public:
  explicit IpfReweighter(IpfOptions options = {}) : options_(options) {}

  std::string name() const override { return "IPF"; }

  Status Reweight(data::Table& sample,
                  const aggregate::AggregateSet& aggregates,
                  double population_size) override;

  /// Statistics from the last Reweight call.
  const IpfStats& stats() const { return stats_; }

 private:
  IpfOptions options_;
  IpfStats stats_;
};

}  // namespace themis::reweight

#endif  // THEMIS_REWEIGHT_IPF_H_
