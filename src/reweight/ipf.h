#ifndef THEMIS_REWEIGHT_IPF_H_
#define THEMIS_REWEIGHT_IPF_H_

#include <vector>

#include "reweight/reweighter.h"

namespace themis::reweight {

/// Options for Iterative Proportional Fitting.
struct IpfOptions {
  /// Maximum sweeps over all aggregate constraints (Alg 1's maxIter).
  int max_iterations = 200;
  /// Relative satisfaction tolerance: converged when every constraint j
  /// has |G[j]·w − y[j]| ≤ tolerance · max(1, y[j]).
  double tolerance = 1e-8;
};

struct IpfStats {
  int iterations = 0;       ///< sweeps actually performed
  bool converged = false;   ///< all constraints satisfied within tolerance
  double max_violation = 0; ///< final max relative constraint violation
  /// The final max relative violation of each aggregate's groups, in
  /// aggregate order (max_violation is their max): the per-aggregate fit
  /// residuals. Empty when no sweep ran.
  std::vector<double> aggregate_violation;
};

/// Iterative Proportional Fitting (Sec 4.1.2, Alg 1): treats every tuple
/// weight as an independent unknown and rescales the participants of each
/// unsatisfied aggregate group in turn until all constraints hold (or the
/// iteration budget is exhausted — e.g. when the sample is missing tuples,
/// Example 4.2, in which case the approximate weights are still returned).
/// Rows with equal codes on every aggregate-covered attribute always share
/// one weight, so the loop runs over those distinct-tuple classes, weighing
/// each by its row count, and copies the class weight to its rows at the
/// end. Each aggregate keeps one group id per class; a sweep makes one
/// sequential pass over the classes per aggregate, which scales each class
/// by its group's factor and adds it to the next aggregate's group sums.
/// The stop test sums the other aggregates only once aggregate 0 holds.
/// The weights are those of Alg 1's group-by-group loop bit for bit. The
/// groups of an aggregate must have distinct keys (InvalidArgument
/// otherwise).
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
