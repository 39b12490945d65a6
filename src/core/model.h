#ifndef THEMIS_CORE_MODEL_H_
#define THEMIS_CORE_MODEL_H_

#include <memory>
#include <vector>

#include "aggregate/aggregate.h"
#include "bn/bayes_net.h"
#include "core/options.h"
#include "data/table.h"
#include "util/status.h"

namespace themis::util {
class ThreadPool;
}  // namespace themis::util

namespace themis::core {

/// Timing/diagnostic record of a model build, used by the Table 8 / Fig 16
/// benchmarks.
struct BuildStats {
  double reweight_seconds = 0;
  double bn_structure_seconds = 0;
  double bn_parameter_seconds = 0;
  /// Vestigial, always 0: the model pre-generates no BN samples (GROUP BY
  /// answers come from exact BN marginals). Kept for code that reads it.
  double generate_seconds = 0;
  bool reweight_converged = true;
  int reweight_iterations = 0;
  /// IPF's final max relative constraint violation (IpfStats); 0 for the
  /// other reweighters.
  double reweight_max_violation = 0;
  size_t aggregates_used = 0;
  /// Seconds classifying the sample's rows (once) and compacting the
  /// sample and the raw sample the BN learns from, summed; these stages
  /// overlap reweighting in part (ThemisModel::Build).
  double compact_seconds = 0;
  /// Rows of the reweighted sample before and after compaction. The row
  /// count is also n, the draw size of the consensus rule that picks a
  /// GROUP BY's BN groups (HybridEvaluator).
  size_t sample_rows = 0;
  size_t sample_classes = 0;
};

/// The model M(Γ, S) of Sec 4: a reweighted sample plus a Bayesian-network
/// approximation of the population distribution, built from a biased sample
/// and population aggregates. Queries are answered by the HybridEvaluator.
class ThemisModel {
 public:
  /// Runs the full build pipeline: infer |P| → prune Γ to the budget →
  /// reweight S → keep one row per distinct tuple of S (Table::Compact).
  /// The BN is learned from the raw sample, so it needs nothing from
  /// reweighting: with a `pool` of two or more threads it is learned in a
  /// pool task while the calling thread reweights; with none, or one
  /// thread, the stages run in sequence. The model is bitwise the same
  /// either way. Nothing is sampled from the BN: point queries and GROUP
  /// BYs both answer from exact inference on it (HybridEvaluator).
  static Result<ThemisModel> Build(data::Table sample,
                                   aggregate::AggregateSet aggregates,
                                   const ThemisOptions& options = {},
                                   util::ThreadPool* pool = nullptr);

  const ThemisOptions& options() const { return options_; }
  double population_size() const { return population_size_; }

  /// The sample with learned weights (queried via SUM(weight)), one row
  /// per distinct tuple: a row weighs the sum of the learned weights of
  /// the sample rows holding its tuple (Table::Compact).
  const data::Table& reweighted_sample() const { return sample_; }

  /// The learned population model; null when options.enable_bn is false.
  const bn::BayesianNetwork* network() const { return network_.get(); }

  /// Vestigial, always empty: the model keeps no pre-generated BN
  /// samples. Kept for code that iterates over them.
  const std::vector<data::Table>& bn_samples() const {
    static const std::vector<data::Table> kNone;
    return kNone;
  }

  /// The aggregates actually used after pruning.
  const aggregate::AggregateSet& aggregates() const { return aggregates_; }

  const BuildStats& build_stats() const { return build_stats_; }

 private:
  ThemisModel(data::Table sample, aggregate::AggregateSet aggregates,
              ThemisOptions options)
      : sample_(std::move(sample)),
        aggregates_(std::move(aggregates)),
        options_(std::move(options)) {}

  data::Table sample_;
  aggregate::AggregateSet aggregates_;
  ThemisOptions options_;
  double population_size_ = 0;
  std::shared_ptr<bn::BayesianNetwork> network_;
  BuildStats build_stats_;
};

}  // namespace themis::core

#endif  // THEMIS_CORE_MODEL_H_
