#include "core/model.h"

#include <algorithm>

#include "aggregate/pruning.h"
#include "reweight/ipf.h"
#include "reweight/linreg.h"
#include "reweight/uniform.h"
#include "util/logging.h"
#include "util/timer.h"

namespace themis::core {

const char* ReweightMethodName(ReweightMethod method) {
  switch (method) {
    case ReweightMethod::kUniform:
      return "AQP";
    case ReweightMethod::kLinReg:
      return "LinReg";
    case ReweightMethod::kIpf:
      return "IPF";
  }
  return "?";
}

Result<ThemisModel> ThemisModel::Build(data::Table sample,
                                       aggregate::AggregateSet aggregates,
                                       const ThemisOptions& options) {
  if (sample.num_rows() == 0) {
    return Status::InvalidArgument("ThemisModel: empty sample");
  }
  ThemisModel model(std::move(sample), std::move(aggregates), options);

  // Population size: explicit, else the largest aggregate total, else nS
  // (nothing better is known without aggregates).
  model.population_size_ = options.population_size;
  if (model.population_size_ <= 0) {
    for (const auto& spec : model.aggregates_.specs()) {
      model.population_size_ =
          std::max(model.population_size_, spec.TotalCount());
    }
  }
  if (model.population_size_ <= 0) {
    model.population_size_ = static_cast<double>(model.sample_.num_rows());
  }

  // Aggregate pruning (Sec 5.1): keep all 1D aggregates; apply the t-cherry
  // budget to the multi-dimensional candidates.
  if (options.aggregate_budget > 0) {
    std::vector<aggregate::AggregateSpec> multi;
    aggregate::AggregateSet pruned(model.aggregates_.schema());
    for (const auto& spec : model.aggregates_.specs()) {
      if (spec.dimension() <= 1) {
        pruned.Add(spec);
      } else {
        multi.push_back(spec);
      }
    }
    for (size_t idx : aggregate::SelectAggregatesTCherry(
             multi, options.aggregate_budget)) {
      pruned.Add(multi[idx]);
    }
    model.aggregates_ = std::move(pruned);
  }
  model.build_stats_.aggregates_used = model.aggregates_.size();

  // Sample reweighting.
  Timer timer;
  switch (options.reweight) {
    case ReweightMethod::kUniform: {
      reweight::UniformReweighter rw;
      THEMIS_RETURN_IF_ERROR(rw.Reweight(model.sample_, model.aggregates_,
                                         model.population_size_));
      break;
    }
    case ReweightMethod::kLinReg: {
      reweight::LinRegReweighter rw(options.nnls);
      THEMIS_RETURN_IF_ERROR(rw.Reweight(model.sample_, model.aggregates_,
                                         model.population_size_));
      break;
    }
    case ReweightMethod::kIpf: {
      reweight::IpfReweighter rw(options.ipf);
      THEMIS_RETURN_IF_ERROR(rw.Reweight(model.sample_, model.aggregates_,
                                         model.population_size_));
      model.build_stats_.reweight_converged = rw.stats().converged;
      model.build_stats_.reweight_iterations = rw.stats().iterations;
      model.build_stats_.reweight_max_violation = rw.stats().max_violation;
      break;
    }
  }
  model.build_stats_.reweight_seconds = timer.Seconds();

  // Every table the model keeps holds one row per distinct tuple
  // (Table::Compact): answers only sum and multiply weights, so a row's
  // multiplicity rides in its weight and scans touch fewer rows. The BN is
  // learned from the *raw* sample (unit weights): Eq. 2 maximizes the
  // likelihood of S itself, not of the reweighted sample. Compacted, its
  // weights are exact integer multiplicities, so every count learning takes
  // is the integer it is over the rows, and the learned BN is the same.
  timer.Restart();
  const size_t sample_rows = model.sample_.num_rows();
  data::Table raw_sample(model.sample_.schema());
  if (options.enable_bn) {
    raw_sample = model.sample_.Clone();
    raw_sample.FillWeights(1.0);
    raw_sample = raw_sample.Compact();
  }
  model.sample_ = model.sample_.Compact();
  model.build_stats_.compact_seconds = timer.Seconds();
  model.build_stats_.sample_rows = sample_rows;
  model.build_stats_.sample_classes = model.sample_.num_rows();

  // Probabilistic model learning.
  if (options.enable_bn) {
    bn::BnLearnStats bn_stats;
    auto network = bn::LearnBayesNet(model.sample_.schema(), &raw_sample,
                                     &model.aggregates_, options.bn,
                                     &bn_stats);
    if (!network.ok()) return network.status();
    model.network_ =
        std::make_shared<bn::BayesianNetwork>(std::move(network).value());
    model.build_stats_.bn_structure_seconds = bn_stats.structure_seconds;
    model.build_stats_.bn_parameter_seconds = bn_stats.parameter_seconds;
  }
  return model;
}

}  // namespace themis::core
