#include "core/model.h"

#include <algorithm>
#include <future>
#include <numeric>

#include "aggregate/pruning.h"
#include "data/row_classes.h"
#include "reweight/ipf.h"
#include "reweight/linreg.h"
#include "reweight/uniform.h"
#include "util/logging.h"
#include "util/thread_pool.h"
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
                                       const ThemisOptions& options,
                                       util::ThreadPool* pool) {
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

  // The BN is learned from the *raw* sample (unit weights): Eq. 2
  // maximizes the likelihood of S itself, not of the reweighted sample. So
  // it needs nothing from reweighting, and with a pool it is learned in one
  // pool task while this thread reweights. The task reads only the
  // sample's codes, which reweighting leaves alone. Every table the model
  // keeps holds one row per distinct tuple (Table::Compact): answers only
  // sum and multiply weights, so a row's multiplicity rides in its weight
  // and scans touch fewer rows. The raw sample and the reweighted sample
  // have the same codes, so one row classification serves both. The raw
  // sample's compacted weights are exact integer row counts, so every
  // count learning takes is the integer it is over the rows, and the
  // learned BN is the same.
  struct LearnedBn {
    data::RowClasses classes;
    double compact_seconds = 0;
    Status status;
    std::shared_ptr<bn::BayesianNetwork> network;  // null without a BN
    bn::BnLearnStats stats;
  };
  const data::Table& codes = model.sample_;
  const data::SchemaPtr schema = codes.schema();
  const aggregate::AggregateSet* aggregates_used = &model.aggregates_;
  auto learn_bn = [&codes, schema, aggregates_used, &options] {
    LearnedBn learned;
    Timer timer;
    std::vector<size_t> all(schema->num_attributes());
    std::iota(all.begin(), all.end(), size_t{0});
    learned.classes = data::ClassifyRows(codes, all);
    if (!options.enable_bn) {
      learned.compact_seconds = timer.Seconds();
      return learned;
    }
    const data::Table raw_sample = codes.CompactCounts(learned.classes);
    learned.compact_seconds = timer.Seconds();
    auto network = bn::LearnBayesNet(schema, &raw_sample, aggregates_used,
                                     options.bn, &learned.stats);
    if (network.ok()) {
      learned.network =
          std::make_shared<bn::BayesianNetwork>(std::move(network).value());
    } else {
      learned.status = network.status();
    }
    return learned;
  };
  const bool overlap = pool != nullptr && pool->num_threads() > 1;
  std::future<LearnedBn> learning;
  if (overlap) learning = pool->Submit(learn_bn);

  // Sample reweighting.
  Timer timer;
  Status reweighted = Status::OK();
  switch (options.reweight) {
    case ReweightMethod::kUniform: {
      reweight::UniformReweighter rw;
      reweighted = rw.Reweight(model.sample_, model.aggregates_,
                               model.population_size_);
      break;
    }
    case ReweightMethod::kLinReg: {
      reweight::LinRegReweighter rw(options.nnls);
      reweighted = rw.Reweight(model.sample_, model.aggregates_,
                               model.population_size_);
      break;
    }
    case ReweightMethod::kIpf: {
      reweight::IpfReweighter rw(options.ipf);
      reweighted = rw.Reweight(model.sample_, model.aggregates_,
                               model.population_size_);
      model.build_stats_.reweight_converged = rw.stats().converged;
      model.build_stats_.reweight_iterations = rw.stats().iterations;
      model.build_stats_.reweight_max_violation = rw.stats().max_violation;
      break;
    }
  }
  model.build_stats_.reweight_seconds = timer.Seconds();

  // The task reads the sample and the aggregates, so it is finished
  // before either changes or goes out of scope, error or not.
  LearnedBn learned = overlap ? pool->GetHelping(learning) : learn_bn();
  THEMIS_RETURN_IF_ERROR(reweighted);
  THEMIS_RETURN_IF_ERROR(learned.status);

  timer.Restart();
  const size_t sample_rows = model.sample_.num_rows();
  model.sample_ = model.sample_.Compact(learned.classes);
  model.build_stats_.compact_seconds =
      learned.compact_seconds + timer.Seconds();
  model.build_stats_.sample_rows = sample_rows;
  model.build_stats_.sample_classes = model.sample_.num_rows();

  model.network_ = std::move(learned.network);
  model.build_stats_.bn_structure_seconds = learned.stats.structure_seconds;
  model.build_stats_.bn_parameter_seconds = learned.stats.parameter_seconds;
  return model;
}

}  // namespace themis::core
