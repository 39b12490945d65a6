#include "core/model.h"

#include <algorithm>

#include "aggregate/pruning.h"
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

  // Probabilistic model learning + GROUP BY sample generation.
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

    timer.Restart();
    const size_t rows =
        options.bn_sample_rows > 0 ? options.bn_sample_rows : sample_rows;
    // The K tables are consecutive stretches of one Rng(seed) stream. Each
    // SampleTable call advances its Rng by exactly rows · num_nodes()
    // steps, so table k starts from a copy jumped that far k times, and
    // the parallel tables equal the sequential ones bit for bit.
    const size_t k_samples = options.bn_group_by_samples;
    std::vector<Rng> rngs;
    rngs.reserve(k_samples);
    Rng rng(options.seed);
    for (size_t k = 0; k < k_samples; ++k) {
      rngs.push_back(rng);
      if (k + 1 < k_samples) {
        rng.engine().discard(rows * model.network_->num_nodes());
      }
    }
    std::unique_ptr<util::ThreadPool> owned_pool;
    util::ThreadPool* build_pool =
        util::ResolvePool(pool, options.num_threads, owned_pool);
    model.bn_samples_.assign(k_samples, data::Table(model.sample_.schema()));
    std::vector<double> compact_seconds(k_samples, 0.0);
    build_pool->ParallelFor(0, k_samples, [&](size_t k) {
      const data::Table drawn =
          model.network_->SampleTable(rows, model.population_size_, rngs[k]);
      Timer compact_timer;
      model.bn_samples_[k] = drawn.Compact();
      compact_seconds[k] = compact_timer.Seconds();
    });
    model.build_stats_.generate_seconds = timer.Seconds();
    for (size_t k = 0; k < k_samples; ++k) {
      model.build_stats_.compact_seconds += compact_seconds[k];
      model.build_stats_.bn_rows += rows;
      model.build_stats_.bn_classes += model.bn_samples_[k].num_rows();
    }
  }
  return model;
}

}  // namespace themis::core
