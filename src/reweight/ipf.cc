#include "reweight/ipf.h"

#include <algorithm>
#include <cmath>

#include "data/row_classes.h"
#include "reweight/incidence.h"
#include "util/logging.h"

namespace themis::reweight {

Status IpfReweighter::Reweight(data::Table& sample,
                               const aggregate::AggregateSet& aggregates,
                               double population_size) {
  stats_ = IpfStats{};
  if (sample.num_rows() == 0) {
    return Status::InvalidArgument("IPF: empty sample");
  }
  sample.FillWeights(1.0);
  if (aggregates.empty()) {
    SumNormalize(sample, population_size);
    return Status::OK();
  }

  // Alg 1 runs over row classes instead of rows: rows with equal codes on
  // every attribute some aggregate covers belong to exactly the same
  // aggregate groups, so IPF, which starts every row at weight 1 and
  // scales all participants of a group by one factor, keeps their weights
  // equal throughout. One representative row per class gives the
  // incidence system one column per class, and a group's sum over its rows
  // is Σ count·w over its classes. In real arithmetic this is Alg 1
  // exactly; in floating point only the order of each row sum's additions
  // differs.
  const data::RowClasses classes =
      data::ClassifyRows(sample, aggregates.CoveredAttributes());
  std::vector<bool> first_row(sample.num_rows(), false);
  for (uint32_t r : classes.first_row) first_row[r] = true;
  const IncidenceSystem sys =
      BuildIncidence(sample.Filter(first_row), aggregates);
  const std::vector<double> count(classes.count.begin(), classes.count.end());
  std::vector<double> w(count.size(), 1.0);

  auto row_sum = [&](size_t j) {
    double s = 0;
    for (size_t c : sys.g.Row(j)) s += count[c] * w[c];
    return s;
  };
  auto max_relative_violation = [&]() {
    double worst = 0;
    for (size_t j = 0; j < sys.g.rows(); ++j) {
      if (sys.g.Row(j).empty()) continue;  // unsatisfiable: no participants
      const double got = row_sum(j);
      const double want = sys.y[j];
      worst = std::max(worst,
                       std::abs(got - want) / std::max(1.0, std::abs(want)));
    }
    return worst;
  };

  for (int iter = 0; iter < options_.max_iterations; ++iter) {
    for (size_t j = 0; j < sys.g.rows(); ++j) {
      auto participants = sys.g.Row(j);
      if (participants.empty()) continue;
      const double got = row_sum(j);
      const double want = sys.y[j];
      if (got == want) continue;
      if (got <= 0.0) continue;  // weights already driven to zero
      const double s = want / got;
      for (size_t c : participants) w[c] *= s;
    }
    stats_.iterations = iter + 1;
    stats_.max_violation = max_relative_violation();
    if (stats_.max_violation <= options_.tolerance) {
      stats_.converged = true;
      break;
    }
  }

  std::vector<double>& row_weights = sample.mutable_weights();
  for (size_t r = 0; r < sample.num_rows(); ++r) {
    row_weights[r] = w[classes.row_class[r]];
  }
  if (options_.sum_normalize) SumNormalize(sample, population_size);
  return Status::OK();
}

}  // namespace themis::reweight
