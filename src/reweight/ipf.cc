#include "reweight/ipf.h"

#include <algorithm>
#include <cmath>
#include <span>

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
  // The sweeps read 32-bit class indices (ClassifyRows numbers fewer than
  // 2^32 classes), with each class's count stored next to its weight: half
  // the index bytes of the incidence matrix, and one cache line per class
  // touched. The arithmetic and its order are unchanged, and so are the
  // weights, bit for bit.
  struct ClassWeight {
    double count;
    double w;
  };
  std::vector<ClassWeight> cw(classes.num_classes());
  for (size_t c = 0; c < cw.size(); ++c) {
    cw[c] = {static_cast<double>(classes.count[c]), 1.0};
  }
  std::vector<size_t> row_begin(sys.g.rows() + 1, 0);
  std::vector<uint32_t> members;
  for (size_t j = 0; j < sys.g.rows(); ++j) {
    for (size_t c : sys.g.Row(j)) members.push_back(static_cast<uint32_t>(c));
    row_begin[j + 1] = members.size();
  }
  auto participants = [&](size_t j) {
    return std::span<const uint32_t>(members.data() + row_begin[j],
                                     members.data() + row_begin[j + 1]);
  };

  auto row_sum = [&](size_t j) {
    double s = 0;
    for (uint32_t c : participants(j)) s += cw[c].count * cw[c].w;
    return s;
  };
  auto max_relative_violation = [&]() {
    double worst = 0;
    for (size_t j = 0; j < sys.g.rows(); ++j) {
      if (participants(j).empty()) continue;  // unsatisfiable: no participants
      const double got = row_sum(j);
      const double want = sys.y[j];
      worst = std::max(worst,
                       std::abs(got - want) / std::max(1.0, std::abs(want)));
    }
    return worst;
  };

  for (int iter = 0; iter < options_.max_iterations; ++iter) {
    for (size_t j = 0; j < sys.g.rows(); ++j) {
      if (participants(j).empty()) continue;
      const double got = row_sum(j);
      const double want = sys.y[j];
      if (got == want) continue;
      if (got <= 0.0) continue;  // weights already driven to zero
      const double s = want / got;
      for (uint32_t c : participants(j)) cw[c].w *= s;
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
    row_weights[r] = cw[classes.row_class[r]].w;
  }
  if (options_.sum_normalize) SumNormalize(sample, population_size);
  return Status::OK();
}

}  // namespace themis::reweight
