#ifndef THEMIS_TESTS_IPF_REFERENCE_H_
#define THEMIS_TESTS_IPF_REFERENCE_H_

#include <algorithm>
#include <cmath>
#include <vector>

#include "aggregate/aggregate.h"
#include "data/row_classes.h"
#include "data/table.h"
#include "reweight/incidence.h"
#include "reweight/ipf.h"

namespace themis::reweight {

/// The row weights and stats IpfReweighter must give bit for bit.
struct ReferenceIpfResult {
  std::vector<double> row_weights;
  IpfStats stats;
};

/// Alg 1 over distinct-tuple classes, group by group: each sweep walks the
/// incidence matrix's rows (its own size_t indices, with separate count
/// and weight arrays), sums each group over its classes in ascending
/// class order, scales them, and after the sweep sums every group again
/// for the stop test.
inline ReferenceIpfResult ReferenceIpf(
    const data::Table& sample, const aggregate::AggregateSet& aggregates,
    const IpfOptions& options) {
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
  ReferenceIpfResult result;
  IpfStats& stats = result.stats;
  for (int iter = 0; iter < options.max_iterations; ++iter) {
    for (size_t j = 0; j < sys.g.rows(); ++j) {
      if (sys.g.Row(j).empty()) continue;
      const double got = row_sum(j);
      if (got == sys.y[j] || got <= 0.0) continue;
      const double s = sys.y[j] / got;
      for (size_t c : sys.g.Row(j)) w[c] *= s;
    }
    stats.iterations = iter + 1;
    stats.aggregate_violation.assign(aggregates.size(), 0.0);
    stats.max_violation = 0;
    for (size_t j = 0; j < sys.g.rows(); ++j) {
      if (sys.g.Row(j).empty()) continue;
      const double v = std::abs(row_sum(j) - sys.y[j]) /
                       std::max(1.0, std::abs(sys.y[j]));
      double& worst = stats.aggregate_violation[sys.row_origin[j].first];
      worst = std::max(worst, v);
      stats.max_violation = std::max(stats.max_violation, v);
    }
    if (stats.max_violation <= options.tolerance) {
      stats.converged = true;
      break;
    }
  }
  result.row_weights.resize(sample.num_rows());
  for (size_t r = 0; r < sample.num_rows(); ++r) {
    result.row_weights[r] = w[classes.row_class[r]];
  }
  return result;
}

}  // namespace themis::reweight

#endif  // THEMIS_TESTS_IPF_REFERENCE_H_
