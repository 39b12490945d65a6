#include "reweight/ipf.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "data/row_classes.h"
#include "util/string_util.h"

namespace themis::reweight {
namespace {

/// One aggregate over the row classes: each class's group, and per group
/// the target count, whether any class falls in it, and scratch for the
/// sweep. Group num_groups is the "no group" slot of the classes outside
/// every group; its factor stays 1 and its sum is never read.
struct ClassConstraint {
  std::vector<uint32_t> group;           // per class
  std::vector<double> want;              // per group
  std::vector<bool> has_participants;    // per group
  std::vector<double> sum;               // per group + "no group"
  std::vector<double> factor;            // per group + "no group"

  size_t num_groups() const { return want.size(); }

  /// Max relative violation over the groups with participants, from
  /// `sum` (the group sums at the current weights).
  double MaxViolation() const {
    double worst = 0;
    for (size_t g = 0; g < num_groups(); ++g) {
      if (!has_participants[g]) continue;  // unsatisfiable: no participants
      worst = std::max(worst, std::abs(sum[g] - want[g]) /
                                  std::max(1.0, std::abs(want[g])));
    }
    return worst;
  }
};

}  // namespace

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
  // equal throughout. A group's sum over its rows is Σ count·w over its
  // classes. In real arithmetic this is Alg 1 exactly; in floating point
  // only the order of each row sum's additions differs.
  const data::RowClasses classes =
      data::ClassifyRows(sample, aggregates.CoveredAttributes());
  const size_t num_classes = classes.num_classes();
  std::vector<ClassConstraint> cons(aggregates.size());
  for (size_t a = 0; a < aggregates.size(); ++a) {
    const aggregate::AggregateSpec& spec = aggregates[a];
    ClassConstraint& con = cons[a];
    const uint32_t no_group = static_cast<uint32_t>(spec.num_groups());
    std::unordered_map<data::TupleKey, uint32_t, data::TupleKeyHash> index;
    index.reserve(spec.num_groups());
    con.want.reserve(spec.num_groups());
    for (const auto& [key, count] : spec.groups) {
      if (!index.emplace(key, static_cast<uint32_t>(con.want.size()))
               .second) {
        return Status::InvalidArgument(StrFormat(
            "IPF: aggregate %zu has a duplicate group key", a));
      }
      con.want.push_back(count);
    }
    con.has_participants.assign(spec.num_groups(), false);
    con.group.resize(num_classes);
    data::TupleKey key(spec.attrs.size());
    for (size_t c = 0; c < num_classes; ++c) {
      for (size_t i = 0; i < spec.attrs.size(); ++i) {
        key[i] = sample.column(spec.attrs[i])[classes.first_row[c]];
      }
      const auto it = index.find(key);
      con.group[c] = it == index.end() ? no_group : it->second;
      if (it != index.end()) con.has_participants[it->second] = true;
    }
    con.sum.assign(spec.num_groups() + 1, 0.0);
    con.factor.assign(spec.num_groups() + 1, 1.0);
  }

  // Each class's count sits next to its weight: a pass streams one array.
  struct ClassWeight {
    double count;
    double w;
  };
  std::vector<ClassWeight> cw(num_classes);
  for (size_t c = 0; c < num_classes; ++c) {
    cw[c] = {static_cast<double>(classes.count[c]), 1.0};
  }
  // Adds every class into `con`'s group sums at the current weights.
  auto accumulate = [&](ClassConstraint& con) {
    std::fill(con.sum.begin(), con.sum.end(), 0.0);
    for (size_t c = 0; c < num_classes; ++c) {
      con.sum[con.group[c]] += cw[c].count * cw[c].w;
    }
  };

  // One sweep makes one pass over the classes per aggregate a. The pass
  // scales each class by its group's factor (groups of one aggregate are
  // disjoint, so this is Alg 1's scaling of every group of a in turn) and
  // adds the class to the next aggregate's group sums, which are then the
  // sums Alg 1 takes before scaling that aggregate. Every group sum still
  // adds its classes in ascending class order, and a skipped group's
  // factor is exactly 1, so the weights are those of the group-by-group
  // loop bit for bit. The last aggregate's pass leaves aggregate 0's sums
  // at the sweep's final weights: the next sweep starts from them, and the
  // stop test reads them first, since a violation there alone means the
  // sweep has not converged. Only when aggregate 0 holds, or after the
  // last sweep, are the other aggregates' sums taken to finish the test.
  const size_t num_aggs = cons.size();
  accumulate(cons[0]);
  for (int iter = 0; iter < options_.max_iterations; ++iter) {
    for (size_t a = 0; a < num_aggs; ++a) {
      ClassConstraint& con = cons[a];
      for (size_t g = 0; g < con.num_groups(); ++g) {
        const double got = con.sum[g];
        const double want = con.want[g];
        // No participants, already satisfied, or weights driven to zero.
        const bool skip = !con.has_participants[g] || got == want || got <= 0;
        con.factor[g] = skip ? 1.0 : want / got;
      }
      ClassConstraint& next = cons[(a + 1) % num_aggs];
      const double* factor = con.factor.data();
      const uint32_t* group = con.group.data();
      const uint32_t* next_group = next.group.data();
      std::fill(next.sum.begin(), next.sum.end(), 0.0);
      double* next_sum = next.sum.data();
      for (size_t c = 0; c < num_classes; ++c) {
        cw[c].w *= factor[group[c]];
        next_sum[next_group[c]] += cw[c].count * cw[c].w;
      }
    }
    stats_.iterations = iter + 1;
    const bool last = iter + 1 == options_.max_iterations;
    if (cons[0].MaxViolation() > options_.tolerance && !last) continue;
    stats_.aggregate_violation.assign(num_aggs, 0.0);
    for (size_t a = 0; a < num_aggs; ++a) {
      if (a > 0) accumulate(cons[a]);
      stats_.aggregate_violation[a] = cons[a].MaxViolation();
    }
    stats_.max_violation = *std::max_element(
        stats_.aggregate_violation.begin(), stats_.aggregate_violation.end());
    if (stats_.max_violation <= options_.tolerance) {
      stats_.converged = true;
      break;
    }
  }

  std::vector<double>& row_weights = sample.mutable_weights();
  for (size_t r = 0; r < sample.num_rows(); ++r) {
    row_weights[r] = cw[classes.row_class[r]].w;
  }
  return Status::OK();
}

}  // namespace themis::reweight
