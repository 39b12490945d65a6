// Reproduces Table 6: the error ratio of Themis's hybrid over the reuse
// baseline of Galakatos et al. [33] for GROUP BY COUNT(*) queries over
// O-DE and DT-DE as the Corners bias decreases, using a single 1D
// aggregate over O. Shape to reproduce: ratio ≈ 1 for O-DE (both exploit
// the O aggregate); ratio well above 1... inverted: the paper reports
// err_Themis/err_[33] — ≈1 on O-DE and *below* is better; on DT-DE the
// baseline cannot use the aggregate (falls back to uniform) so the ratio
// moves in Themis's favor as reported (values > 1 in the paper's table
// denote [33]'s error exceeding Themis's by that factor; we print
// err_[33]/err_Themis so larger = Themis better, matching the narrative).
#include "common.h"

#include "stats/metrics.h"
#include "workload/reuse_baseline.h"
#include "util/logging.h"

namespace themis::bench {
namespace {

using workload::FlightsAttrs;

/// The 2D GROUP BY COUNT(*) SQL for an attribute pair.
std::string PairSql(const data::Schema& schema, size_t attr_a,
                    size_t attr_b) {
  return StrFormat("SELECT %s, %s, COUNT(*) FROM sample GROUP BY %s, %s",
                   schema.attribute_name(attr_a).c_str(),
                   schema.attribute_name(attr_b).c_str(),
                   schema.attribute_name(attr_a).c_str(),
                   schema.attribute_name(attr_b).c_str());
}

/// A group-by result as a key->count map on codes.
std::unordered_map<data::TupleKey, double, data::TupleKeyHash> ResultToCodes(
    const sql::QueryResult& result, const data::Schema& schema, size_t attr_a,
    size_t attr_b) {
  std::unordered_map<data::TupleKey, double, data::TupleKeyHash> out;
  for (const auto& row : result.rows) {
    auto ca = schema.domain(attr_a).Code(row.group[0]);
    auto cb = schema.domain(attr_b).Code(row.group[1]);
    THEMIS_CHECK(ca.ok() && cb.ok());
    out[{*ca, *cb}] = row.values[0];
  }
  return out;
}

void Run() {
  PrintHeader("Table 6",
              "Hybrid vs reuse baseline [33], 1D aggregate over O");
  BenchScale scale;
  DatasetSetup setup = MakeFlights(scale);
  const double n = static_cast<double>(setup.population.num_rows());
  aggregate::AggregateSet aggregates(setup.population.schema());
  aggregates.Add(aggregate::ComputeAggregate(setup.population,
                                             {FlightsAttrs::kOrigin}));

  const workload::SelectionCriterion corners{
      FlightsAttrs::kOrigin, {"CA", "NY", "FL", "WA"}};
  const std::vector<std::pair<std::string, std::pair<size_t, size_t>>>
      pairs = {{"O-DE", {FlightsAttrs::kOrigin, FlightsAttrs::kDest}},
               {"DT-DE", {FlightsAttrs::kDistance, FlightsAttrs::kDest}}};

  std::printf("  (err_[33] / err_Themis; >1 means Themis wins)\n");
  std::printf("  bias     O-DE    DT-DE\n");
  for (double bias : {1.0, 0.98, 0.96, 0.94, 0.92, 0.90}) {
    Rng rng(62);
    auto sample =
        workload::BiasedSample(setup.population, 0.1, bias, corners, rng);
    THEMIS_CHECK(sample.ok());
    auto suite =
        workload::MethodSuite::Build(*sample, aggregates, n, BenchOptions());
    THEMIS_CHECK(suite.ok()) << suite.status().ToString();
    // [33] conditions on the *raw* sample (unit weights) and reuses only
    // the known Pr(O) from the aggregate.
    workload::ReuseBaseline baseline(&*sample, &aggregates, n);

    // Both pair queries go through the engine's batch path: planned up
    // front, then executed in parallel across the pool.
    std::vector<std::string> sqls;
    for (const auto& pair : pairs) {
      sqls.push_back(PairSql(*setup.population.schema(), pair.second.first,
                             pair.second.second));
    }
    auto batch = suite->QueryBatch("Hybrid", sqls);
    THEMIS_CHECK(batch.ok()) << batch.status().ToString();

    std::printf("  %.2f", bias);
    for (size_t p = 0; p < pairs.size(); ++p) {
      const auto& attr_pair = pairs[p].second;
      auto truth =
          setup.population.GroupWeights({attr_pair.first, attr_pair.second});
      auto themis_est = ResultToCodes((*batch)[p], *setup.population.schema(),
                                      attr_pair.first, attr_pair.second);
      auto reuse_est =
          baseline.GroupByPair(attr_pair.first, attr_pair.second);
      THEMIS_CHECK(reuse_est.ok());
      const double themis_err =
          stats::GroupByPercentDifference(truth, themis_est);
      const double reuse_err =
          stats::GroupByPercentDifference(truth, *reuse_est);
      std::printf("  %6.2f", themis_err > 0 ? reuse_err / themis_err : 99.0);
    }
    std::printf("\n");
  }
}

}  // namespace
}  // namespace themis::bench

int main() {
  themis::bench::Run();
  return 0;
}
