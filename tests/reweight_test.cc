#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "reweight/incidence.h"
#include "reweight/ipf.h"
#include "reweight/linreg.h"
#include "reweight/uniform.h"
#include "workload/flights.h"
#include "workload/sampler.h"

namespace themis::reweight {
namespace {

/// The paper's running example (Examples 3.1 / 4.1 / 4.2): population of
/// 10 flights, sample of 4, Γ = {date; (o_st, d_st)}.
struct Example {
  static data::SchemaPtr MakeSchema() {
    auto schema = std::make_shared<data::Schema>();
    schema->AddAttribute("date", {"01", "02"});
    schema->AddAttribute("o_st", {"FL", "NC", "NY"});
    schema->AddAttribute("d_st", {"FL", "NC", "NY"});
    return schema;
  }

  data::SchemaPtr schema = MakeSchema();
  data::Table population{schema};
  data::Table sample{schema};
  aggregate::AggregateSet aggregates;

  Example() {
    const char* prows[][3] = {
        {"01", "FL", "FL"}, {"01", "FL", "FL"}, {"02", "FL", "NY"},
        {"01", "NC", "FL"}, {"02", "NC", "NY"}, {"02", "NC", "NY"},
        {"02", "NC", "NY"}, {"01", "NY", "FL"}, {"01", "NY", "NC"},
        {"02", "NY", "NY"}};
    for (const auto& r : prows) population.AppendRowLabels({r[0], r[1], r[2]});
    const char* srows[][3] = {{"01", "FL", "FL"},
                              {"01", "FL", "FL"},
                              {"02", "NC", "NY"},
                              {"01", "NY", "NC"}};
    for (const auto& r : srows) sample.AppendRowLabels({r[0], r[1], r[2]});
    aggregates = aggregate::AggregateSet(schema);
    aggregates.Add(aggregate::ComputeAggregate(population, {0}));
    aggregates.Add(aggregate::ComputeAggregate(population, {1, 2}));
  }
};

TEST(IncidenceTest, MatchesExample41) {
  Example ex;
  IncidenceSystem sys = BuildIncidence(ex.sample, ex.aggregates);
  // 2 date groups + 7 (o_st, d_st) groups = 9 rows over 4 tuples.
  ASSERT_EQ(sys.g.rows(), 9u);
  EXPECT_EQ(sys.g.cols(), 4u);
  ASSERT_EQ(sys.y.size(), 9u);
  // y = [5 5 | 2 1 1 3 1 1 1] (group order: sorted keys).
  EXPECT_DOUBLE_EQ(sys.y[0], 5.0);
  EXPECT_DOUBLE_EQ(sys.y[1], 5.0);
  // date=01 row touches sample tuples {0, 1, 3}; date=02 touches {2}.
  linalg::Vector ones(4, 1.0);
  EXPECT_DOUBLE_EQ(sys.g.RowDot(0, ones), 3.0);
  EXPECT_DOUBLE_EQ(sys.g.RowDot(1, ones), 1.0);
  // (FL,FL) count 2 touches {0,1}; (FL,NY) count 1 touches nobody.
  EXPECT_DOUBLE_EQ(sys.y[2], 2.0);
  EXPECT_DOUBLE_EQ(sys.g.RowDot(2, ones), 2.0);
  EXPECT_DOUBLE_EQ(sys.y[3], 1.0);
  EXPECT_TRUE(sys.g.Row(3).empty());
}

TEST(UniformTest, EqualWeightsSummingToN) {
  Example ex;
  UniformReweighter rw;
  ASSERT_TRUE(rw.Reweight(ex.sample, ex.aggregates, 10.0).ok());
  for (size_t r = 0; r < ex.sample.num_rows(); ++r) {
    EXPECT_DOUBLE_EQ(ex.sample.weight(r), 2.5);  // 10 / 4
  }
}

TEST(SumNormalizeTest, RescalesToPopulation) {
  Example ex;
  ex.sample.set_weight(0, 2);
  ex.sample.set_weight(1, 2);
  ex.sample.set_weight(2, 4);
  ex.sample.set_weight(3, 8);
  SumNormalize(ex.sample, 32.0);
  EXPECT_DOUBLE_EQ(ex.sample.TotalWeight(), 32.0);
  EXPECT_DOUBLE_EQ(ex.sample.weight(3), 16.0);
}

TEST(IpfTest, FirstSweepMatchesExample42) {
  // Run exactly one IPF sweep and compare with the worked table: after
  // j = 9, iter = 1 the weights are [1, 1, 3, 1].
  Example ex;
  IpfOptions options;
  options.max_iterations = 1;
  IpfReweighter rw(options);
  ASSERT_TRUE(rw.Reweight(ex.sample, ex.aggregates, 10.0).ok());
  EXPECT_NEAR(ex.sample.weight(0), 1.0, 1e-9);
  EXPECT_NEAR(ex.sample.weight(1), 1.0, 1e-9);
  EXPECT_NEAR(ex.sample.weight(2), 3.0, 1e-9);
  EXPECT_NEAR(ex.sample.weight(3), 1.0, 1e-9);
}

TEST(IpfTest, DoesNotConvergeOnExample42) {
  // The sample misses FL-bound tuples, so IPF cannot satisfy all the
  // aggregates (Example 4.2); it must report non-convergence but still
  // deliver approximate positive weights.
  Example ex;
  IpfOptions options;
  options.max_iterations = 50;
  IpfReweighter rw(options);
  ASSERT_TRUE(rw.Reweight(ex.sample, ex.aggregates, 10.0).ok());
  EXPECT_FALSE(rw.stats().converged);
  EXPECT_GT(rw.stats().max_violation, 0.01);
  for (size_t r = 0; r < ex.sample.num_rows(); ++r) {
    EXPECT_GT(ex.sample.weight(r), 0.0);
  }
}

TEST(IpfTest, ConvergesOnFeasibleSystem) {
  // Sample = population: every aggregate is exactly satisfiable with
  // weights of one... but IPF must also converge from a perturbed start.
  Example ex;
  data::Table full = ex.population.Clone();
  IpfReweighter rw;
  ASSERT_TRUE(rw.Reweight(full, ex.aggregates, 10.0).ok());
  EXPECT_TRUE(rw.stats().converged);
  IncidenceSystem sys = BuildIncidence(full, ex.aggregates);
  for (size_t j = 0; j < sys.g.rows(); ++j) {
    if (sys.g.Row(j).empty()) continue;
    EXPECT_NEAR(sys.g.RowDot(j, full.weights()), sys.y[j], 1e-6);
  }
}

TEST(IpfTest, SatisfiedMarginalsStayPut) {
  // With only the satisfiable date aggregate, IPF converges and matches it.
  Example ex;
  aggregate::AggregateSet date_only(ex.schema);
  date_only.Add(aggregate::ComputeAggregate(ex.population, {0}));
  IpfReweighter rw;
  ASSERT_TRUE(rw.Reweight(ex.sample, date_only, 10.0).ok());
  EXPECT_TRUE(rw.stats().converged);
  // date=01 has 3 sample tuples sharing count 5; date=02 has 1 with 5.
  EXPECT_NEAR(ex.sample.weight(0), 5.0 / 3.0, 1e-9);
  EXPECT_NEAR(ex.sample.weight(2), 5.0, 1e-9);
}

TEST(IpfTest, EmptyAggregatesFallsBackToUniform) {
  Example ex;
  aggregate::AggregateSet empty(ex.schema);
  IpfReweighter rw;
  ASSERT_TRUE(rw.Reweight(ex.sample, empty, 10.0).ok());
  EXPECT_DOUBLE_EQ(ex.sample.weight(0), 2.5);
}

TEST(IpfTest, EmptySampleFails) {
  Example ex;
  data::Table empty(ex.schema);
  IpfReweighter rw;
  EXPECT_FALSE(rw.Reweight(empty, ex.aggregates, 10.0).ok());
}

/// Alg 1 over individual rows: the loop IpfReweighter ran before it
/// grouped rows into distinct-tuple classes, kept as the reference the
/// class loop must match.
IpfStats RowLevelIpf(data::Table& sample,
                     const aggregate::AggregateSet& aggregates,
                     const IpfOptions& options) {
  IpfStats stats;
  sample.FillWeights(1.0);
  IncidenceSystem sys = BuildIncidence(sample, aggregates);
  std::vector<double>& w = sample.mutable_weights();
  auto max_relative_violation = [&]() {
    double worst = 0;
    for (size_t j = 0; j < sys.g.rows(); ++j) {
      if (sys.g.Row(j).empty()) continue;
      const double got = sys.g.RowDot(j, w);
      worst = std::max(worst, std::abs(got - sys.y[j]) /
                                  std::max(1.0, std::abs(sys.y[j])));
    }
    return worst;
  };
  for (int iter = 0; iter < options.max_iterations; ++iter) {
    for (size_t j = 0; j < sys.g.rows(); ++j) {
      if (sys.g.Row(j).empty()) continue;
      const double got = sys.g.RowDot(j, w);
      if (got == sys.y[j] || got <= 0.0) continue;
      const double s = sys.y[j] / got;
      for (size_t c : sys.g.Row(j)) w[c] *= s;
    }
    stats.iterations = iter + 1;
    stats.max_violation = max_relative_violation();
    if (stats.max_violation <= options.tolerance) {
      stats.converged = true;
      break;
    }
  }
  return stats;
}

/// Runs IpfReweighter and the row-level reference on copies of `sample`:
/// they may differ only by the order of each row sum's additions.
void ExpectClassIpfMatchesRowLevel(const data::Table& sample,
                                   const aggregate::AggregateSet& aggregates,
                                   const IpfOptions& options) {
  data::Table by_class = sample.Clone();
  IpfReweighter rw(options);
  ASSERT_TRUE(rw.Reweight(by_class, aggregates, 1.0).ok());
  data::Table by_row = sample.Clone();
  const IpfStats want = RowLevelIpf(by_row, aggregates, options);
  EXPECT_EQ(rw.stats().iterations, want.iterations);
  EXPECT_EQ(rw.stats().converged, want.converged);
  EXPECT_NEAR(rw.stats().max_violation, want.max_violation,
              1e-9 * std::max(1.0, want.max_violation));
  for (size_t r = 0; r < sample.num_rows(); ++r) {
    EXPECT_NEAR(by_class.weight(r), by_row.weight(r),
                1e-9 * std::abs(by_row.weight(r)))
        << "row " << r;
  }
}

TEST(IpfTest, ClassesMatchRowLevelOnExample42) {
  // Missing support: the (FL, NY) group has no sample tuple.
  Example ex;
  ExpectClassIpfMatchesRowLevel(ex.sample, ex.aggregates, IpfOptions{});
  IpfOptions one_sweep;
  one_sweep.max_iterations = 1;
  ExpectClassIpfMatchesRowLevel(ex.sample, ex.aggregates, one_sweep);
}

TEST(IpfTest, ClassesMatchRowLevelOnFeasibleSystem) {
  Example ex;
  ExpectClassIpfMatchesRowLevel(ex.population, ex.aggregates, IpfOptions{});
}

TEST(IpfTest, ClassesMatchRowLevelOnBiasedFlightsSample) {
  // The aggregates leave most flights attributes uncovered, so many rows
  // share a class; the 2-D aggregate and the 1-D ones overlap on origin.
  workload::FlightsConfig config;
  config.num_rows = 8000;
  data::Table population = workload::GenerateFlights(config);
  auto sample = workload::MakeFlightsSample(population, "Corners", 0.1, 23);
  ASSERT_TRUE(sample.ok());
  aggregate::AggregateSet aggregates(population.schema());
  aggregates.Add(aggregate::ComputeAggregate(
      population,
      {workload::FlightsAttrs::kOrigin, workload::FlightsAttrs::kDest}));
  aggregates.Add(aggregate::ComputeAggregate(
      population, {workload::FlightsAttrs::kOrigin}));
  aggregates.Add(aggregate::ComputeAggregate(
      population, {workload::FlightsAttrs::kDate}));
  ASSERT_LT(aggregates.CoveredAttributes().size(),
            population.num_attributes());
  ExpectClassIpfMatchesRowLevel(*sample, aggregates, IpfOptions{});
}

TEST(LinRegTest, WeightsPositiveAndNormalized) {
  Example ex;
  LinRegReweighter rw;
  ASSERT_TRUE(rw.Reweight(ex.sample, ex.aggregates, 10.0).ok());
  EXPECT_NEAR(ex.sample.TotalWeight(), 10.0, 1e-9);
  for (size_t r = 0; r < ex.sample.num_rows(); ++r) {
    EXPECT_GT(ex.sample.weight(r), 0.0);
  }
  // β ≥ 0 (the paper's constrained least squares).
  for (double b : rw.beta()) EXPECT_GE(b, -1e-12);
}

TEST(LinRegTest, RecoversUniformOnUnbiasedFeasibleCase) {
  // Sample = population: weights of one satisfy everything, so after
  // normalization to n the weights must all be n/nS = 1.
  Example ex;
  data::Table full = ex.population.Clone();
  LinRegReweighter rw;
  ASSERT_TRUE(rw.Reweight(full, ex.aggregates, 10.0).ok());
  for (size_t r = 0; r < full.num_rows(); ++r) {
    EXPECT_NEAR(full.weight(r), 1.0, 0.2);
  }
}

TEST(LinRegTest, EmptyAggregatesFallsBackToUniform) {
  Example ex;
  aggregate::AggregateSet empty(ex.schema);
  LinRegReweighter rw;
  ASSERT_TRUE(rw.Reweight(ex.sample, empty, 10.0).ok());
  EXPECT_DOUBLE_EQ(ex.sample.weight(1), 2.5);
}

/// Property sweep over biased flights samples: every reweighter yields
/// strictly positive weights, and IPF satisfies any single satisfiable
/// marginal far better than uniform.
class ReweighterPropertyTest : public ::testing::TestWithParam<const char*> {
};

TEST_P(ReweighterPropertyTest, PositiveWeightsOnBiasedSamples) {
  workload::FlightsConfig config;
  config.num_rows = 8000;
  data::Table population = workload::GenerateFlights(config);
  auto sample = workload::MakeFlightsSample(population, GetParam(), 0.1, 21);
  ASSERT_TRUE(sample.ok());
  aggregate::AggregateSet aggregates(population.schema());
  aggregates.Add(aggregate::ComputeAggregate(
      population, {workload::FlightsAttrs::kOrigin}));
  aggregates.Add(aggregate::ComputeAggregate(
      population, {workload::FlightsAttrs::kDate}));

  for (int method = 0; method < 3; ++method) {
    data::Table s = sample->Clone();
    Status status;
    if (method == 0) {
      UniformReweighter rw;
      status = rw.Reweight(s, aggregates, population.num_rows());
    } else if (method == 1) {
      LinRegReweighter rw;
      status = rw.Reweight(s, aggregates, population.num_rows());
    } else {
      IpfReweighter rw;
      status = rw.Reweight(s, aggregates, population.num_rows());
    }
    ASSERT_TRUE(status.ok()) << status.ToString();
    for (size_t r = 0; r < s.num_rows(); ++r) {
      EXPECT_GE(s.weight(r), 0.0);
    }
    EXPECT_GT(s.TotalWeight(), 0.0);
  }
}

TEST_P(ReweighterPropertyTest, IpfFixesTheBiasedMarginal) {
  workload::FlightsConfig config;
  config.num_rows = 8000;
  data::Table population = workload::GenerateFlights(config);
  auto sample = workload::MakeFlightsSample(population, GetParam(), 0.1, 22);
  ASSERT_TRUE(sample.ok());
  aggregate::AggregateSet aggregates(population.schema());
  const size_t attr = workload::FlightsAttrs::kOrigin;
  aggregates.Add(aggregate::ComputeAggregate(population, {attr}));

  data::Table s = sample->Clone();
  IpfReweighter rw;
  ASSERT_TRUE(rw.Reweight(s, aggregates, population.num_rows()).ok());
  auto truth = population.GroupWeights({attr});
  auto estimate = s.GroupWeights({attr});
  for (const auto& [key, est] : estimate) {
    EXPECT_NEAR(est, truth[key], 1e-3 * truth[key] + 1e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(Samples, ReweighterPropertyTest,
                         ::testing::Values("Unif", "June", "SCorners",
                                           "Corners"));

}  // namespace
}  // namespace themis::reweight
