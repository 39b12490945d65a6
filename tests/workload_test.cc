#include <gtest/gtest.h>

#include <set>

#include "stats/freq_table.h"
#include "stats/info.h"
#include "workload/child.h"
#include "workload/experiment.h"
#include "workload/flights.h"
#include "workload/imdb.h"
#include "workload/queries.h"
#include "workload/reuse_baseline.h"
#include "workload/sampler.h"

namespace themis::workload {
namespace {

TEST(FlightsGeneratorTest, SchemaShape) {
  data::Table t = GenerateFlights({5000, 1});
  EXPECT_EQ(t.num_rows(), 5000u);
  ASSERT_EQ(t.schema()->num_attributes(), 5u);
  EXPECT_EQ(t.schema()->attribute_name(FlightsAttrs::kOrigin),
            "origin_state");
  EXPECT_EQ(t.schema()->domain(FlightsAttrs::kDate).size(), 12u);
  EXPECT_EQ(t.schema()->domain(FlightsAttrs::kOrigin).size(), 51u);
  EXPECT_EQ(t.schema()->domain(FlightsAttrs::kElapsed).size(), 20u);
  EXPECT_EQ(t.schema()->domain(FlightsAttrs::kDistance).size(), 15u);
}

TEST(FlightsGeneratorTest, DeterministicPerSeed) {
  data::Table a = GenerateFlights({1000, 9});
  data::Table b = GenerateFlights({1000, 9});
  for (size_t r = 0; r < 50; ++r) {
    for (size_t c = 0; c < 5; ++c) EXPECT_EQ(a.Get(r, c), b.Get(r, c));
  }
}

TEST(FlightsGeneratorTest, OriginSkewTowardsBigStates) {
  data::Table t = GenerateFlights({20000, 2});
  auto counts = t.GroupWeights({FlightsAttrs::kOrigin});
  const auto& domain = t.schema()->domain(FlightsAttrs::kOrigin);
  auto code = [&](const char* s) { return *domain.Code(s); };
  EXPECT_GT(counts[{code("CA")}], counts[{code("WY")}] * 5);
  EXPECT_GT(counts[{code("TX")}], counts[{code("VT")}] * 5);
}

TEST(FlightsGeneratorTest, ElapsedTracksDistance) {
  data::Table t = GenerateFlights({20000, 3});
  stats::FreqTable joint = stats::FreqTable::FromTable(
      t, {FlightsAttrs::kElapsed, FlightsAttrs::kDistance});
  // The correlation the paper blames for LinReg's failures must be strong.
  EXPECT_GT(stats::MutualInformation(joint), 0.8);
}

TEST(ImdbGeneratorTest, SchemaShape) {
  data::Table t = GenerateImdb({3000, 500, 1});
  EXPECT_EQ(t.num_rows(), 3000u);
  ASSERT_EQ(t.schema()->num_attributes(), 8u);
  EXPECT_EQ(t.schema()->domain(ImdbAttrs::kName).size(), 500u);
  EXPECT_EQ(t.schema()->domain(ImdbAttrs::kRating).size(), 10u);
  EXPECT_EQ(t.schema()->domain(ImdbAttrs::kCountry).size(), 3u);
}

TEST(ImdbGeneratorTest, TopRankConcentratesAtHighRatings) {
  data::Table t = GenerateImdb({40000, 500, 2});
  double ranked_high = 0, ranked_low = 0, high = 0, low = 0;
  for (size_t r = 0; r < t.num_rows(); ++r) {
    const bool is_high = t.Get(r, ImdbAttrs::kRating) >= 7;  // rating >= 8
    const bool ranked = t.Get(r, ImdbAttrs::kTopRank) != 0;
    (is_high ? high : low) += 1;
    if (ranked) (is_high ? ranked_high : ranked_low) += 1;
  }
  EXPECT_GT(ranked_high / high, 5 * (ranked_low / low));
}

TEST(ChildGeneratorTest, MatchesNetworkSchema) {
  data::Table t = GenerateChild({2000, 7, 3});
  EXPECT_EQ(t.num_rows(), 2000u);
  EXPECT_EQ(t.schema()->num_attributes(), 20u);
  EXPECT_DOUBLE_EQ(t.TotalWeight(), 2000.0);
}

TEST(SamplerTest, UniformSampleSizeAndWeights) {
  data::Table pop = GenerateFlights({10000, 4});
  Rng rng(1);
  data::Table s = UniformSample(pop, 0.1, rng);
  EXPECT_EQ(s.num_rows(), 1000u);
  EXPECT_DOUBLE_EQ(s.TotalWeight(), 1000.0);  // weights start at 1
}

TEST(SamplerTest, BiasedSampleComposition) {
  data::Table pop = GenerateFlights({20000, 5});
  Rng rng(2);
  SelectionCriterion june{FlightsAttrs::kDate, {"06"}};
  auto s = BiasedSample(pop, 0.1, 0.9, june, rng);
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(s->num_rows(), 2000u);
  const auto& domain = s->schema()->domain(FlightsAttrs::kDate);
  double june_rows = 0;
  for (size_t r = 0; r < s->num_rows(); ++r) {
    if (domain.Label(s->Get(r, FlightsAttrs::kDate)) == "06") ++june_rows;
  }
  EXPECT_NEAR(june_rows / 2000.0, 0.9, 0.02);
}

TEST(SamplerTest, FullBiasExcludesNonMatching) {
  data::Table pop = GenerateFlights({20000, 6});
  Rng rng(3);
  SelectionCriterion corners{FlightsAttrs::kOrigin, {"CA", "NY", "FL", "WA"}};
  auto s = BiasedSample(pop, 0.1, 1.0, corners, rng);
  ASSERT_TRUE(s.ok());
  const auto& domain = s->schema()->domain(FlightsAttrs::kOrigin);
  std::set<std::string> allowed = {"CA", "NY", "FL", "WA"};
  for (size_t r = 0; r < s->num_rows(); ++r) {
    EXPECT_TRUE(
        allowed.count(domain.Label(s->Get(r, FlightsAttrs::kOrigin))));
  }
}

TEST(SamplerTest, NamedSamplesResolve) {
  data::Table fpop = GenerateFlights({5000, 7});
  for (const char* name : {"Unif", "June", "SCorners", "Corners"}) {
    EXPECT_TRUE(MakeFlightsSample(fpop, name, 0.1, 1).ok()) << name;
  }
  EXPECT_FALSE(MakeFlightsSample(fpop, "Nope", 0.1, 1).ok());
  data::Table ipop = GenerateImdb({5000, 200, 8});
  for (const char* name : {"Unif", "GB", "SR159", "R159"}) {
    EXPECT_TRUE(MakeImdbSample(ipop, name, 0.1, 1).ok()) << name;
  }
  EXPECT_FALSE(MakeImdbSample(ipop, "Nope", 0.1, 1).ok());
}

TEST(SamplerTest, BadParametersRejected) {
  data::Table pop = GenerateFlights({1000, 8});
  Rng rng(1);
  SelectionCriterion c{FlightsAttrs::kDate, {"06"}};
  EXPECT_FALSE(BiasedSample(pop, 0.0, 0.9, c, rng).ok());
  EXPECT_FALSE(BiasedSample(pop, 0.1, 1.5, c, rng).ok());
  SelectionCriterion bad{FlightsAttrs::kDate, {"13"}};
  EXPECT_FALSE(BiasedSample(pop, 0.1, 0.9, bad, rng).ok());
}

TEST(QueriesTest, HeavyHittersHaveLargerCounts) {
  data::Table pop = GenerateFlights({20000, 9});
  Rng rng(4);
  auto heavy = MakePointQueries(
      pop, {FlightsAttrs::kOrigin, FlightsAttrs::kDate},
      HitterClass::kHeavy, 50, rng);
  auto light = MakePointQueries(
      pop, {FlightsAttrs::kOrigin, FlightsAttrs::kDate},
      HitterClass::kLight, 50, rng);
  ASSERT_EQ(heavy.size(), 50u);
  ASSERT_EQ(light.size(), 50u);
  double heavy_min = 1e18, light_max = 0;
  for (const auto& q : heavy) heavy_min = std::min(heavy_min, q.true_count);
  for (const auto& q : light) light_max = std::max(light_max, q.true_count);
  EXPECT_GE(heavy_min, light_max);
}

TEST(QueriesTest, TrueCountsMatchPopulation) {
  data::Table pop = GenerateFlights({5000, 10});
  Rng rng(5);
  auto queries = MakePointQueries(pop, {FlightsAttrs::kOrigin},
                                  HitterClass::kRandom, 20, rng);
  for (const auto& q : queries) {
    auto groups = pop.GroupWeights(q.attrs);
    EXPECT_DOUBLE_EQ(groups[q.values], q.true_count);
    EXPECT_GT(q.true_count, 0.0);  // existing values only
  }
}

TEST(QueriesTest, MixedDimensionsWithinRange) {
  data::Table pop = GenerateFlights({5000, 11});
  Rng rng(6);
  auto queries =
      MakeMixedPointQueries(pop, 2, 4, HitterClass::kRandom, 30, rng);
  ASSERT_EQ(queries.size(), 30u);
  for (const auto& q : queries) {
    EXPECT_GE(q.attrs.size(), 2u);
    EXPECT_LE(q.attrs.size(), 4u);
  }
}

TEST(AllSubsetsTest, CountsAreBinomial) {
  std::vector<size_t> attrs = {0, 1, 2, 3, 4};
  EXPECT_EQ(AllSubsets(attrs, 1).size(), 5u);
  EXPECT_EQ(AllSubsets(attrs, 2).size(), 10u);
  EXPECT_EQ(AllSubsets(attrs, 3).size(), 10u);
  EXPECT_EQ(AllSubsets(attrs, 5).size(), 1u);
  EXPECT_TRUE(AllSubsets(attrs, 6).empty());
  // Paper: 26 attribute sets of size 2..5 over the 5 Flights attributes.
  size_t total = 0;
  for (size_t d = 2; d <= 5; ++d) total += AllSubsets(attrs, d).size();
  EXPECT_EQ(total, 26u);
}

TEST(ReuseBaselineTest, UsesKnownMarginalWhenAvailable) {
  data::Table pop = GenerateFlights({20000, 12});
  auto sample = MakeFlightsSample(pop, "Corners", 0.1, 13);
  ASSERT_TRUE(sample.ok());
  aggregate::AggregateSet aggs(pop.schema());
  aggs.Add(aggregate::ComputeAggregate(pop, {FlightsAttrs::kOrigin}));

  ReuseBaseline baseline(&*sample, &aggs, pop.num_rows());
  auto est = baseline.GroupByPair(FlightsAttrs::kOrigin,
                                  FlightsAttrs::kDest);
  ASSERT_TRUE(est.ok());
  // Marginal over O implied by the estimate must match the aggregate for
  // origins present in the sample (Pr(A) is reused, conditionals sum to 1).
  auto truth_o = pop.GroupWeights({FlightsAttrs::kOrigin});
  std::unordered_map<data::ValueCode, double> est_o;
  for (const auto& [key, v] : *est) est_o[key[0]] += v;
  const auto& domain = pop.schema()->domain(FlightsAttrs::kOrigin);
  for (const char* state : {"CA", "NY", "FL", "WA"}) {
    const data::ValueCode code = *domain.Code(state);
    EXPECT_NEAR(est_o[code], truth_o[{code}], truth_o[{code}] * 0.01 + 1e-9);
  }
}

TEST(ReuseBaselineTest, NoPriorFallsBackToSample) {
  data::Table pop = GenerateFlights({10000, 14});
  Rng rng(15);
  data::Table sample = UniformSample(pop, 0.1, rng);
  ReuseBaseline baseline(&sample, nullptr, pop.num_rows());
  auto est = baseline.GroupByPair(FlightsAttrs::kDistance,
                                  FlightsAttrs::kDest);
  ASSERT_TRUE(est.ok());
  // Total estimated mass ≈ n (the sample joint scaled uniformly).
  double total = 0;
  for (const auto& [k, v] : *est) total += v;
  EXPECT_NEAR(total, pop.num_rows(), pop.num_rows() * 0.01);
}

TEST(MethodSuiteTest, AllMethodsAnswer) {
  data::Table pop = GenerateFlights({8000, 16});
  auto sample = MakeFlightsSample(pop, "SCorners", 0.1, 17);
  ASSERT_TRUE(sample.ok());
  auto aggs = MakeAggregates(
      pop, {{FlightsAttrs::kOrigin}, {FlightsAttrs::kDate},
            {FlightsAttrs::kOrigin, FlightsAttrs::kDest}});
  core::ThemisOptions options;
  auto suite = MethodSuite::Build(*sample, aggs, pop.num_rows(), options);
  ASSERT_TRUE(suite.ok()) << suite.status().ToString();
  Rng rng(18);
  auto queries = MakePointQueries(pop, {FlightsAttrs::kOrigin},
                                  HitterClass::kHeavy, 20, rng);
  for (const std::string& method : MethodSuite::MethodNames()) {
    auto errors = suite->Errors(method, queries);
    ASSERT_TRUE(errors.ok()) << method;
    EXPECT_EQ(errors->size(), queries.size());
  }
  EXPECT_FALSE(suite->Errors("nope", queries).ok());
}

TEST(EnvScaleTest, DefaultsToOne) {
  // THEMIS_SCALE unset in the test environment.
  EXPECT_DOUBLE_EQ(EnvScale(), 1.0);
}

}  // namespace
}  // namespace themis::workload
