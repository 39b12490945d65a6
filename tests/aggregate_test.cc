#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>

#include "aggregate/aggregate.h"
#include "aggregate/aggregate_io.h"
#include "aggregate/pruning.h"
#include "workload/child.h"
#include "workload/experiment.h"

namespace themis::aggregate {
namespace {

data::Table Example31Population() {
  auto schema = std::make_shared<data::Schema>();
  schema->AddAttribute("date", {"01", "02"});
  schema->AddAttribute("o_st", {"FL", "NC", "NY"});
  schema->AddAttribute("d_st", {"FL", "NC", "NY"});
  data::Table pop(schema);
  const char* rows[][3] = {
      {"01", "FL", "FL"}, {"01", "FL", "FL"}, {"02", "FL", "NY"},
      {"01", "NC", "FL"}, {"02", "NC", "NY"}, {"02", "NC", "NY"},
      {"02", "NC", "NY"}, {"01", "NY", "FL"}, {"01", "NY", "NC"},
      {"02", "NY", "NY"}};
  for (const auto& r : rows) pop.AppendRowLabels({r[0], r[1], r[2]});
  return pop;
}

TEST(AggregateTest, ComputeMatchesExample31Gamma1) {
  data::Table pop = Example31Population();
  AggregateSpec g1 = ComputeAggregate(pop, {0});
  ASSERT_EQ(g1.num_groups(), 2u);
  EXPECT_DOUBLE_EQ(g1.TotalCount(), 10.0);
  // Γ1 = {([01], 5), ([02], 5)}
  EXPECT_DOUBLE_EQ(g1.groups[0].second, 5.0);
  EXPECT_DOUBLE_EQ(g1.groups[1].second, 5.0);
}

TEST(AggregateTest, ComputeMatchesExample31Gamma2) {
  data::Table pop = Example31Population();
  AggregateSpec g2 = ComputeAggregate(pop, {1, 2});
  // Γ2 has 7 groups: (FL,FL)=2 (FL,NY)=1 (NC,FL)=1 (NC,NY)=3 (NY,FL)=1
  // (NY,NC)=1 (NY,NY)=1.
  ASSERT_EQ(g2.num_groups(), 7u);
  EXPECT_DOUBLE_EQ(g2.TotalCount(), 10.0);
  stats::FreqTable ft = g2.ToFreqTable();
  EXPECT_DOUBLE_EQ(ft.Mass({0, 0}), 2.0);  // FL,FL
  EXPECT_DOUBLE_EQ(ft.Mass({1, 2}), 3.0);  // NC,NY
}

TEST(AggregateTest, AttrsSortedRegardlessOfInputOrder) {
  data::Table pop = Example31Population();
  AggregateSpec spec = ComputeAggregate(pop, {2, 0});
  EXPECT_EQ(spec.attrs, (std::vector<size_t>{0, 2}));
}

TEST(AggregateTest, PerturbKeepsNonNegative) {
  data::Table pop = Example31Population();
  AggregateSpec spec = ComputeAggregate(pop, {1});
  Rng rng(1);
  PerturbAggregate(spec, 0.5, rng);
  for (const auto& [k, c] : spec.groups) EXPECT_GE(c, 0.0);
}

// A CRLF aggregate file reads like its LF twin: the same groups, and no
// '\r' in a field an error message quotes.
TEST(AggregateIoTest, CrlfReadsLikeLf) {
  const std::string path = std::filesystem::temp_directory_path() /
                           "themis_agg_crlf.csv";
  auto read = [&](const std::string& text) {
    std::ofstream(path, std::ios::binary) << text;
    data::Schema schema;
    schema.AddAttribute("state");
    return ReadAggregateCsv(schema, path);
  };
  auto lf = read("state,count\nCA,3\nNY,4\n");
  auto crlf = read("state,count\r\nCA,3\r\nNY,4\r\n");
  ASSERT_TRUE(lf.ok() && crlf.ok());
  EXPECT_EQ(crlf->attrs, lf->attrs);
  EXPECT_EQ(crlf->groups, lf->groups);
  auto bad = read("state,count\r\nCA,3\r\nNY,abc\r\n");
  EXPECT_EQ(bad.status().message(),
            "'" + path + "' line 3: bad count 'abc'");
  std::remove(path.c_str());
}

// A count must be a finite number >= 0 with only blanks around it: a
// NaN target once turned every IPF weight into NaN.
TEST(AggregateIoTest, RejectsNonFiniteAndMalformedCounts) {
  const std::string path = std::filesystem::temp_directory_path() /
                           "themis_agg_counts.csv";
  auto read = [&](const std::string& count) {
    std::ofstream(path, std::ios::binary)
        << "state,count\nCA,3\nNY," << count << "\n";
    data::Schema schema;
    schema.AddAttribute("state");
    return ReadAggregateCsv(schema, path);
  };
  for (const char* bad : {"nan", "NaN", "inf", "-inf", "1e999", "12abc",
                          "3 4", "-1", "", "0x"}) {
    auto spec = read(bad);
    EXPECT_EQ(spec.status().code(), StatusCode::kParseError) << bad;
    EXPECT_EQ(spec.status().message(), "'" + path + "' line 3: bad count '" +
                                            std::string(bad) + "'")
        << bad;
  }
  for (const char* good : {"4", " 4 ", "4.5", "0", "1e3"}) {
    EXPECT_TRUE(read(good).ok()) << good;
  }
  std::remove(path.c_str());
}

// Two lines with one group key would ask IPF to fit two counts for one
// set of tuples; the reader names both lines.
TEST(AggregateIoTest, RejectsDuplicateGroups) {
  const std::string path = std::filesystem::temp_directory_path() /
                           "themis_agg_dupes.csv";
  std::ofstream(path, std::ios::binary)
      << "a,b,count\nx,p,1\ny,p,2\nx,q,3\ny,p,4\n";
  data::Schema schema;
  schema.AddAttribute("a");
  schema.AddAttribute("b");
  auto spec = ReadAggregateCsv(schema, path);
  EXPECT_EQ(spec.status().code(), StatusCode::kParseError);
  EXPECT_EQ(spec.status().message(),
            "'" + path + "' line 5: duplicate group (first on line 3)");
  // The same keys once each read fine, sorted by key.
  std::ofstream(path, std::ios::binary)
      << "a,b,count\ny,p,2\nx,q,3\nx,p,1\n";
  spec = ReadAggregateCsv(schema, path);
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  ASSERT_EQ(spec->num_groups(), 3u);
  EXPECT_TRUE(std::is_sorted(
      spec->groups.begin(), spec->groups.end(),
      [](const auto& l, const auto& r) { return l.first < r.first; }));
  EXPECT_EQ(spec->TotalCount(), 6.0);
  std::remove(path.c_str());
}

TEST(AggregateSetTest, CoveredAttributesAndTotalGroups) {
  data::Table pop = Example31Population();
  AggregateSet set(pop.schema());
  set.Add(ComputeAggregate(pop, {0}));
  set.Add(ComputeAggregate(pop, {1, 2}));
  EXPECT_EQ(set.size(), 2u);
  EXPECT_EQ(set.CoveredAttributes(), (std::vector<size_t>{0, 1, 2}));
  EXPECT_EQ(set.TotalGroups(), 9u);
}

TEST(AggregateSetTest, FindByAttrs) {
  data::Table pop = Example31Population();
  AggregateSet set(pop.schema());
  set.Add(ComputeAggregate(pop, {1, 2}));
  EXPECT_NE(set.Find({1, 2}), nullptr);
  EXPECT_NE(set.Find({2, 1}), nullptr);  // order-insensitive
  EXPECT_EQ(set.Find({0, 1}), nullptr);
}

TEST(AggregateSetTest, JointSupport) {
  data::Table pop = Example31Population();
  AggregateSet set(pop.schema());
  set.Add(ComputeAggregate(pop, {0}));
  set.Add(ComputeAggregate(pop, {1, 2}));
  EXPECT_TRUE(set.HasJointSupport({0}));
  EXPECT_TRUE(set.HasJointSupport({1, 2}));
  EXPECT_TRUE(set.HasJointSupport({1}));      // marginal of the 2D
  EXPECT_FALSE(set.HasJointSupport({0, 1}));  // never together
}

TEST(AggregateSetTest, JointDistributionMarginalizes) {
  data::Table pop = Example31Population();
  AggregateSet set(pop.schema());
  set.Add(ComputeAggregate(pop, {1, 2}));
  auto dist = set.JointDistribution({1});
  ASSERT_TRUE(dist.ok());
  EXPECT_DOUBLE_EQ(dist->Mass({0}), 3.0);  // FL origins
  EXPECT_DOUBLE_EQ(dist->Mass({1}), 4.0);  // NC origins
  EXPECT_FALSE(set.JointDistribution({0, 1}).ok());
}

TEST(PruningTest, RespectsBudget) {
  data::Table child = workload::GenerateChild({5000, 7, 3});
  std::vector<size_t> attrs;
  for (size_t a = 0; a < 8; ++a) attrs.push_back(a);
  std::vector<AggregateSpec> candidates;
  for (const auto& pair : workload::AllSubsets(attrs, 2)) {
    candidates.push_back(ComputeAggregate(child, pair));
  }
  auto selected = SelectAggregatesTCherry(candidates, 5);
  EXPECT_LE(selected.size(), 5u);
  EXPECT_GE(selected.size(), 1u);
  // No duplicates.
  std::set<size_t> unique(selected.begin(), selected.end());
  EXPECT_EQ(unique.size(), selected.size());
}

TEST(PruningTest, PrefersInformativePairs) {
  // Build a table where (0,1) are perfectly dependent and (2,3) are
  // independent; with budget 1 the t-cherry pick must be a high-MI pair
  // involving the dependent attributes.
  auto schema = std::make_shared<data::Schema>();
  for (const char* name : {"a", "b", "c", "d"}) {
    schema->AddAttribute(name, {"0", "1"});
  }
  data::Table t(schema);
  Rng rng(5);
  for (int i = 0; i < 2000; ++i) {
    data::ValueCode a = rng.Bernoulli(0.5) ? 1 : 0;
    data::ValueCode c = rng.Bernoulli(0.5) ? 1 : 0;
    data::ValueCode d = rng.Bernoulli(0.5) ? 1 : 0;
    t.AppendRow({a, a, c, d});  // b == a
  }
  std::vector<AggregateSpec> candidates;
  for (const auto& pair : workload::AllSubsets({0, 1, 2, 3}, 2)) {
    candidates.push_back(ComputeAggregate(t, pair));
  }
  auto selected = SelectAggregatesTCherry(candidates, 1);
  ASSERT_EQ(selected.size(), 1u);
  EXPECT_EQ(candidates[selected[0]].attrs, (std::vector<size_t>{0, 1}));
}

TEST(PruningTest, MultipleTreesWhenBudgetExceedsAttrs) {
  data::Table child = workload::GenerateChild({3000, 7, 4});
  std::vector<size_t> attrs = {0, 1, 2, 3};
  std::vector<AggregateSpec> candidates;
  for (const auto& pair : workload::AllSubsets(attrs, 2)) {
    candidates.push_back(ComputeAggregate(child, pair));
  }
  // 6 candidates over 4 attrs; one tree covers them with 3 clusters, so a
  // budget of 5 needs a second tree.
  auto selected = SelectAggregatesTCherry(candidates, 5);
  EXPECT_EQ(selected.size(), 5u);
}

TEST(PruningTest, RandomSelectionIsBounded) {
  data::Table pop = Example31Population();
  std::vector<AggregateSpec> candidates = {ComputeAggregate(pop, {0, 1}),
                                           ComputeAggregate(pop, {1, 2}),
                                           ComputeAggregate(pop, {0, 2})};
  Rng rng(9);
  auto selected = SelectAggregatesRandom(candidates, 2, rng);
  EXPECT_EQ(selected.size(), 2u);
  auto all = SelectAggregatesRandom(candidates, 10, rng);
  EXPECT_EQ(all.size(), 3u);
}

TEST(PruningTest, ZeroBudgetSelectsNothing) {
  data::Table pop = Example31Population();
  std::vector<AggregateSpec> candidates = {ComputeAggregate(pop, {1, 2})};
  EXPECT_TRUE(SelectAggregatesTCherry(candidates, 0).empty());
}

}  // namespace
}  // namespace themis::aggregate
