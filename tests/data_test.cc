#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <random>
#include <unordered_map>

#include "data/bucketize.h"
#include "data/csv.h"
#include "data/domain.h"
#include "data/row_classes.h"
#include "data/schema.h"
#include "data/table.h"

namespace themis::data {
namespace {

TEST(DomainTest, InternAssignsSequentialCodes) {
  Domain d("state");
  EXPECT_EQ(d.Intern("CA"), 0);
  EXPECT_EQ(d.Intern("NY"), 1);
  EXPECT_EQ(d.Intern("CA"), 0);  // idempotent
  EXPECT_EQ(d.size(), 2u);
}

TEST(DomainTest, FixedDomainLookup) {
  Domain d("m", {"01", "02", "03"});
  EXPECT_EQ(d.size(), 3u);
  auto code = d.Code("02");
  ASSERT_TRUE(code.ok());
  EXPECT_EQ(*code, 1);
  EXPECT_FALSE(d.Code("04").ok());
  EXPECT_TRUE(d.Contains("03"));
  EXPECT_FALSE(d.Contains("x"));
  EXPECT_EQ(d.Label(2), "03");
}

TEST(SchemaTest, AttributeIndexing) {
  Schema s;
  EXPECT_EQ(s.AddAttribute("a"), 0u);
  EXPECT_EQ(s.AddAttribute("b", {"x", "y"}), 1u);
  EXPECT_EQ(s.num_attributes(), 2u);
  auto idx = s.AttributeIndex("b");
  ASSERT_TRUE(idx.ok());
  EXPECT_EQ(*idx, 1u);
  EXPECT_FALSE(s.AttributeIndex("zzz").ok());
  EXPECT_EQ(s.AttributeNames(), (std::vector<std::string>{"a", "b"}));
}

SchemaPtr TwoAttrSchema() {
  auto schema = std::make_shared<Schema>();
  schema->AddAttribute("x", {"a", "b", "c"});
  schema->AddAttribute("y", {"0", "1"});
  return schema;
}

TEST(TableTest, AppendAndGet) {
  Table t(TwoAttrSchema());
  t.AppendRow({0, 1});
  t.AppendRowLabels({"c", "0"});
  EXPECT_EQ(t.num_rows(), 2u);
  EXPECT_EQ(t.Get(0, 0), 0);
  EXPECT_EQ(t.Get(1, 0), 2);
  EXPECT_EQ(t.Get(1, 1), 0);
}

TEST(TableTest, WeightsDefaultToOne) {
  Table t(TwoAttrSchema());
  t.AppendRow({0, 0});
  t.AppendRow({1, 1});
  EXPECT_DOUBLE_EQ(t.TotalWeight(), 2.0);
  t.set_weight(0, 5.0);
  EXPECT_DOUBLE_EQ(t.TotalWeight(), 6.0);
  t.FillWeights(2.0);
  EXPECT_DOUBLE_EQ(t.TotalWeight(), 4.0);
}

TEST(TableTest, GroupRowsAndWeights) {
  Table t(TwoAttrSchema());
  t.AppendRow({0, 0});
  t.AppendRow({0, 1});
  t.AppendRow({0, 0});
  t.set_weight(2, 3.0);
  auto groups = t.GroupRows({0, 1});
  EXPECT_EQ(groups.size(), 2u);
  EXPECT_EQ((groups[{0, 0}].size()), 2u);
  auto weights = t.GroupWeights({0, 1});
  EXPECT_DOUBLE_EQ((weights[{0, 0}]), 4.0);
  EXPECT_DOUBLE_EQ((weights[{0, 1}]), 1.0);
}

TEST(TableTest, GroupBySubsetOfAttrs) {
  Table t(TwoAttrSchema());
  t.AppendRow({0, 0});
  t.AppendRow({1, 0});
  t.AppendRow({0, 1});
  auto groups = t.GroupWeights({1});
  EXPECT_DOUBLE_EQ(groups[{0}], 2.0);
  EXPECT_DOUBLE_EQ(groups[{1}], 1.0);
}

TEST(TableTest, FilterPreservesWeights) {
  Table t(TwoAttrSchema());
  t.AppendRow({0, 0});
  t.AppendRow({1, 1});
  t.set_weight(1, 7.0);
  Table f = t.Filter({false, true});
  EXPECT_EQ(f.num_rows(), 1u);
  EXPECT_EQ(f.Get(0, 0), 1);
  EXPECT_DOUBLE_EQ(f.weight(0), 7.0);
}

TEST(TableTest, CloneIsIndependent) {
  Table t(TwoAttrSchema());
  t.AppendRow({0, 0});
  Table c = t.Clone();
  c.set_weight(0, 9.0);
  EXPECT_DOUBLE_EQ(t.weight(0), 1.0);
  EXPECT_DOUBLE_EQ(c.weight(0), 9.0);
}

/// `rows` rows over attributes with `domain_sizes` labels each; codes are
/// drawn below min(size, `spread`) so tuples repeat, and weights are
/// multiples of 0.25 (some zero), so every sum of them is exact.
Table RandomTable(const std::vector<size_t>& domain_sizes, size_t rows,
                  size_t spread, uint64_t seed) {
  auto schema = std::make_shared<Schema>();
  for (size_t a = 0; a < domain_sizes.size(); ++a) {
    std::vector<std::string> labels;
    for (size_t i = 0; i < domain_sizes[a]; ++i) {
      labels.push_back(std::to_string(i));
    }
    std::string name = "a";
    name += std::to_string(a);
    schema->AddAttribute(name, labels);
  }
  Table t(schema, rows, 0.0);
  std::mt19937_64 rng(seed);
  for (size_t r = 0; r < rows; ++r) {
    for (size_t a = 0; a < domain_sizes.size(); ++a) {
      t.Set(r, a, static_cast<ValueCode>(
                      rng() % std::min(domain_sizes[a], spread)));
    }
    t.set_weight(r, static_cast<double>(rng() % 9) * 0.25);
  }
  return t;
}

/// ClassifyRows by hashing TupleKeys: the reference both of its paths
/// must match.
RowClasses ReferenceClasses(const Table& t, const std::vector<size_t>& attrs) {
  RowClasses classes;
  std::unordered_map<TupleKey, uint32_t, TupleKeyHash> ids;
  for (uint32_t r = 0; r < t.num_rows(); ++r) {
    auto [it, inserted] = ids.emplace(
        t.KeyFor(r, attrs), static_cast<uint32_t>(classes.count.size()));
    if (inserted) {
      classes.count.push_back(0);
      classes.first_row.push_back(r);
    }
    classes.row_class.push_back(it->second);
    ++classes.count[it->second];
  }
  return classes;
}

void ExpectSameClasses(const Table& t, const std::vector<size_t>& attrs) {
  const RowClasses got = ClassifyRows(t, attrs);
  const RowClasses want = ReferenceClasses(t, attrs);
  EXPECT_EQ(got.row_class, want.row_class);
  EXPECT_EQ(got.count, want.count);
  EXPECT_EQ(got.first_row, want.first_row);
}

/// Compact() against the reference classes: first-occurrence order, the
/// first row's codes, row-order weight sums; then idempotence.
void ExpectCompactMatchesReference(const Table& t) {
  std::vector<size_t> all(t.num_attributes());
  for (size_t a = 0; a < all.size(); ++a) all[a] = a;
  const RowClasses classes = ReferenceClasses(t, all);
  const Table c = t.Compact();
  ASSERT_EQ(c.num_rows(), classes.num_classes());
  ASSERT_LT(c.num_rows(), t.num_rows()) << "the table must repeat tuples";
  std::vector<double> sums(classes.num_classes(), 0.0);
  for (size_t r = 0; r < t.num_rows(); ++r) {
    sums[classes.row_class[r]] += t.weight(r);
  }
  for (size_t k = 0; k < c.num_rows(); ++k) {
    EXPECT_EQ(c.KeyFor(k, all), t.KeyFor(classes.first_row[k], all));
  }
  EXPECT_EQ(c.weights(), sums);
  EXPECT_EQ(c.TotalWeight(), t.TotalWeight());

  const Table again = c.Compact();
  ASSERT_EQ(again.num_rows(), c.num_rows());
  for (size_t a = 0; a < all.size(); ++a) {
    EXPECT_EQ(again.column(a), c.column(a));
  }
  EXPECT_EQ(again.weights(), c.weights());
}

TEST(RowClassesTest, RadixSortMatchesHashing) {
  // 3+4+6+1 key bits: one radix pass; the last attribute is constant.
  const Table narrow = RandomTable({5, 9, 40, 2}, 5000, 40, 1);
  ExpectSameClasses(narrow, {0, 1, 2, 3});
  ExpectSameClasses(narrow, {2, 0});
  ExpectSameClasses(narrow, {1});
  ExpectSameClasses(narrow, {});
  // 40 key bits + 12 row bits: several passes.
  const Table medium = RandomTable({1024, 1024, 1024, 1024}, 3000, 3, 2);
  ExpectSameClasses(medium, {0, 1, 2, 3});
  ExpectSameClasses(medium, {3, 1});
  // 60 key bits fit a packed key, but not beside 12 row bits: hashing.
  const Table tight = RandomTable({1024, 1024, 1024, 1024, 1024, 1024},
                                  3000, 2, 3);
  ExpectSameClasses(tight, {0, 1, 2, 3, 4, 5});
  // 70 key bits do not pack at all: hashing.
  const Table wide = RandomTable(std::vector<size_t>(10, 100), 3000, 2, 4);
  ExpectSameClasses(wide, {0, 1, 2, 3, 4, 5, 6, 7, 8, 9});
  ExpectSameClasses(Table(TwoAttrSchema()), {0, 1});
}

TEST(TableTest, CompactMergesEqualTuplesInFirstOccurrenceOrder) {
  Table t(TwoAttrSchema());
  t.AppendRow({2, 1});
  t.AppendRow({0, 0});
  t.AppendRow({2, 1});
  t.AppendRow({1, 0});
  t.AppendRow({0, 0});
  t.AppendRow({2, 0});
  const std::vector<double> weights = {1.5, 2.0, 0.25, 0.0, 3.0, 0.0};
  for (size_t r = 0; r < weights.size(); ++r) t.set_weight(r, weights[r]);
  const Table c = t.Compact();
  ASSERT_EQ(c.num_rows(), 4u);
  EXPECT_EQ(c.column(0), (std::vector<ValueCode>{2, 0, 1, 2}));
  EXPECT_EQ(c.column(1), (std::vector<ValueCode>{1, 0, 0, 0}));
  // Zero-weight tuples stay: the sample still contains them.
  EXPECT_EQ(c.weights(), (std::vector<double>{1.75, 5.0, 0.0, 0.0}));
  EXPECT_EQ(c.schema(), t.schema());
  EXPECT_EQ(Table(TwoAttrSchema()).Compact().num_rows(), 0u);
}

TEST(TableTest, CompactKeepsWeightAndIsIdempotent) {
  ExpectCompactMatchesReference(RandomTable({5, 9, 40, 2}, 5000, 40, 5));
  ExpectCompactMatchesReference(
      RandomTable({1024, 1024, 1024, 1024}, 3000, 3, 6));
}

TEST(TableTest, CompactWideKeysFallBackToHashing) {
  ExpectCompactMatchesReference(
      RandomTable(std::vector<size_t>(10, 100), 3000, 2, 7));
}

TEST(BucketizerTest, BucketsAndClamping) {
  EquiWidthBucketizer b(0, 100, 10);
  EXPECT_EQ(b.Bucket(0), 0u);
  EXPECT_EQ(b.Bucket(5), 0u);
  EXPECT_EQ(b.Bucket(10), 1u);
  EXPECT_EQ(b.Bucket(99.9), 9u);
  EXPECT_EQ(b.Bucket(100), 9u);   // clamped
  EXPECT_EQ(b.Bucket(-5), 0u);    // clamped
  EXPECT_EQ(b.Bucket(1e9), 9u);   // clamped
}

TEST(BucketizerTest, LabelsAndMidpoints) {
  EquiWidthBucketizer b(0, 30, 3);
  EXPECT_EQ(b.Label(0), "[0,10)");
  EXPECT_EQ(b.Label(2), "[20,30)");
  EXPECT_DOUBLE_EQ(b.Midpoint(1), 15.0);
  EXPECT_EQ(b.Labels().size(), 3u);
}

TEST(CsvTest, RoundTrip) {
  Table t(TwoAttrSchema());
  t.AppendRowLabels({"a", "1"});
  t.AppendRowLabels({"b", "0"});
  t.set_weight(0, 2.5);
  const std::string path = std::filesystem::temp_directory_path() /
                           "themis_csv_test.csv";
  ASSERT_TRUE(WriteCsv(t, path).ok());
  auto loaded = ReadCsv(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->num_rows(), 2u);
  EXPECT_EQ(loaded->schema()->num_attributes(), 2u);
  EXPECT_EQ(loaded->schema()->domain(0).Label(loaded->Get(0, 0)), "a");
  EXPECT_DOUBLE_EQ(loaded->weight(0), 2.5);
  EXPECT_DOUBLE_EQ(loaded->weight(1), 1.0);
  std::remove(path.c_str());
}

TEST(CsvTest, MissingFileFails) {
  EXPECT_FALSE(ReadCsv("/nonexistent/path.csv").ok());
}

TEST(CsvTest, RaggedRowFails) {
  const std::string path = std::filesystem::temp_directory_path() /
                           "themis_csv_bad.csv";
  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    std::fputs("a,b,weight\n1,2,1\n1\n", f);
    std::fclose(f);
  }
  EXPECT_FALSE(ReadCsv(path).ok());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace themis::data
