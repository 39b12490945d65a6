#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <random>
#include <unordered_map>

#include "data/bucketize.h"
#include "data/csv.h"
#include "data/domain.h"
#include "data/row_classes.h"
#include "data/schema.h"
#include "data/table.h"
#include "util/string_util.h"

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

/// The line-by-line reader ReadCsv replaced: std::getline, SplitCsvLine,
/// Table::AppendRowLabels and strtod on every row.
Result<Table> ReferenceReadCsv(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IoError("cannot open '" + path + "' for read");
  std::string line;
  if (!std::getline(in, line)) {
    return Status::ParseError("empty CSV file '" + path + "'");
  }
  std::vector<std::string> header = SplitCsvLine(line);
  bool has_weight = !header.empty() && header.back() == "weight";
  size_t num_attrs = has_weight ? header.size() - 1 : header.size();
  if (num_attrs == 0) {
    return Status::ParseError("CSV '" + path + "' has no attribute columns");
  }
  auto schema = std::make_shared<Schema>();
  for (size_t a = 0; a < num_attrs; ++a) {
    schema->AddAttribute(std::string(Trim(header[a])));
  }
  Table table(schema);
  size_t line_no = 1;
  while (std::getline(in, line)) {
    ++line_no;
    if (Trim(line).empty()) continue;
    std::vector<std::string> fields = SplitCsvLine(line);
    if (fields.size() != header.size()) {
      return Status::ParseError(StrFormat(
          "CSV '%s' line %zu: expected %zu fields, got %zu", path.c_str(),
          line_no, header.size(), fields.size()));
    }
    std::vector<std::string> labels(fields.begin(),
                                    fields.begin() + num_attrs);
    table.AppendRowLabels(labels);
    if (has_weight) {
      char* end = nullptr;
      double w = std::strtod(fields.back().c_str(), &end);
      if (end == fields.back().c_str()) {
        return Status::ParseError(
            StrFormat("CSV '%s' line %zu: bad weight '%s'", path.c_str(),
                      line_no, fields.back().c_str()));
      }
      table.set_weight(table.num_rows() - 1, w);
    }
  }
  return table;
}

void WriteFile(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  out << text;
}

/// Codes, domains (labels in code order), attribute names and weights,
/// bit for bit; or the same error.
void ExpectSameRead(const std::string& path) {
  const Result<Table> got = ReadCsv(path);
  const Result<Table> want = ReferenceReadCsv(path);
  ASSERT_EQ(got.ok(), want.ok()) << got.status().ToString() << " vs "
                                 << want.status().ToString();
  if (!want.ok()) {
    EXPECT_EQ(got.status().ToString(), want.status().ToString());
    return;
  }
  const Schema& gs = *got->schema();
  const Schema& ws = *want->schema();
  ASSERT_EQ(gs.num_attributes(), ws.num_attributes());
  ASSERT_EQ(got->num_rows(), want->num_rows());
  for (size_t a = 0; a < ws.num_attributes(); ++a) {
    EXPECT_EQ(gs.attribute_name(a), ws.attribute_name(a));
    EXPECT_EQ(gs.domain(a).labels(), ws.domain(a).labels());
    EXPECT_EQ(got->column(a), want->column(a));
  }
  ASSERT_EQ(got->weights().size(), want->weights().size());
  for (size_t r = 0; r < want->num_rows(); ++r) {
    const double g = got->weight(r);
    const double w = want->weight(r);
    EXPECT_EQ(std::memcmp(&g, &w, sizeof(double)), 0)
        << "row " << r << ": " << g << " vs " << w;
  }
}

/// A seeded CSV: quoted labels with commas, `""` escapes, quotes inside
/// fields, empty fields, untrimmed labels, blank and whitespace-only
/// lines, numeric weights in several spellings, and — when `faults` — bad
/// weights, unclosed quotes and wrong field counts.
std::string RandomCsv(std::mt19937_64& rng, size_t rows, bool faults) {
  static const char* kLabels[] = {
      "NY", "CA", "\"[30,60)\"", "\"[0,30)\"", "", " a", "b ", "\"\"",
      "\"say \"\"hi\"\"\"", "x\"y\"z", "\\\\", "\"\"\"lead\"", "01",
      "\"NY\"", "caf\xc3\xa9", "\t", "\"q\"r"};
  // Each of these changes the line's field count.
  static const char* kFaultLabels[] = {"\"a,b\",", "\"open", "1,5"};
  static const char* kWeights[] = {"1",    "2.5",   "1e-3", " 3",  "0x1p3",
                                   "7abc", "-0",    "0",    "4.",  ".5",
                                   "1e400", "1e-400", "+2", "inf", "\"6\""};
  const size_t num_attrs = 1 + rng() % 4;
  const bool has_weight = rng() % 3 != 0;
  std::string text;
  for (size_t a = 0; a < num_attrs; ++a) {
    if (a > 0) text += ',';
    const bool padded = rng() % 5 == 0;
    if (padded) text += ' ';
    text += 'c';
    text += std::to_string(a);
    if (padded) text += ' ';
  }
  text += has_weight ? ",weight\n" : "\n";
  const size_t label_pool = 4 + rng() % (std::size(kLabels) - 4);
  for (size_t r = 0; r < rows; ++r) {
    const uint64_t kind = rng() % 40;
    if (kind == 0) {
      text += "\n";
      continue;
    }
    if (kind == 1) {
      text += "   \n";
      continue;
    }
    size_t fields = num_attrs;
    if (faults && rng() % 200 == 0) fields += rng() % 2 == 0 ? 1 : -1;
    for (size_t a = 0; a < fields; ++a) {
      if (a > 0) text += ",";
      text += faults && rng() % 100 == 0
                  ? kFaultLabels[rng() % std::size(kFaultLabels)]
                  : kLabels[rng() % label_pool];
    }
    if (has_weight) {
      text += ",";
      text += faults && rng() % 300 == 0 ? "bad"
                                         : kWeights[rng() % std::size(kWeights)];
    }
    text += "\n";
  }
  if (rng() % 2 == 0 && !text.empty()) text.pop_back();  // no final newline
  return text;
}

TEST(CsvTest, StreamedReaderMatchesLineReader) {
  const std::string path = std::filesystem::temp_directory_path() /
                           "themis_csv_diff.csv";
  std::mt19937_64 rng(20261020);
  for (int file = 0; file < 200; ++file) {
    SCOPED_TRACE("file " + std::to_string(file));
    WriteFile(path, RandomCsv(rng, 1 + rng() % 60, file % 2 == 1));
    ExpectSameRead(path);
  }
  // Lines cross the reader's block boundaries, and one line is longer
  // than a block.
  std::string big = RandomCsv(rng, 30000, false);
  WriteFile(path, big);
  ExpectSameRead(path);
  big.replace(big.find("NY"), 2, std::string(200000, 'x'));
  WriteFile(path, big);
  ExpectSameRead(path);
  std::remove(path.c_str());
}

TEST(CsvTest, EdgeCasesMatchLineReader) {
  const std::string path = std::filesystem::temp_directory_path() /
                           "themis_csv_edge.csv";
  const char* kFiles[] = {
      "",
      "\n",
      "weight\n1\n",
      "a,weight\nx,1",
      "a,weight\nx,1\n\n   \n",
      "a,b\n\"[30,60)\",\"[0,200)\"\n\"[30,60)\",2\n",
      "a,b,weight\n1,2,1\n1\n",
      "a,b,weight\n1,2,3,4\n",
      "a,weight\nx,\n",
      "a,weight\nx,abc\n",
      "a,weight\n\"x\"\"y\",1\n\"x\"\"y\",2\n",
      "a,b\n,\n,x\n\"\",\"\"\n",
      "\"a,b\",c\n1,2\n",
  };
  for (const char* text : kFiles) {
    SCOPED_TRACE(text);
    WriteFile(path, text);
    ExpectSameRead(path);
  }
  WriteFile(path, "a,weight\nx,abc\n");
  EXPECT_EQ(ReadCsv(path).status().message(),
            "CSV '" + path + "' line 2: bad weight 'abc'");
  WriteFile(path, "a,b\n1,2\n\n1\n");
  EXPECT_EQ(ReadCsv(path).status().message(),
            "CSV '" + path + "' line 4: expected 2 fields, got 1");
  std::remove(path.c_str());
}

TEST(CsvTest, CrlfReadsLikeLf) {
  const std::string lf = std::filesystem::temp_directory_path() /
                         "themis_csv_lf.csv";
  const std::string crlf = std::filesystem::temp_directory_path() /
                           "themis_csv_crlf.csv";
  for (const bool weight : {false, true}) {
    const std::string text =
        weight ? "state,dist,weight\nCA,\"[0,30)\",2\nNY,\"[30,60)\",1\n"
                 "CA,\"[30,60)\",0.5\n"
               : "state,dist\nCA,\"[0,30)\"\nNY,\"[30,60)\"\nCA,\"[30,60)\"\n";
    std::string crlf_text;
    for (const char c : text) crlf_text += c == '\n' ? "\r\n" : std::string(1, c);
    WriteFile(lf, text);
    WriteFile(crlf, crlf_text);
    auto a = ReadCsv(lf);
    auto b = ReadCsv(crlf);
    ASSERT_TRUE(a.ok() && b.ok());
    ASSERT_EQ(b->num_attributes(), 2u);
    for (size_t attr = 0; attr < 2; ++attr) {
      EXPECT_EQ(b->schema()->attribute_name(attr),
                a->schema()->attribute_name(attr));
      EXPECT_EQ(b->schema()->domain(attr).labels(),
                a->schema()->domain(attr).labels());
      EXPECT_EQ(b->column(attr), a->column(attr));
    }
    EXPECT_EQ(b->weights(), a->weights());
    EXPECT_EQ(b->schema()->domain(0).Label(b->Get(0, 0)), "CA");
  }
  std::remove(lf.c_str());
  std::remove(crlf.c_str());
}

}  // namespace
}  // namespace themis::data
