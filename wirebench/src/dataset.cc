#include "dataset.h"

#include <algorithm>
#include <cmath>

#include "aggregate/aggregate.h"
#include "aggregate/aggregate_io.h"
#include "aggregate/pruning.h"
#include "data/csv.h"
#include "sql/executor.h"
#include "util/logging.h"
#include "util/string_util.h"
#include "workload/experiment.h"
#include "workload/flights.h"
#include "workload/sampler.h"

namespace wirebench {

using themis::Rng;
using themis::StrFormat;
namespace data = themis::data;

namespace {

constexpr size_t kNumAttrs = 5;
// Bucketized numeric attributes take `<` filters; the rest take `=`.
bool IsNumeric(size_t attr) {
  return attr == themis::workload::FlightsAttrs::kElapsed ||
         attr == themis::workload::FlightsAttrs::kDistance;
}

const data::Domain& DomainOf(const data::Table& table, size_t attr) {
  return table.schema()->domain(attr);
}

std::string Quoted(const std::string& label) { return "'" + label + "'"; }

// Upper edge of every bucket below `code`: the midpoints are
// NumericValueOfLabel's numeric value of a "[lo,hi)" label.
double LowerEdge(const data::Domain& domain, data::ValueCode code) {
  const double mid = themis::sql::NumericValueOfLabel(domain.Label(code));
  const double prev =
      themis::sql::NumericValueOfLabel(domain.Label(code - 1));
  return mid - (mid - prev) / 2.0;
}

}  // namespace

std::unique_ptr<Dataset> MakeDataset(size_t rows, uint64_t seed,
                                     const std::string& dir) {
  auto dataset = std::make_unique<Dataset>(
      themis::workload::GenerateFlights({rows, seed}));
  const data::Table& population = dataset->population;
  auto sample = themis::workload::MakeFlightsSample(population, "Corners",
                                                    0.1, seed + 7);
  THEMIS_CHECK(sample.ok()) << sample.status().ToString();
  dataset->sample_csv = dir + "/sample.csv";
  THEMIS_CHECK_OK(data::WriteCsv(*sample, dataset->sample_csv));

  // The Sec 6 configuration: four 2-D aggregates picked by t-cherry
  // pruning over every attribute pair, then all five 1-D marginals (Alg 1
  // sweeps in load order, so the coarse marginals hold exactly at the end).
  std::vector<size_t> all_attrs(kNumAttrs);
  for (size_t a = 0; a < kNumAttrs; ++a) all_attrs[a] = a;
  std::vector<themis::aggregate::AggregateSpec> pairs;
  for (const auto& attrs : themis::workload::AllSubsets(all_attrs, 2)) {
    pairs.push_back(themis::aggregate::ComputeAggregate(population, attrs));
  }
  std::vector<themis::aggregate::AggregateSpec> chosen;
  for (size_t idx : themis::aggregate::SelectAggregatesTCherry(pairs, 4)) {
    chosen.push_back(pairs[idx]);
  }
  for (size_t a = 0; a < kNumAttrs; ++a) {
    chosen.push_back(themis::aggregate::ComputeAggregate(population, {a}));
  }
  for (size_t i = 0; i < chosen.size(); ++i) {
    std::string path = StrFormat("%s/agg%zu.csv", dir.c_str(), i);
    THEMIS_CHECK_OK(themis::aggregate::WriteAggregateCsv(
        chosen[i], *population.schema(), path));
    dataset->aggregate_csvs.push_back(std::move(path));
  }
  return dataset;
}

BenchQuery QueryFactory::RandomPoint(Rng& rng) const {
  BenchQuery query;
  query.kind = QueryKind::kPoint;
  const size_t dims = static_cast<size_t>(rng.UniformInt(2, kNumAttrs));
  std::vector<size_t> attrs(kNumAttrs);
  for (size_t a = 0; a < kNumAttrs; ++a) attrs[a] = a;
  std::shuffle(attrs.begin(), attrs.end(), rng.engine());
  attrs.resize(dims);
  std::sort(attrs.begin(), attrs.end());
  const size_t row = static_cast<size_t>(
      rng.UniformInt(0, static_cast<int64_t>(population_.num_rows()) - 1));
  query.attrs = attrs;
  query.values = population_.KeyFor(row, attrs);
  query.sql = "SELECT COUNT(*) FROM sample WHERE ";
  for (size_t i = 0; i < attrs.size(); ++i) {
    const data::Domain& domain = DomainOf(population_, attrs[i]);
    if (i > 0) query.sql += " AND ";
    query.sql += domain.name() + " = " + Quoted(domain.Label(query.values[i]));
  }
  return query;
}

BenchQuery QueryFactory::RandomGroupBy(Rng& rng) const {
  BenchQuery query;
  query.kind = QueryKind::kGroupBy;
  const size_t group = static_cast<size_t>(rng.UniformInt(0, kNumAttrs - 1));
  query.attrs = {group};
  std::vector<size_t> others;
  for (size_t a = 0; a < kNumAttrs; ++a) {
    if (a != group) others.push_back(a);
  }
  std::shuffle(others.begin(), others.end(), rng.engine());
  const size_t num_filters = static_cast<size_t>(rng.UniformInt(1, 2));
  const size_t row = static_cast<size_t>(
      rng.UniformInt(0, static_cast<int64_t>(population_.num_rows()) - 1));
  std::vector<std::string> conjuncts;
  for (size_t i = 0; i < num_filters; ++i) {
    Filter filter;
    filter.attr = others[i];
    const data::Domain& domain = DomainOf(population_, filter.attr);
    if (IsNumeric(filter.attr)) {
      filter.less_than = true;
      const auto code = static_cast<data::ValueCode>(
          rng.UniformInt(1, static_cast<int64_t>(domain.size()) - 1));
      filter.threshold = LowerEdge(domain, code);
      conjuncts.push_back(
          StrFormat("%s < %g", domain.name().c_str(), filter.threshold));
    } else {
      filter.code = population_.Get(row, filter.attr);
      conjuncts.push_back(domain.name() + " = " +
                          Quoted(domain.Label(filter.code)));
    }
    query.filters.push_back(filter);
  }
  const std::string& group_name = DomainOf(population_, group).name();
  query.sql = "SELECT " + group_name + ", COUNT(*) FROM sample WHERE " +
              themis::Join(conjuncts, " AND ") + " GROUP BY " + group_name;
  return query;
}

BenchQuery QueryFactory::RandomJoin(Rng& rng) const {
  // States ranked by population count; the IN-list draws two from below
  // the top fifteen, which keeps every join far from the corner states.
  const size_t origin = themis::workload::FlightsAttrs::kOrigin;
  const data::Domain& states = DomainOf(population_, origin);
  std::vector<std::pair<size_t, data::ValueCode>> ranked;
  {
    std::vector<size_t> counts(states.size(), 0);
    for (data::ValueCode code : population_.column(origin)) ++counts[code];
    for (size_t s = 0; s < states.size(); ++s) {
      ranked.emplace_back(counts[s], static_cast<data::ValueCode>(s));
    }
    std::sort(ranked.rbegin(), ranked.rend());
  }
  const auto pick = [&]() {
    return ranked[static_cast<size_t>(rng.UniformInt(
                      15, static_cast<int64_t>(ranked.size()) - 1))]
        .second;
  };
  data::ValueCode a = pick();
  data::ValueCode b = pick();
  while (b == a) b = pick();
  if (b < a) std::swap(a, b);
  BenchQuery query;
  query.kind = QueryKind::kJoin;
  query.sql =
      "SELECT t.origin_state, s.dest_state, COUNT(*) FROM sample t, sample s "
      "WHERE t.dest_state = s.origin_state AND t.dest_state IN (" +
      Quoted(states.Label(a)) + ", " + Quoted(states.Label(b)) +
      ") GROUP BY t.origin_state, s.dest_state";
  return query;
}

BenchQuery QueryFactory::PlainGroupBy(const std::vector<size_t>& attrs) const {
  BenchQuery query;
  query.kind = QueryKind::kGroupBy;
  query.attrs = attrs;
  std::vector<std::string> names;
  for (size_t attr : attrs) names.push_back(DomainOf(population_, attr).name());
  const std::string list = themis::Join(names, ", ");
  query.sql = "SELECT " + list + ", COUNT(*) FROM sample GROUP BY " + list;
  return query;
}

namespace {

uint64_t Pack(const std::vector<size_t>& attrs,
              const std::vector<data::ValueCode>& codes_by_attr) {
  uint64_t key = 0;
  for (size_t attr : attrs) {
    key = (key << 8) | static_cast<uint64_t>(codes_by_attr[attr]);
  }
  return key;
}

// Re-packs a key over all kNumAttrs attributes onto `attrs`.
uint64_t Project(uint64_t full_key, const std::vector<size_t>& attrs) {
  uint64_t key = 0;
  for (size_t attr : attrs) {
    key = (key << 8) | ((full_key >> (8 * (kNumAttrs - 1 - attr))) & 0xff);
  }
  return key;
}

const std::vector<size_t> kAllAttrs = {0, 1, 2, 3, 4};

}  // namespace

GroundTruth::GroundTruth(const data::Table& population)
    : population_(population) {
  for (size_t a = 0; a < kNumAttrs; ++a) {
    THEMIS_CHECK(DomainOf(population, a).size() <= 256);
  }
  std::vector<data::ValueCode> codes(kNumAttrs);
  for (size_t row = 0; row < population.num_rows(); ++row) {
    for (size_t a = 0; a < kNumAttrs; ++a) codes[a] = population.Get(row, a);
    full_[Pack(kAllAttrs, codes)] += population.weight(row);
  }
}

const GroundTruth::Counts& GroundTruth::CountsFor(
    const std::vector<size_t>& attrs) {
  auto it = counts_.find(attrs);
  if (it == counts_.end()) {
    Counts rolled;
    for (const auto& [key, count] : full_) {
      rolled[Project(key, attrs)] += count;
    }
    it = counts_.emplace(attrs, std::move(rolled)).first;
  }
  return it->second;
}

double GroundTruth::Point(const BenchQuery& query) {
  std::vector<data::ValueCode> codes(kNumAttrs, 0);
  for (size_t i = 0; i < query.attrs.size(); ++i) {
    codes[query.attrs[i]] = query.values[i];
  }
  const Counts& counts = CountsFor(query.attrs);
  auto it = counts.find(Pack(query.attrs, codes));
  return it == counts.end() ? 0.0 : it->second;
}

std::map<std::string, double> GroundTruth::GroupBy(const BenchQuery& query) {
  // The GROUP BY over the grouping and filter attributes together; the
  // filters then apply to its groups.
  std::vector<size_t> attrs = query.attrs;
  for (const Filter& filter : query.filters) attrs.push_back(filter.attr);
  std::sort(attrs.begin(), attrs.end());
  attrs.erase(std::unique(attrs.begin(), attrs.end()), attrs.end());
  std::map<std::string, double> out;
  for (const auto& [key, count] : CountsFor(attrs)) {
    // Unpack the subset key back onto attribute positions.
    std::vector<data::ValueCode> codes(kNumAttrs, 0);
    uint64_t rest = key;
    for (size_t i = attrs.size(); i-- > 0;) {
      codes[attrs[i]] = static_cast<data::ValueCode>(rest & 0xff);
      rest >>= 8;
    }
    bool keep = true;
    for (const Filter& filter : query.filters) {
      const data::ValueCode code = codes[filter.attr];
      if (filter.less_than) {
        keep = keep && themis::sql::NumericValueOfLabel(
                           DomainOf(population_, filter.attr).Label(code)) <
                           filter.threshold;
      } else {
        keep = keep && code == filter.code;
      }
    }
    if (!keep) continue;
    std::vector<std::string> labels;
    for (size_t attr : query.attrs) {
      labels.push_back(DomainOf(population_, attr).Label(codes[attr]));
    }
    out[themis::Join(labels, "|")] += count;
  }
  return out;
}

}  // namespace wirebench
