#ifndef WIREBENCH_DATASET_H_
#define WIREBENCH_DATASET_H_

// The benchmark's inputs, all derived from one seed: the flights
// population, its Corners 10% sample and the paper aggregates (written as
// CSV for the server), the three workloads' query mixes, and the
// population ground truth the answers are scored against.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "data/table.h"
#include "util/random.h"

namespace wirebench {

enum class QueryKind { kPoint, kGroupBy, kJoin };

/// One WHERE conjunct of a filtered GROUP BY: `attr = label` or
/// `attr < threshold` over a bucketized numeric attribute.
struct Filter {
  size_t attr = 0;
  bool less_than = false;
  themis::data::ValueCode code = 0;  // equality filters
  double threshold = 0;              // less-than filters
};

struct BenchQuery {
  QueryKind kind = QueryKind::kPoint;
  std::string sql;
  /// Point: the equality attributes (ascending). GROUP BY: the single
  /// grouping attribute.
  std::vector<size_t> attrs;
  themis::data::TupleKey values;  // point constants, population codes
  std::vector<Filter> filters;    // GROUP BY only
};

/// Files the server loads, and the population they were drawn from.
struct Dataset {
  themis::data::Table population;
  std::string sample_csv;
  std::vector<std::string> aggregate_csvs;  // load order: 2-D, then 1-D

  explicit Dataset(themis::data::Table table) : population(std::move(table)) {}
};

/// Generates `rows` flights rows from `seed`, draws the Corners 10% sample,
/// picks the paper aggregates (five 1-D plus four t-cherry 2-D) and writes
/// all of them under `dir`.
std::unique_ptr<Dataset> MakeDataset(size_t rows, uint64_t seed,
                                     const std::string& dir);

/// Query text generators over the population's schema and rows.
class QueryFactory {
 public:
  explicit QueryFactory(const themis::data::Table& population)
      : population_(population) {}

  /// A 2..5-D COUNT(*) point query whose constants come from a random
  /// population row, so both sampled and unsampled groups occur.
  BenchQuery RandomPoint(themis::Rng& rng) const;
  /// SELECT g, COUNT(*) ... WHERE <one or two filters> GROUP BY g, with
  /// seeded constants.
  BenchQuery RandomGroupBy(themis::Rng& rng) const;
  /// A self-join shaped like Table 5 Q6, over a two-state IN-list drawn
  /// from the states outside the sample's bias (joins on the four corner
  /// states take seconds at this size).
  BenchQuery RandomJoin(themis::Rng& rng) const;
  /// The unfiltered GROUP BY over `attrs` (one or two attributes).
  BenchQuery PlainGroupBy(const std::vector<size_t>& attrs) const;

 private:
  const themis::data::Table& population_;
};

/// Population answers. One scan groups the population by all five
/// attributes; the GROUP BY of any attribute set is then rolled up from
/// those groups once and cached, so thousands of queries cost one scan.
class GroundTruth {
 public:
  explicit GroundTruth(const themis::data::Table& population);

  double Point(const BenchQuery& query);
  /// Group label -> COUNT(*) over the population.
  std::map<std::string, double> GroupBy(const BenchQuery& query);

 private:
  // Codes packed 8 bits per attribute, in attribute order.
  using Counts = std::unordered_map<uint64_t, double>;
  const Counts& CountsFor(const std::vector<size_t>& attrs);

  const themis::data::Table& population_;
  Counts full_;
  std::map<std::vector<size_t>, Counts> counts_;
};

}  // namespace wirebench

#endif  // WIREBENCH_DATASET_H_
