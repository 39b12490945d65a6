#ifndef THEMIS_DATA_TABLE_H_
#define THEMIS_DATA_TABLE_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "data/schema.h"
#include "data/tuple_key.h"
#include "util/status.h"

namespace themis::data {

/// In-memory columnar relation. Every row carries a weight (default 1.0)
/// so reweighted samples and uniformly-scaled samples are queried
/// identically: COUNT(*) over the population becomes SUM(weight) over the
/// table (Sec 4.1 of the paper).
class Table {
 public:
  explicit Table(SchemaPtr schema);

  /// A table of `num_rows` rows, every code 0 and every weight `weight`,
  /// for writers that fill the columns in place (mutable_column).
  Table(SchemaPtr schema, size_t num_rows, double weight);

  const SchemaPtr& schema() const { return schema_; }
  size_t num_rows() const { return num_rows_; }
  size_t num_attributes() const { return columns_.size(); }

  /// Appends a row of value codes (one per attribute) with weight 1.
  void AppendRow(const std::vector<ValueCode>& codes);

  /// Appends a row given display labels, interning them into the domains.
  void AppendRowLabels(const std::vector<std::string>& labels);

  ValueCode Get(size_t row, size_t attr) const {
    return columns_[attr][row];
  }
  void Set(size_t row, size_t attr, ValueCode v) { columns_[attr][row] = v; }

  double weight(size_t row) const { return weights_[row]; }
  void set_weight(size_t row, double w) { weights_[row] = w; }
  const std::vector<double>& weights() const { return weights_; }
  std::vector<double>& mutable_weights() { return weights_; }

  /// Sum of all row weights (the table's estimate of the population size).
  double TotalWeight() const;

  /// Resets every weight to `w`.
  void FillWeights(double w);

  /// Full column access (for tight loops in solvers/executors).
  const std::vector<ValueCode>& column(size_t attr) const {
    return columns_[attr];
  }
  /// Writable column; callers change its codes, never its length.
  std::vector<ValueCode>& mutable_column(size_t attr) {
    return columns_[attr];
  }

  /// Approximate bytes a scan touches per row when it reads `num_columns`
  /// code columns plus the weight column — the working-set input to the
  /// executor's cache-aware auto shard policy.
  static constexpr size_t ScanBytesPerRow(size_t num_columns) {
    return num_columns * sizeof(ValueCode) + sizeof(double);
  }

  /// Key of `row` restricted to `attrs` (attribute indices).
  TupleKey KeyFor(size_t row, const std::vector<size_t>& attrs) const;

  /// Group-by over `attrs`: maps each distinct key to the row ids in that
  /// group. This is the workhorse behind aggregate computation, incidence
  /// matrix construction, and sample-membership tests.
  std::unordered_map<TupleKey, std::vector<size_t>, TupleKeyHash> GroupRows(
      const std::vector<size_t>& attrs) const;

  /// Group-by over `attrs` summing weights per group (COUNT(*) semantics on
  /// a weighted table).
  std::unordered_map<TupleKey, double, TupleKeyHash> GroupWeights(
      const std::vector<size_t>& attrs) const;

  /// Returns a new table with the same schema containing rows where
  /// `keep[row]` is true (weights preserved).
  Table Filter(const std::vector<bool>& keep) const;

  /// Deep copy.
  Table Clone() const;

  /// One row per distinct code tuple, in order of first occurrence, each
  /// weighing the sum of its rows' weights (added in row order). Zero-weight
  /// rows are kept like any other. Every COUNT(*) = Σw, SUM = Σw·v and
  /// weight-multiplying join answer is that of this table up to float
  /// rounding. Compacting a compacted table leaves it unchanged.
  Table Compact() const;

 private:
  SchemaPtr schema_;
  size_t num_rows_ = 0;
  std::vector<std::vector<ValueCode>> columns_;  // [attr][row]
  std::vector<double> weights_;
};

}  // namespace themis::data

#endif  // THEMIS_DATA_TABLE_H_
