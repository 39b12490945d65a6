#include "data/table.h"

#include <numeric>

#include "data/row_classes.h"
#include "util/logging.h"

namespace themis::data {

Table::Table(SchemaPtr schema) : schema_(std::move(schema)) {
  THEMIS_CHECK(schema_ != nullptr);
  columns_.resize(schema_->num_attributes());
}

Table::Table(SchemaPtr schema, size_t num_rows, double weight)
    : schema_(std::move(schema)), num_rows_(num_rows) {
  THEMIS_CHECK(schema_ != nullptr);
  columns_.assign(schema_->num_attributes(),
                  std::vector<ValueCode>(num_rows, 0));
  weights_.assign(num_rows, weight);
}

Table::Table(SchemaPtr schema, std::vector<std::vector<ValueCode>> columns,
             std::vector<double> weights)
    : schema_(std::move(schema)),
      num_rows_(weights.size()),
      columns_(std::move(columns)),
      weights_(std::move(weights)) {
  THEMIS_CHECK(schema_ != nullptr);
  THEMIS_CHECK(columns_.size() == schema_->num_attributes());
  for (const auto& column : columns_) {
    THEMIS_CHECK(column.size() == num_rows_);
  }
}

void Table::AppendRow(const std::vector<ValueCode>& codes) {
  THEMIS_CHECK(codes.size() == columns_.size())
      << "row arity " << codes.size() << " != schema arity "
      << columns_.size();
  for (size_t a = 0; a < codes.size(); ++a) columns_[a].push_back(codes[a]);
  weights_.push_back(1.0);
  ++num_rows_;
}

void Table::AppendRowLabels(const std::vector<std::string>& labels) {
  THEMIS_CHECK(labels.size() == columns_.size());
  std::vector<ValueCode> codes(labels.size());
  for (size_t a = 0; a < labels.size(); ++a) {
    codes[a] = schema_->domain(a).Intern(labels[a]);
  }
  AppendRow(codes);
}

double Table::TotalWeight() const {
  double s = 0;
  for (double w : weights_) s += w;
  return s;
}

void Table::FillWeights(double w) {
  for (double& x : weights_) x = w;
}

TupleKey Table::KeyFor(size_t row, const std::vector<size_t>& attrs) const {
  TupleKey key(attrs.size());
  for (size_t i = 0; i < attrs.size(); ++i) key[i] = columns_[attrs[i]][row];
  return key;
}

std::unordered_map<TupleKey, std::vector<size_t>, TupleKeyHash>
Table::GroupRows(const std::vector<size_t>& attrs) const {
  std::unordered_map<TupleKey, std::vector<size_t>, TupleKeyHash> groups;
  for (size_t r = 0; r < num_rows_; ++r) {
    groups[KeyFor(r, attrs)].push_back(r);
  }
  return groups;
}

std::unordered_map<TupleKey, double, TupleKeyHash> Table::GroupWeights(
    const std::vector<size_t>& attrs) const {
  std::unordered_map<TupleKey, double, TupleKeyHash> groups;
  for (size_t r = 0; r < num_rows_; ++r) {
    groups[KeyFor(r, attrs)] += weights_[r];
  }
  return groups;
}

Table Table::Filter(const std::vector<bool>& keep) const {
  THEMIS_CHECK(keep.size() == num_rows_);
  Table out(schema_);
  for (size_t r = 0; r < num_rows_; ++r) {
    if (!keep[r]) continue;
    std::vector<ValueCode> codes(columns_.size());
    for (size_t a = 0; a < columns_.size(); ++a) codes[a] = columns_[a][r];
    out.AppendRow(codes);
    out.set_weight(out.num_rows() - 1, weights_[r]);
  }
  return out;
}

Table Table::Clone() const {
  Table out(schema_);
  out.num_rows_ = num_rows_;
  out.columns_ = columns_;
  out.weights_ = weights_;
  return out;
}

Table Table::Compact() const {
  std::vector<size_t> all(columns_.size());
  std::iota(all.begin(), all.end(), size_t{0});
  return Compact(ClassifyRows(*this, all));
}

Table Table::Compact(const RowClasses& classes) const {
  Table out = ClassLeaders(classes);
  for (size_t r = 0; r < num_rows_; ++r) {
    out.weights_[classes.row_class[r]] += weights_[r];
  }
  return out;
}

Table Table::CompactCounts(const RowClasses& classes) const {
  // Adding 1.0 count times gives count exactly (counts are below 2^32),
  // so this equals Compact() of the unit-weight table bit for bit.
  Table out = ClassLeaders(classes);
  for (size_t c = 0; c < classes.num_classes(); ++c) {
    out.weights_[c] = classes.count[c];
  }
  return out;
}

Table Table::ClassLeaders(const RowClasses& classes) const {
  THEMIS_CHECK(classes.row_class.size() == num_rows_);
  Table out(schema_, classes.num_classes(), 0.0);
  for (size_t a = 0; a < columns_.size(); ++a) {
    for (size_t c = 0; c < classes.num_classes(); ++c) {
      out.columns_[a][c] = columns_[a][classes.first_row[c]];
    }
  }
  return out;
}

}  // namespace themis::data
