#ifndef THEMIS_DATA_ROW_CLASSES_H_
#define THEMIS_DATA_ROW_CLASSES_H_

#include <cstdint>
#include <vector>

#include "data/table.h"

namespace themis::data {

/// A table's rows partitioned into classes of equal codes on a set of
/// attributes. Class ids follow first occurrence in row order, so
/// `first_row` ascends.
struct RowClasses {
  std::vector<uint32_t> row_class;  ///< class id of each row
  std::vector<uint32_t> count;      ///< rows in each class
  std::vector<uint32_t> first_row;  ///< first row of each class

  size_t num_classes() const { return count.size(); }
};

/// Classifies `table`'s rows by their codes on `attrs`. Each row's codes
/// (PackedKeyCodec) and its row number are packed into one 64-bit word,
/// and the words are LSD-radix-sorted on the code bits; when codes and row
/// number need more than 64 bits, rows are hashed as TupleKeys instead.
/// The result depends only on the codes. Codes must be valid for their
/// domains, and the table must have fewer than 2^32 rows.
RowClasses ClassifyRows(const Table& table, const std::vector<size_t>& attrs);

}  // namespace themis::data

#endif  // THEMIS_DATA_ROW_CLASSES_H_
