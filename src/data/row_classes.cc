#include "data/row_classes.h"

#include <algorithm>
#include <bit>
#include <limits>
#include <numeric>
#include <unordered_map>
#include <utility>

#include "data/tuple_key.h"
#include "util/logging.h"

namespace themis::data {
namespace {

/// Widest radix digit: a 2^13-entry histogram stays in L1.
constexpr size_t kMaxDigitBits = 13;

/// Sets row_class[r] to the first row holding r's packed key. Each sort
/// element is the packed key shifted above the row number, so the row
/// rides along in the low `row_bits` bits and ties stay in row order.
void LeadersByRadixSort(const Table& table, const std::vector<size_t>& attrs,
                        const PackedKeyCodec& codec, unsigned row_bits,
                        std::vector<uint32_t>& row_class) {
  const size_t n = table.num_rows();
  std::vector<uint64_t> keys(n);
  std::iota(keys.begin(), keys.end(), uint64_t{0});
  for (size_t i = 0; i < attrs.size(); ++i) {
    const ValueCode* col = table.column(attrs[i]).data();
    const unsigned shift = row_bits + codec.shift(i);
    for (size_t r = 0; r < n; ++r) {
      keys[r] |= uint64_t{static_cast<uint32_t>(col[r])} << shift;
    }
  }

  // LSD radix sort on the key bits, in equal digits of at most
  // kMaxDigitBits. It is stable, so each run of equal keys lists its rows
  // in ascending order. All digit histograms come from one pass; a digit
  // equal on every key needs no pass.
  const size_t key_bits = codec.total_bits();
  const size_t passes = (key_bits + kMaxDigitBits - 1) / kMaxDigitBits;
  const size_t digit_bits = passes == 0 ? 0 : (key_bits + passes - 1) / passes;
  const size_t buckets = size_t{1} << digit_bits;
  const uint64_t digit_mask = buckets - 1;
  std::vector<uint32_t> hist(passes * buckets, 0);
  for (uint64_t key : keys) {
    for (size_t p = 0; p < passes; ++p) {
      ++hist[p * buckets + ((key >> (row_bits + p * digit_bits)) & digit_mask)];
    }
  }
  std::vector<uint64_t> sorted(n);
  for (size_t p = 0; p < passes; ++p) {
    const size_t shift = row_bits + p * digit_bits;
    uint32_t* offset = &hist[p * buckets];
    if (offset[(keys[0] >> shift) & digit_mask] == n) continue;
    uint32_t next = 0;
    for (size_t d = 0; d < buckets; ++d) {
      next += std::exchange(offset[d], next);
    }
    for (uint64_t key : keys) {
      sorted[offset[(key >> shift) & digit_mask]++] = key;
    }
    keys.swap(sorted);
  }

  const uint64_t row_mask = (uint64_t{1} << row_bits) - 1;
  for (size_t i = 0; i < n;) {
    const uint64_t code_bits = keys[i] >> row_bits;
    const auto leader = static_cast<uint32_t>(keys[i] & row_mask);
    for (; i < n && (keys[i] >> row_bits) == code_bits; ++i) {
      row_class[keys[i] & row_mask] = leader;
    }
  }
}

/// The TupleKey fallback of LeadersByRadixSort, for packed keys that
/// leave too few bits for the row number.
void LeadersByHash(const Table& table, const std::vector<size_t>& attrs,
                   std::vector<uint32_t>& row_class) {
  std::unordered_map<TupleKey, uint32_t, TupleKeyHash> leaders;
  for (size_t r = 0; r < table.num_rows(); ++r) {
    row_class[r] = leaders
                       .try_emplace(table.KeyFor(r, attrs),
                                    static_cast<uint32_t>(r))
                       .first->second;
  }
}

}  // namespace

RowClasses ClassifyRows(const Table& table, const std::vector<size_t>& attrs) {
  const size_t n = table.num_rows();
  THEMIS_CHECK(n < std::numeric_limits<uint32_t>::max())
      << "ClassifyRows: " << n << " rows";
  RowClasses classes;
  if (n == 0) return classes;
  classes.row_class.resize(n);
  const PackedKeyCodec codec(table.schema()->DomainSizes(attrs));
  const auto row_bits =
      std::max<unsigned>(1, static_cast<unsigned>(std::bit_width(n - 1)));
  if (codec.packable() && codec.total_bits() + row_bits <= 64) {
    LeadersByRadixSort(table, attrs, codec, row_bits, classes.row_class);
  } else {
    LeadersByHash(table, attrs, classes.row_class);
  }
  // Number the classes in first-occurrence order. A row's leader precedes
  // it, so the leader's entry already holds the class id.
  for (uint32_t r = 0; r < n; ++r) {
    const uint32_t leader = classes.row_class[r];
    if (leader == r) {
      classes.row_class[r] = static_cast<uint32_t>(classes.count.size());
      classes.count.push_back(0);
      classes.first_row.push_back(r);
    } else {
      classes.row_class[r] = classes.row_class[leader];
    }
    ++classes.count[classes.row_class[r]];
  }
  return classes;
}

}  // namespace themis::data
