#ifndef THEMIS_DATA_TUPLE_KEY_H_
#define THEMIS_DATA_TUPLE_KEY_H_

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "data/domain.h"

namespace themis::data {

/// Composite key over a subset of attribute values; used for group-by
/// hashing, sample-membership lookups, and aggregate-group identification.
using TupleKey = std::vector<ValueCode>;

struct TupleKeyHash {
  size_t operator()(const TupleKey& key) const {
    // FNV-1a over the codes.
    size_t h = 1469598103934665603ull;
    for (ValueCode v : key) {
      h ^= static_cast<size_t>(static_cast<uint32_t>(v));
      h *= 1099511628211ull;
    }
    return h;
  }
};

/// Fixed-width bit layout packing a composite code key into one uint64_t.
/// Component i occupies bits [shift(i), shift(i)+bits(i)) where bits(i) is
/// just wide enough for codes 0..N_i-1 of a domain with N_i labels. The
/// codec is `packable()` when the widths sum to <= 64 bits; callers fall
/// back to a TupleKey otherwise. Codes must be valid for their domains
/// (0 <= code < N_i) — the same precondition Domain::Label enforces.
class PackedKeyCodec {
 public:
  PackedKeyCodec() = default;
  explicit PackedKeyCodec(const std::vector<size_t>& domain_sizes) {
    shifts_.reserve(domain_sizes.size());
    masks_.reserve(domain_sizes.size());
    size_t total = 0;
    for (size_t n : domain_sizes) {
      const unsigned bits =
          std::max<unsigned>(1, std::bit_width(n > 1 ? n - 1 : 1));
      shifts_.push_back(static_cast<uint32_t>(total));
      masks_.push_back(bits >= 64 ? ~0ull : (1ull << bits) - 1);
      total += bits;
    }
    total_bits_ = total;
    packable_ = total <= 64;
  }

  bool packable() const { return packable_; }

  /// Sum of the component widths: a packed key uses only its low
  /// total_bits() bits.
  size_t total_bits() const { return total_bits_; }

  /// Bit offset of component i — callers' hot loops OR `code << shift(i)`
  /// terms together to encode a key.
  uint32_t shift(size_t i) const { return shifts_[i]; }

  ValueCode Component(uint64_t key, size_t i) const {
    return static_cast<ValueCode>((key >> shifts_[i]) & masks_[i]);
  }

 private:
  std::vector<uint32_t> shifts_;
  std::vector<uint64_t> masks_;
  size_t total_bits_ = 0;
  bool packable_ = true;
};

}  // namespace themis::data

#endif  // THEMIS_DATA_TUPLE_KEY_H_
