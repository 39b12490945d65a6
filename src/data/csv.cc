#include "data/csv.h"

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <memory>
#include <string_view>
#include <vector>

#include "util/string_util.h"

namespace themis::data {
namespace {

/// Reads a file one line at a time through a block buffer, so a line costs
/// no allocation and the file is never held whole.
class LineReader {
 public:
  explicit LineReader(std::FILE* file) : file_(file), buffer_(kBlockBytes) {}

  /// The next line without its '\n' and without one trailing '\r', so a
  /// CRLF file reads like an LF file; false at end of file. The view is
  /// valid until the next call.
  bool Next(std::string_view* line) {
    for (;;) {
      const char* begin = buffer_.data() + begin_;
      const auto* newline =
          static_cast<const char*>(std::memchr(begin, '\n', end_ - begin_));
      if (newline != nullptr) {
        const auto length = static_cast<size_t>(newline - begin);
        *line = Chomp({begin, length});
        begin_ += length + 1;
        return true;
      }
      if (eof_) {
        if (begin_ == end_) return false;
        *line = Chomp({begin, end_ - begin_});
        begin_ = end_;
        return true;
      }
      Refill();
    }
  }

 private:
  static constexpr size_t kBlockBytes = size_t{64} << 10;

  static std::string_view Chomp(std::string_view line) {
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    return line;
  }

  /// Moves the unfinished line to the front and reads one more block,
  /// doubling the buffer when that line fills it.
  void Refill() {
    std::memmove(buffer_.data(), buffer_.data() + begin_, end_ - begin_);
    end_ -= begin_;
    begin_ = 0;
    if (end_ == buffer_.size()) buffer_.resize(2 * buffer_.size());
    const size_t got =
        std::fread(buffer_.data() + end_, 1, buffer_.size() - end_, file_);
    end_ += got;
    eof_ = got == 0;
  }

  std::FILE* file_;
  std::vector<char> buffer_;
  size_t begin_ = 0;  // start of the unread bytes
  size_t end_ = 0;    // end of the bytes read so far
  bool eof_ = false;
};

/// Splits `line` at commas into views of it, as SplitCsvLine would, for
/// the lines that need no copy: a field is either free of quotes or
/// wrapped whole in one pair of them (commas inside allowed). Returns false
/// for every other line (a `""` escape, a quote inside a field, an
/// unclosed quote), which SplitCsvLine must read.
bool SplitPlainCsvLine(std::string_view line,
                       std::vector<std::string_view>* fields) {
  fields->clear();
  size_t i = 0;
  for (;;) {
    if (i < line.size() && line[i] == '"') {
      const size_t close = line.find('"', i + 1);
      if (close == std::string_view::npos) return false;
      fields->push_back(line.substr(i + 1, close - i - 1));
      i = close + 1;
      if (i == line.size()) return true;
      if (line[i] != ',') return false;
      ++i;
    } else {
      size_t end = i;
      while (end < line.size() && line[end] != ',' && line[end] != '"') ++end;
      if (end < line.size() && line[end] == '"') return false;
      fields->push_back(line.substr(i, end - i));
      if (end == line.size()) return true;
      i = end + 1;
    }
  }
}

/// One column's label → code map in front of its Domain. A label seen
/// before is found by its hash, without building a std::string;
/// Domain::Intern runs only on a label's first sight, so codes keep
/// first-occurrence order. Open addressing over (hash, code) slots; a
/// slot's label is the Domain's.
class LabelCodes {
 public:
  explicit LabelCodes(Domain* domain) : domain_(domain), slots_(16) {}

  ValueCode Intern(std::string_view label) {
    const size_t hash = std::hash<std::string_view>{}(label);
    const size_t mask = slots_.size() - 1;
    for (size_t i = hash & mask;; i = (i + 1) & mask) {
      Slot& slot = slots_[i];
      if (slot.code == kNullCode) {
        const ValueCode code = domain_->Intern(std::string(label));
        slot = {hash, code};
        if (2 * ++size_ > slots_.size()) Grow();
        return code;
      }
      if (slot.hash == hash && domain_->Label(slot.code) == label) {
        return slot.code;
      }
    }
  }

 private:
  struct Slot {
    size_t hash = 0;
    ValueCode code = kNullCode;
  };

  void Grow() {
    std::vector<Slot> old(2 * slots_.size());
    old.swap(slots_);
    const size_t mask = slots_.size() - 1;
    for (const Slot& slot : old) {
      if (slot.code == kNullCode) continue;
      size_t i = slot.hash & mask;
      while (slots_[i].code != kNullCode) i = (i + 1) & mask;
      slots_[i] = slot;
    }
  }

  Domain* domain_;
  std::vector<Slot> slots_;
  size_t size_ = 0;
};

/// strtod's reading of `field`: its longest numeric prefix; false when it
/// has none. A field that is one whole number takes std::from_chars, which
/// needs no NUL-terminated copy and rounds as strtod does; any other goes
/// through strtod on a copy in `scratch`.
bool ParseWeight(std::string_view field, std::string* scratch, double* w) {
  const char* end = field.data() + field.size();
  const auto [ptr, ec] = std::from_chars(field.data(), end, *w);
  if (ec == std::errc() && ptr == end) return true;
  scratch->assign(field);
  char* stop = nullptr;
  *w = std::strtod(scratch->c_str(), &stop);
  return stop != scratch->c_str();
}

}  // namespace

Status WriteCsv(const Table& table, const std::string& path) {
  std::ofstream out(path);
  if (!out) return Status::IoError("cannot open '" + path + "' for write");
  const Schema& schema = *table.schema();
  for (size_t a = 0; a < schema.num_attributes(); ++a) {
    out << CsvEscape(schema.attribute_name(a)) << ",";
  }
  out << "weight\n";
  for (size_t r = 0; r < table.num_rows(); ++r) {
    for (size_t a = 0; a < schema.num_attributes(); ++a) {
      out << CsvEscape(schema.domain(a).Label(table.Get(r, a))) << ",";
    }
    out << table.weight(r) << "\n";
  }
  if (!out) return Status::IoError("write to '" + path + "' failed");
  return Status::OK();
}

Result<Table> ReadCsv(const std::string& path) {
  const std::unique_ptr<std::FILE, int (*)(std::FILE*)> file(
      std::fopen(path.c_str(), "rb"), &std::fclose);
  if (file == nullptr) {
    return Status::IoError("cannot open '" + path + "' for read");
  }
  LineReader reader(file.get());
  std::string_view line;
  if (!reader.Next(&line)) {
    return Status::ParseError("empty CSV file '" + path + "'");
  }
  const std::vector<std::string> header = SplitCsvLine(line);
  const bool has_weight = !header.empty() && header.back() == "weight";
  const size_t num_attrs = has_weight ? header.size() - 1 : header.size();
  if (num_attrs == 0) {
    return Status::ParseError("CSV '" + path + "' has no attribute columns");
  }
  auto schema = std::make_shared<Schema>();
  for (size_t a = 0; a < num_attrs; ++a) {
    schema->AddAttribute(std::string(Trim(header[a])));
  }
  std::vector<LabelCodes> label_codes;
  label_codes.reserve(num_attrs);
  for (size_t a = 0; a < num_attrs; ++a) {
    label_codes.emplace_back(&schema->domain(a));
  }
  std::vector<std::vector<ValueCode>> columns(num_attrs);
  std::vector<double> weights;
  std::vector<std::string_view> fields;
  std::vector<std::string> unescaped;  // fields of a line with `""` escapes
  std::string scratch;
  size_t line_no = 1;
  while (reader.Next(&line)) {
    ++line_no;
    if (Trim(line).empty()) continue;
    if (!SplitPlainCsvLine(line, &fields)) {
      unescaped = SplitCsvLine(line);
      fields.assign(unescaped.begin(), unescaped.end());
    }
    if (fields.size() != header.size()) {
      return Status::ParseError(StrFormat(
          "CSV '%s' line %zu: expected %zu fields, got %zu", path.c_str(),
          line_no, header.size(), fields.size()));
    }
    for (size_t a = 0; a < num_attrs; ++a) {
      columns[a].push_back(label_codes[a].Intern(fields[a]));
    }
    double w = 1.0;
    if (has_weight && !ParseWeight(fields.back(), &scratch, &w)) {
      return Status::ParseError(
          StrFormat("CSV '%s' line %zu: bad weight '%s'", path.c_str(),
                    line_no, std::string(fields.back()).c_str()));
    }
    weights.push_back(w);
  }
  return Table(std::move(schema), std::move(columns), std::move(weights));
}

}  // namespace themis::data
