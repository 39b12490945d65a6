#include "aggregate/aggregate_io.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <tuple>

#include "util/string_util.h"

namespace themis::aggregate {
namespace {

/// std::getline without a trailing '\r', so a CRLF file reads like an LF
/// file.
bool GetLine(std::istream& in, std::string& line) {
  if (!std::getline(in, line)) return false;
  if (!line.empty() && line.back() == '\r') line.pop_back();
  return true;
}

}  // namespace

Status WriteAggregateCsv(const AggregateSpec& spec,
                         const data::Schema& schema,
                         const std::string& path) {
  std::ofstream out(path);
  if (!out) return Status::IoError("cannot open '" + path + "' for write");
  for (size_t attr : spec.attrs) {
    out << CsvEscape(schema.attribute_name(attr)) << ",";
  }
  out << "count\n";
  for (const auto& [key, count] : spec.groups) {
    for (size_t i = 0; i < spec.attrs.size(); ++i) {
      out << CsvEscape(schema.domain(spec.attrs[i]).Label(key[i])) << ",";
    }
    out << count << "\n";
  }
  if (!out) return Status::IoError("write to '" + path + "' failed");
  return Status::OK();
}

Result<AggregateSpec> ReadAggregateCsv(data::Schema& schema,
                                       const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IoError("cannot open '" + path + "' for read");
  std::string line;
  if (!GetLine(in, line)) {
    return Status::ParseError("empty aggregate file '" + path + "'");
  }
  std::vector<std::string> header = SplitCsvLine(line);
  if (header.size() < 2 || Trim(header.back()) != "count") {
    return Status::ParseError(
        "aggregate CSV header must be attr[,attr...],count");
  }
  AggregateSpec spec;
  std::vector<size_t> file_attrs;  // attrs in file column order
  for (size_t i = 0; i + 1 < header.size(); ++i) {
    THEMIS_ASSIGN_OR_RETURN(
        size_t idx, schema.AttributeIndex(std::string(Trim(header[i]))));
    file_attrs.push_back(idx);
  }
  // Keys must follow sorted-attr order (AggregateSpec invariant).
  std::vector<size_t> sorted = file_attrs;
  std::sort(sorted.begin(), sorted.end());
  std::vector<size_t> positions(file_attrs.size());
  for (size_t i = 0; i < file_attrs.size(); ++i) {
    positions[i] = static_cast<size_t>(
        std::lower_bound(sorted.begin(), sorted.end(), file_attrs[i]) -
        sorted.begin());
  }
  spec.attrs = sorted;

  // Each group with the line it came from, to name both lines of a
  // duplicate key.
  std::vector<std::tuple<data::TupleKey, double, size_t>> groups;
  size_t line_no = 1;
  while (GetLine(in, line)) {
    ++line_no;
    if (Trim(line).empty()) continue;
    std::vector<std::string> fields = SplitCsvLine(line);
    if (fields.size() != header.size()) {
      return Status::ParseError(
          StrFormat("'%s' line %zu: expected %zu fields, got %zu",
                    path.c_str(), line_no, header.size(), fields.size()));
    }
    data::TupleKey key(file_attrs.size());
    for (size_t i = 0; i < file_attrs.size(); ++i) {
      key[positions[i]] = schema.domain(file_attrs[i])
                              .Intern(std::string(Trim(fields[i])));
    }
    // A finite count >= 0 with nothing but blanks around it: a NaN or
    // infinite target would turn every IPF weight into NaN.
    const char* text = fields.back().c_str();
    char* end = nullptr;
    const double count = std::strtod(text, &end);
    if (end == text || !Trim(end).empty() || !std::isfinite(count) ||
        count < 0) {
      return Status::ParseError(StrFormat("'%s' line %zu: bad count '%s'",
                                          path.c_str(), line_no, text));
    }
    groups.emplace_back(std::move(key), count, line_no);
  }
  std::sort(groups.begin(), groups.end(), [](const auto& a, const auto& b) {
    return std::tie(std::get<0>(a), std::get<2>(a)) <
           std::tie(std::get<0>(b), std::get<2>(b));
  });
  const auto dup = std::adjacent_find(
      groups.begin(), groups.end(), [](const auto& a, const auto& b) {
        return std::get<0>(a) == std::get<0>(b);
      });
  if (dup != groups.end()) {
    return Status::ParseError(
        StrFormat("'%s' line %zu: duplicate group (first on line %zu)",
                  path.c_str(), std::get<2>(*std::next(dup)),
                  std::get<2>(*dup)));
  }
  spec.groups.reserve(groups.size());
  for (auto& group : groups) {
    spec.groups.emplace_back(std::move(std::get<0>(group)),
                             std::get<1>(group));
  }
  return spec;
}

}  // namespace themis::aggregate
