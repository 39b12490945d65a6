#ifndef THEMIS_BENCH_COMMON_H_
#define THEMIS_BENCH_COMMON_H_

#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "aggregate/aggregate.h"
#include "core/options.h"
#include "stats/descriptive.h"
#include "util/string_util.h"
#include "data/table.h"
#include "workload/experiment.h"
#include "workload/flights.h"
#include "workload/imdb.h"
#include "workload/queries.h"
#include "workload/sampler.h"

namespace themis::bench {

/// Shared configuration of the benchmark harnesses. Default sizes are
/// scaled down from the paper (see DESIGN.md); THEMIS_SCALE multiplies
/// them so larger runs are one environment variable away.
struct BenchScale {
  size_t flights_rows;
  size_t imdb_rows;
  size_t queries;  // point queries per class (paper: 100)
  BenchScale();
};

/// Prints the standard bench banner.
void PrintHeader(const std::string& id, const std::string& title);

/// Prints one "method: boxplot" row.
void PrintBoxplotRow(const std::string& label,
                     const std::vector<double>& errors);

/// Prints one "method: mean" row.
void PrintMeanRow(const std::string& label,
                  const std::vector<double>& errors);

/// A generated population with its named biased samples.
struct DatasetSetup {
  data::Table population;
  std::map<std::string, data::Table> samples;
  /// Attribute indices covered by published aggregates (all 5 for
  /// flights; MY/MC/G/RG/RT for IMDB, Sec 6.2).
  std::vector<size_t> covered_attrs;
};

/// Flights with the paper's four samples (Unif / June / SCorners /
/// Corners), 10% sampling fraction.
DatasetSetup MakeFlights(const BenchScale& scale, uint64_t seed = 1);

/// IMDB with the paper's four samples (Unif / GB / SR159 / R159).
DatasetSetup MakeImdb(const BenchScale& scale, uint64_t seed = 2);

/// The aggregate configuration used throughout Sec 6: all 1D aggregates
/// over `covered`, plus the `budget_2d` / `budget_3d` most informative
/// multi-dimensional aggregates chosen by t-cherry pruning over all
/// candidates (the analog of Table 3).
aggregate::AggregateSet MakePaperAggregates(const data::Table& population,
                                            const std::vector<size_t>& covered,
                                            size_t num_1d, size_t budget_2d,
                                            size_t budget_3d = 0);

/// Default Themis options for benches (tree BN; THEMIS_INFERENCE_CACHE=0
/// turns the inference memo off).
core::ThemisOptions BenchOptions();

}  // namespace themis::bench

#endif  // THEMIS_BENCH_COMMON_H_
