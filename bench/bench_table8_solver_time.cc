// Reproduces Table 8: structure- and parameter-learning wall times for
// LinReg, IPF and BB on IMDB SR159 as aggregates are added (1..5 1D, then
// +1..4 2D). Shape to reproduce: BB's parameter time does not blow up as
// 2D aggregates are added (the Sec 5.2 simplification at work — more
// direct equality constraints). The paper has LinReg fastest, then IPF,
// then BB. Measured here (default scale, 4-CPU x86, five runs),
// structure learning, not parameter solving, is most of BB's time:
// BB-struct takes 0.036-0.064 s and BB-param 0.002-0.003 s at every
// aggregate count. The sample has 7,882 distinct tuples in 8,000 rows, so
// learning from its distinct tuples, as ThemisModel::Build does, would not
// change that. IPF iterates over distinct-tuple classes and ties with
// LinReg (5 1D + 4 2D: IPF 0.013-0.016 s, LinReg 0.012-0.015 s), both
// ahead of BB's structure + parameter time. Also prints the
// constraint-count blowup the *unsimplified* Eq. 2 formulation would
// face, the ablation DESIGN.md calls out.
#include "common.h"

#include "bn/learn.h"
#include "reweight/ipf.h"
#include "reweight/linreg.h"
#include "util/logging.h"
#include "util/timer.h"

namespace themis::bench {
namespace {

void Run() {
  PrintHeader("Table 8", "Solver times on IMDB SR159 (seconds)");
  BenchScale scale;
  DatasetSetup setup = MakeImdb(scale);
  const double n = static_cast<double>(setup.population.num_rows());
  const data::Table& sample = setup.samples.at("SR159");

  std::printf(
      "  #1D  #2D   LinReg      IPF   BB-struct  BB-param  (unsimplified "
      "product terms)\n");
  struct Config {
    size_t num_1d, num_2d;
  };
  const std::vector<Config> configs = {{1, 0}, {2, 0}, {3, 0}, {4, 0},
                                       {5, 0}, {5, 1}, {5, 2}, {5, 3},
                                       {5, 4}};
  for (const Config& config : configs) {
    aggregate::AggregateSet aggregates = MakePaperAggregates(
        setup.population, setup.covered_attrs, config.num_1d, config.num_2d);

    Timer timer;
    {
      data::Table s = sample.Clone();
      reweight::LinRegReweighter rw;
      THEMIS_CHECK_OK(rw.Reweight(s, aggregates, n));
    }
    const double linreg_seconds = timer.Seconds();

    timer.Restart();
    {
      data::Table s = sample.Clone();
      reweight::IpfReweighter rw;
      THEMIS_CHECK_OK(rw.Reweight(s, aggregates, n));
    }
    const double ipf_seconds = timer.Seconds();

    bn::BnLearnOptions options;
    options.variant = bn::BnVariant::kBB;
    bn::BnLearnStats stats;
    auto network = bn::LearnBayesNet(sample.schema(), &sample, &aggregates,
                                     options, &stats);
    THEMIS_CHECK(network.ok()) << network.status().ToString();

    // Ablation: the unsimplified Eq. 2 has O(prod_{j not in gamma} N_j)
    // product terms per aggregate group — count them to show why the
    // paper's experiments never finished without Sec 5.2.
    double unsimplified_terms = 0;
    for (const auto& spec : aggregates.specs()) {
      double per_group = 1;
      for (size_t a = 0; a < sample.schema()->num_attributes(); ++a) {
        if (!std::binary_search(spec.attrs.begin(), spec.attrs.end(), a)) {
          per_group *= static_cast<double>(sample.schema()->domain(a).size());
        }
      }
      unsimplified_terms += per_group * spec.num_groups();
    }

    std::printf("  %3zu  %3zu  %7.3f  %7.3f   %9.3f  %8.3f  (%.2e)\n",
                config.num_1d, config.num_2d, linreg_seconds, ipf_seconds,
                stats.structure_seconds, stats.parameter_seconds,
                unsimplified_terms);
  }
}

}  // namespace
}  // namespace themis::bench

int main() {
  themis::bench::Run();
  return 0;
}
