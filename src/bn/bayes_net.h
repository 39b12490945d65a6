#ifndef THEMIS_BN_BAYES_NET_H_
#define THEMIS_BN_BAYES_NET_H_

#include <vector>

#include "bn/cpt.h"
#include "bn/dag.h"
#include "data/table.h"
#include "util/random.h"
#include "util/status.h"

namespace themis::bn {

/// A discrete Bayesian network over the attributes of a schema: a DAG plus
/// one CPT per attribute. This is Themis's approximate model of the
/// population probability distribution (Sec 4.2).
class BayesianNetwork {
 public:
  /// Builds a network with the given structure; CPTs are allocated (sized
  /// from the schema's domains) but start uniform. Use the parameter
  /// learning routines or SetCpt to fill them.
  BayesianNetwork(data::SchemaPtr schema, Dag dag);

  const data::SchemaPtr& schema() const { return schema_; }
  const Dag& dag() const { return dag_; }

  const Cpt& cpt(size_t node) const { return cpts_[node]; }
  Cpt& mutable_cpt(size_t node) { return cpts_[node]; }

  size_t num_nodes() const { return cpts_.size(); }

  /// Joint probability of a full assignment (one code per attribute):
  /// the product of the factor probabilities.
  double JointProbability(const std::vector<data::ValueCode>& full) const;

  /// Draws one full tuple by forward (logic) sampling in topological order.
  std::vector<data::ValueCode> SampleTuple(Rng& rng) const;

  /// Generates `num_rows` forward samples as a table sharing the schema,
  /// each row weighted `population_size / num_rows` so the table is a
  /// uniformly-scaled representative sample of the modeled population
  /// (Sec 4.2.4). The rows are those of `num_rows` SampleTuple calls.
  ///
  /// Every tuple takes exactly one Rng::UniformDouble per node, and each of
  /// those is one engine step (util_test checks this against discard), so
  /// a call advances `rng` by exactly num_rows · num_nodes() steps. Callers
  /// rely on that to generate consecutive tables of one stream in parallel
  /// from copies jumped ahead with engine().discard.
  data::Table SampleTable(size_t num_rows, double population_size,
                          Rng& rng) const;

  /// Total number of free parameters across all CPTs.
  size_t NumFreeParameters() const;

 private:
  data::SchemaPtr schema_;
  Dag dag_;
  std::vector<Cpt> cpts_;
  std::vector<size_t> topo_order_;
};

/// Allocates the CPT shell (parents + domain sizes, uniform rows) for
/// `node` under `dag` — helper shared by learning code.
Cpt MakeCptShell(const data::Schema& schema, const Dag& dag, size_t node);

}  // namespace themis::bn

#endif  // THEMIS_BN_BAYES_NET_H_
