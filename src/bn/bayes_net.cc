#include "bn/bayes_net.h"

#include "util/logging.h"

namespace themis::bn {

Cpt MakeCptShell(const data::Schema& schema, const Dag& dag, size_t node) {
  const std::vector<size_t>& parents = dag.Parents(node);
  std::vector<size_t> parent_sizes;
  parent_sizes.reserve(parents.size());
  for (size_t p : parents) parent_sizes.push_back(schema.domain(p).size());
  Cpt cpt(node, schema.domain(node).size(), parents, parent_sizes);
  cpt.FillUniform();
  return cpt;
}

BayesianNetwork::BayesianNetwork(data::SchemaPtr schema, Dag dag)
    : schema_(std::move(schema)), dag_(std::move(dag)) {
  THEMIS_CHECK(schema_ != nullptr);
  THEMIS_CHECK(dag_.num_nodes() == schema_->num_attributes());
  cpts_.reserve(dag_.num_nodes());
  for (size_t v = 0; v < dag_.num_nodes(); ++v) {
    cpts_.push_back(MakeCptShell(*schema_, dag_, v));
  }
  topo_order_ = dag_.TopologicalOrder();
}

double BayesianNetwork::JointProbability(
    const std::vector<data::ValueCode>& full) const {
  THEMIS_CHECK(full.size() == num_nodes());
  double p = 1.0;
  for (size_t v = 0; v < num_nodes(); ++v) {
    const Cpt& cpt = cpts_[v];
    data::TupleKey parent_codes(cpt.parents().size());
    for (size_t i = 0; i < cpt.parents().size(); ++i) {
      parent_codes[i] = full[cpt.parents()[i]];
    }
    p *= cpt.Prob(cpt.ConfigIndex(parent_codes), full[v]);
    if (p == 0.0) return 0.0;
  }
  return p;
}

std::vector<data::ValueCode> BayesianNetwork::SampleTuple(Rng& rng) const {
  std::vector<data::ValueCode> tuple(num_nodes(), data::kNullCode);
  for (size_t v : topo_order_) {
    const Cpt& cpt = cpts_[v];
    data::TupleKey parent_codes(cpt.parents().size());
    for (size_t i = 0; i < cpt.parents().size(); ++i) {
      parent_codes[i] = tuple[cpt.parents()[i]];
      THEMIS_DCHECK(parent_codes[i] != data::kNullCode);
    }
    tuple[v] = cpt.Sample(cpt.ConfigIndex(parent_codes), rng);
  }
  return tuple;
}

data::Table BayesianNetwork::SampleTable(size_t num_rows,
                                         double population_size,
                                         Rng& rng) const {
  const double w =
      num_rows == 0 ? 0.0 : population_size / static_cast<double>(num_rows);
  data::Table table(schema_, num_rows, w);
  std::vector<data::ValueCode*> columns(num_nodes());
  for (size_t v = 0; v < num_nodes(); ++v) {
    columns[v] = table.mutable_column(v).data();
  }
  for (size_t r = 0; r < num_rows; ++r) {
    for (size_t v : topo_order_) {
      const Cpt& cpt = cpts_[v];
      // Cpt::ConfigIndex over this row's parent codes, without a TupleKey.
      size_t config = 0;
      for (size_t i = 0; i < cpt.parents().size(); ++i) {
        config = config * cpt.parent_sizes()[i] +
                 static_cast<size_t>(columns[cpt.parents()[i]][r]);
      }
      columns[v][r] = cpt.Sample(config, rng);
    }
  }
  return table;
}

size_t BayesianNetwork::NumFreeParameters() const {
  size_t s = 0;
  for (const Cpt& cpt : cpts_) s += cpt.NumFreeParameters();
  return s;
}

}  // namespace themis::bn
