#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <string>

#include "aggregate/aggregate.h"
#include "bn/bayes_net.h"
#include "bn/child_network.h"
#include "bn/cpt.h"
#include "bn/dag.h"
#include "bn/inference.h"
#include "bn/inference_engine.h"
#include "bn/learn.h"
#include "workload/flights.h"
#include "workload/sampler.h"

namespace themis::bn {
namespace {

TEST(DagTest, AddRemoveEdges) {
  Dag dag(3);
  ASSERT_TRUE(dag.AddEdge(0, 1).ok());
  EXPECT_TRUE(dag.HasEdge(0, 1));
  EXPECT_FALSE(dag.HasEdge(1, 0));
  EXPECT_EQ(dag.num_edges(), 1u);
  EXPECT_FALSE(dag.AddEdge(0, 1).ok());  // duplicate
  ASSERT_TRUE(dag.RemoveEdge(0, 1).ok());
  EXPECT_EQ(dag.num_edges(), 0u);
  EXPECT_FALSE(dag.RemoveEdge(0, 1).ok());  // absent
}

TEST(DagTest, RejectsCycles) {
  Dag dag(3);
  ASSERT_TRUE(dag.AddEdge(0, 1).ok());
  ASSERT_TRUE(dag.AddEdge(1, 2).ok());
  EXPECT_TRUE(dag.WouldCreateCycle(2, 0));
  EXPECT_FALSE(dag.AddEdge(2, 0).ok());
  EXPECT_FALSE(dag.AddEdge(0, 0).ok());  // self loop
}

TEST(DagTest, ReverseEdge) {
  Dag dag(3);
  ASSERT_TRUE(dag.AddEdge(0, 1).ok());
  ASSERT_TRUE(dag.ReverseEdge(0, 1).ok());
  EXPECT_TRUE(dag.HasEdge(1, 0));
  EXPECT_FALSE(dag.HasEdge(0, 1));
}

TEST(DagTest, ReverseRollsBackOnCycle) {
  Dag dag(3);
  ASSERT_TRUE(dag.AddEdge(0, 1).ok());
  ASSERT_TRUE(dag.AddEdge(0, 2).ok());
  ASSERT_TRUE(dag.AddEdge(2, 1).ok());
  // Reversing 0 -> 1 gives 1 -> 0; with 0 -> 2 -> 1 that's a cycle.
  EXPECT_FALSE(dag.ReverseEdge(0, 1).ok());
  EXPECT_TRUE(dag.HasEdge(0, 1));  // rolled back
}

TEST(DagTest, TopologicalOrder) {
  Dag dag(4);
  ASSERT_TRUE(dag.AddEdge(2, 0).ok());
  ASSERT_TRUE(dag.AddEdge(0, 1).ok());
  ASSERT_TRUE(dag.AddEdge(1, 3).ok());
  auto order = dag.TopologicalOrder();
  ASSERT_EQ(order.size(), 4u);
  std::vector<size_t> pos(4);
  for (size_t i = 0; i < 4; ++i) pos[order[i]] = i;
  EXPECT_LT(pos[2], pos[0]);
  EXPECT_LT(pos[0], pos[1]);
  EXPECT_LT(pos[1], pos[3]);
}

TEST(DagTest, AncestorsAndChildren) {
  Dag dag(4);
  ASSERT_TRUE(dag.AddEdge(0, 1).ok());
  ASSERT_TRUE(dag.AddEdge(1, 2).ok());
  EXPECT_EQ(dag.Ancestors(2), (std::vector<size_t>{0, 1}));
  EXPECT_TRUE(dag.Ancestors(0).empty());
  EXPECT_EQ(dag.Children(0), (std::vector<size_t>{1}));
}

TEST(CptTest, ConfigIndexRoundTrip) {
  Cpt cpt(0, 3, {1, 2}, {2, 4});
  EXPECT_EQ(cpt.num_configs(), 8u);
  for (size_t cfg = 0; cfg < 8; ++cfg) {
    EXPECT_EQ(cpt.ConfigIndex(cpt.DecodeConfig(cfg)), cfg);
  }
}

TEST(CptTest, UniformAndNormalize) {
  Cpt cpt(0, 4, {}, {});
  cpt.FillUniform();
  EXPECT_TRUE(cpt.RowsAreSimplexes());
  EXPECT_DOUBLE_EQ(cpt.Prob(0, 2), 0.25);
  cpt.SetProb(0, 0, 3.0);
  cpt.SetProb(0, 1, 1.0);
  cpt.SetProb(0, 2, 0.0);
  cpt.SetProb(0, 3, 0.0);
  cpt.NormalizeRows();
  EXPECT_DOUBLE_EQ(cpt.Prob(0, 0), 0.75);
  EXPECT_TRUE(cpt.RowsAreSimplexes());
}

TEST(CptTest, NormalizeZeroRowBecomesUniform) {
  Cpt cpt(0, 2, {}, {});
  cpt.NormalizeRows();
  EXPECT_DOUBLE_EQ(cpt.Prob(0, 0), 0.5);
}

TEST(CptTest, FreeParameters) {
  Cpt cpt(0, 3, {1}, {4});
  EXPECT_EQ(cpt.NumFreeParameters(), 8u);  // 4 * (3-1)
}

TEST(CptTest, SampleRespectsDistribution) {
  Cpt cpt(0, 2, {}, {});
  cpt.SetProb(0, 0, 0.9);
  cpt.SetProb(0, 1, 0.1);
  Rng rng(3);
  int zeros = 0;
  for (int i = 0; i < 5000; ++i) {
    if (cpt.Sample(0, rng) == 0) ++zeros;
  }
  EXPECT_NEAR(zeros / 5000.0, 0.9, 0.02);
}

/// A tiny 3-node chain network A -> B -> C over binary domains with known
/// parameters, used by the inference tests.
BayesianNetwork ChainNetwork() {
  auto schema = std::make_shared<data::Schema>();
  schema->AddAttribute("A", {"0", "1"});
  schema->AddAttribute("B", {"0", "1"});
  schema->AddAttribute("C", {"0", "1"});
  Dag dag(3);
  THEMIS_CHECK_OK(dag.AddEdge(0, 1));
  THEMIS_CHECK_OK(dag.AddEdge(1, 2));
  BayesianNetwork network(schema, dag);
  // Pr(A=1) = 0.3.
  network.mutable_cpt(0).SetProb(0, 0, 0.7);
  network.mutable_cpt(0).SetProb(0, 1, 0.3);
  // Pr(B=1 | A=0) = 0.2; Pr(B=1 | A=1) = 0.8.
  network.mutable_cpt(1).SetProb(0, 0, 0.8);
  network.mutable_cpt(1).SetProb(0, 1, 0.2);
  network.mutable_cpt(1).SetProb(1, 0, 0.2);
  network.mutable_cpt(1).SetProb(1, 1, 0.8);
  // Pr(C=1 | B=0) = 0.1; Pr(C=1 | B=1) = 0.6.
  network.mutable_cpt(2).SetProb(0, 0, 0.9);
  network.mutable_cpt(2).SetProb(0, 1, 0.1);
  network.mutable_cpt(2).SetProb(1, 0, 0.4);
  network.mutable_cpt(2).SetProb(1, 1, 0.6);
  return network;
}

TEST(BayesNetTest, JointProbabilityIsFactorProduct) {
  BayesianNetwork network = ChainNetwork();
  // Pr(A=1,B=1,C=1) = 0.3 * 0.8 * 0.6.
  EXPECT_NEAR(network.JointProbability({1, 1, 1}), 0.144, 1e-12);
  EXPECT_NEAR(network.JointProbability({0, 0, 0}), 0.7 * 0.8 * 0.9, 1e-12);
}

TEST(BayesNetTest, JointSumsToOne) {
  BayesianNetwork network = ChainNetwork();
  double total = 0;
  for (data::ValueCode a = 0; a < 2; ++a) {
    for (data::ValueCode b = 0; b < 2; ++b) {
      for (data::ValueCode c = 0; c < 2; ++c) {
        total += network.JointProbability({a, b, c});
      }
    }
  }
  EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST(BayesNetTest, ForwardSamplingMatchesMarginals) {
  BayesianNetwork network = ChainNetwork();
  Rng rng(17);
  int a1 = 0, b1 = 0;
  const int trials = 20000;
  for (int i = 0; i < trials; ++i) {
    auto tuple = network.SampleTuple(rng);
    a1 += tuple[0];
    b1 += tuple[1];
  }
  EXPECT_NEAR(a1 / static_cast<double>(trials), 0.3, 0.02);
  // Pr(B=1) = 0.7*0.2 + 0.3*0.8 = 0.38.
  EXPECT_NEAR(b1 / static_cast<double>(trials), 0.38, 0.02);
}

TEST(BayesNetTest, SampleTableWeightsScaleToPopulation) {
  BayesianNetwork network = ChainNetwork();
  Rng rng(5);
  data::Table table = network.SampleTable(100, 5000.0, rng);
  EXPECT_EQ(table.num_rows(), 100u);
  EXPECT_NEAR(table.TotalWeight(), 5000.0, 1e-9);
  EXPECT_DOUBLE_EQ(table.weight(0), 50.0);
}

TEST(BayesNetTest, SampleTableMatchesSampleTupleDrawForDraw) {
  // SampleTable fills its columns in place; it must still give
  // SampleTuple's rows and move the Rng exactly rows · num_nodes() steps
  // on (parallel generation jumps ahead by that count).
  BayesianNetwork network = ChainNetwork();
  const size_t rows = 1000;
  Rng by_table(9);
  Rng by_tuple(9);
  data::Table table = network.SampleTable(rows, 10.0, by_table);
  ASSERT_EQ(table.num_rows(), rows);
  for (size_t r = 0; r < rows; ++r) {
    const std::vector<data::ValueCode> tuple = network.SampleTuple(by_tuple);
    for (size_t v = 0; v < network.num_nodes(); ++v) {
      ASSERT_EQ(table.Get(r, v), tuple[v]) << "row " << r << " node " << v;
    }
  }
  Rng jumped(9);
  jumped.engine().discard(rows * network.num_nodes());
  EXPECT_TRUE(by_table.engine() == by_tuple.engine());
  EXPECT_TRUE(by_table.engine() == jumped.engine());
}

TEST(InferenceTest, FullEvidenceEqualsJoint) {
  BayesianNetwork network = ChainNetwork();
  VariableElimination ve(&network);
  auto p = ve.Probability({{0, 1}, {1, 1}, {2, 1}});
  ASSERT_TRUE(p.ok());
  EXPECT_NEAR(*p, 0.144, 1e-12);
}

TEST(InferenceTest, PartialEvidenceMarginalizes) {
  BayesianNetwork network = ChainNetwork();
  VariableElimination ve(&network);
  // Pr(B=1) = 0.38; Pr(C=1) = 0.62*0.1 + 0.38*0.6 = 0.29.
  auto pb = ve.Probability({{1, 1}});
  ASSERT_TRUE(pb.ok());
  EXPECT_NEAR(*pb, 0.38, 1e-12);
  auto pc = ve.Probability({{2, 1}});
  ASSERT_TRUE(pc.ok());
  EXPECT_NEAR(*pc, 0.29, 1e-12);
}

TEST(InferenceTest, NonAdjacentPair) {
  BayesianNetwork network = ChainNetwork();
  VariableElimination ve(&network);
  // Pr(A=1, C=1) = 0.3 * (0.8*0.6 + 0.2*0.1) = 0.3*0.5 = 0.15.
  auto p = ve.Probability({{0, 1}, {2, 1}});
  ASSERT_TRUE(p.ok());
  EXPECT_NEAR(*p, 0.15, 1e-12);
}

TEST(InferenceTest, MarginalDistribution) {
  BayesianNetwork network = ChainNetwork();
  VariableElimination ve(&network);
  auto marginal = ve.Marginal({1});
  ASSERT_TRUE(marginal.ok());
  EXPECT_NEAR(marginal->Mass({1}), 0.38, 1e-12);
  EXPECT_NEAR(marginal->Mass({0}), 0.62, 1e-12);
}

TEST(InferenceTest, ConditionalMarginal) {
  BayesianNetwork network = ChainNetwork();
  VariableElimination ve(&network);
  auto marginal = ve.Marginal({2}, {{1, 1}});
  ASSERT_TRUE(marginal.ok());
  EXPECT_NEAR(marginal->Mass({1}), 0.6, 1e-12);
}

TEST(InferenceTest, JointMarginalOverTwoTargets) {
  BayesianNetwork network = ChainNetwork();
  VariableElimination ve(&network);
  auto marginal = ve.Marginal({0, 2});
  ASSERT_TRUE(marginal.ok());
  EXPECT_NEAR(marginal->Mass({1, 1}), 0.15, 1e-12);
  EXPECT_NEAR(marginal->TotalMass(), 1.0, 1e-9);
}

TEST(InferenceTest, RejectsBadEvidence) {
  BayesianNetwork network = ChainNetwork();
  VariableElimination ve(&network);
  EXPECT_FALSE(ve.Probability({{9, 0}}).ok());
  EXPECT_FALSE(ve.Probability({{0, 9}}).ok());
  EXPECT_FALSE(ve.Marginal({0}, {{0, 1}}).ok());  // overlap
}

TEST(ChildNetworkTest, StructureMatchesPublishedShape) {
  BayesianNetwork child = MakeChildNetwork();
  EXPECT_EQ(child.num_nodes(), 20u);
  EXPECT_EQ(child.dag().num_edges(), 25u);
  auto disease = child.schema()->AttributeIndex("Disease");
  auto asphyxia = child.schema()->AttributeIndex("BirthAsphyxia");
  ASSERT_TRUE(disease.ok() && asphyxia.ok());
  EXPECT_TRUE(child.dag().HasEdge(*asphyxia, *disease));
  EXPECT_EQ(child.dag().Children(*disease).size(), 7u);
}

TEST(ChildNetworkTest, CptsAreValidAndDeterministic) {
  BayesianNetwork a = MakeChildNetwork(7);
  BayesianNetwork b = MakeChildNetwork(7);
  for (size_t v = 0; v < a.num_nodes(); ++v) {
    EXPECT_TRUE(a.cpt(v).RowsAreSimplexes());
    EXPECT_EQ(a.cpt(v).flat(), b.cpt(v).flat());
  }
}

TEST(ChildNetworkTest, InferenceRunsOnFullNetwork) {
  BayesianNetwork child = MakeChildNetwork();
  VariableElimination ve(&child);
  auto disease = child.schema()->AttributeIndex("Disease");
  ASSERT_TRUE(disease.ok());
  auto marginal = ve.Marginal({*disease});
  ASSERT_TRUE(marginal.ok());
  EXPECT_NEAR(marginal->TotalMass(), 1.0, 1e-9);
  EXPECT_EQ(marginal->num_groups(), 6u);
}

/// The hash-map variable elimination the dense one replaced, kept as the
/// differential reference: sparse factors keyed by value tuples, evidence
/// applied while building the CPT factors, min-entries elimination order,
/// no pruning of barren nodes.
class SparseVariableElimination {
 public:
  explicit SparseVariableElimination(const BayesianNetwork* network)
      : network_(network) {}

  double Probability(const Evidence& evidence) const {
    if (evidence.empty()) return 1.0;
    double p = 0;
    for (const auto& entry : Eliminate({}, evidence).values) p += entry.second;
    return p;
  }

  /// Normalized joint over `targets` given `evidence`.
  stats::FreqTable Marginal(const std::vector<size_t>& targets,
                            const Evidence& evidence = {}) const {
    Factor f = Eliminate(targets, evidence);
    std::vector<size_t> sorted = targets;
    std::sort(sorted.begin(), sorted.end());
    std::vector<size_t> pos(targets.size());
    for (size_t i = 0; i < targets.size(); ++i) {
      pos[i] = static_cast<size_t>(
          std::lower_bound(sorted.begin(), sorted.end(), targets[i]) -
          sorted.begin());
    }
    double total = 0;
    for (const auto& entry : f.values) total += entry.second;
    stats::FreqTable out(targets);
    for (const auto& [key, v] : f.values) {
      data::TupleKey reordered(targets.size());
      for (size_t i = 0; i < targets.size(); ++i) reordered[i] = key[pos[i]];
      out.Add(reordered, v / total);
    }
    return out;
  }

 private:
  struct Factor {
    std::vector<size_t> attrs;  // sorted
    std::unordered_map<data::TupleKey, double, data::TupleKeyHash> values;

    bool Contains(size_t attr) const {
      return std::binary_search(attrs.begin(), attrs.end(), attr);
    }
  };

  Factor CptFactor(size_t node, const Evidence& evidence) const {
    const Cpt& cpt = network_->cpt(node);
    std::vector<size_t> scope = cpt.parents();
    scope.push_back(node);
    std::sort(scope.begin(), scope.end());
    Factor f;
    for (size_t a : scope) {
      if (evidence.count(a) == 0) f.attrs.push_back(a);
    }
    for (size_t cfg = 0; cfg < cpt.num_configs(); ++cfg) {
      const data::TupleKey parent_codes = cpt.DecodeConfig(cfg);
      bool parents_ok = true;
      for (size_t i = 0; i < cpt.parents().size(); ++i) {
        auto it = evidence.find(cpt.parents()[i]);
        if (it != evidence.end() && it->second != parent_codes[i]) {
          parents_ok = false;
          break;
        }
      }
      if (!parents_ok) continue;
      auto child_ev = evidence.find(node);
      const size_t j_begin = child_ev == evidence.end()
                                 ? 0
                                 : static_cast<size_t>(child_ev->second);
      const size_t j_end = child_ev == evidence.end()
                               ? cpt.child_size()
                               : static_cast<size_t>(child_ev->second) + 1;
      for (size_t j = j_begin; j < j_end; ++j) {
        const double p = cpt.Prob(cfg, static_cast<data::ValueCode>(j));
        if (p == 0.0) continue;
        data::TupleKey key;
        for (size_t a : f.attrs) {
          if (a == node) {
            key.push_back(static_cast<data::ValueCode>(j));
          } else {
            auto pit =
                std::find(cpt.parents().begin(), cpt.parents().end(), a);
            key.push_back(parent_codes[static_cast<size_t>(
                pit - cpt.parents().begin())]);
          }
        }
        f.values[key] += p;
      }
    }
    return f;
  }

  static Factor Multiply(const Factor& a, const Factor& b) {
    Factor out;
    std::set_union(a.attrs.begin(), a.attrs.end(), b.attrs.begin(),
                   b.attrs.end(), std::back_inserter(out.attrs));
    auto position = [&](size_t attr) {
      return static_cast<size_t>(
          std::lower_bound(out.attrs.begin(), out.attrs.end(), attr) -
          out.attrs.begin());
    };
    for (const auto& [akey, aval] : a.values) {
      for (const auto& [bkey, bval] : b.values) {
        data::TupleKey key(out.attrs.size(), -1);
        bool agree = true;
        for (size_t i = 0; i < a.attrs.size(); ++i) {
          key[position(a.attrs[i])] = akey[i];
        }
        for (size_t i = 0; i < b.attrs.size() && agree; ++i) {
          data::ValueCode& slot = key[position(b.attrs[i])];
          if (slot != -1 && slot != bkey[i]) agree = false;
          slot = bkey[i];
        }
        if (agree) out.values[key] += aval * bval;
      }
    }
    return out;
  }

  static Factor SumOut(const Factor& f, size_t attr) {
    Factor out;
    size_t pos = 0;
    for (size_t i = 0; i < f.attrs.size(); ++i) {
      if (f.attrs[i] == attr) {
        pos = i;
      } else {
        out.attrs.push_back(f.attrs[i]);
      }
    }
    for (const auto& [key, v] : f.values) {
      data::TupleKey sub;
      for (size_t i = 0; i < key.size(); ++i) {
        if (i != pos) sub.push_back(key[i]);
      }
      out.values[sub] += v;
    }
    return out;
  }

  Factor Eliminate(const std::vector<size_t>& targets,
                   const Evidence& evidence) const {
    std::vector<Factor> factors;
    for (size_t v = 0; v < network_->num_nodes(); ++v) {
      factors.push_back(CptFactor(v, evidence));
    }
    std::set<size_t> keep(targets.begin(), targets.end());
    std::set<size_t> to_eliminate;
    for (size_t v = 0; v < network_->num_nodes(); ++v) {
      if (keep.count(v) == 0 && evidence.count(v) == 0) to_eliminate.insert(v);
    }
    while (!to_eliminate.empty()) {
      size_t best_var = 0;
      size_t best_cost = SIZE_MAX;
      for (size_t var : to_eliminate) {
        size_t cost = 0;
        for (const Factor& f : factors) {
          if (f.Contains(var)) cost += f.values.size();
        }
        if (cost < best_cost) {
          best_cost = cost;
          best_var = var;
        }
      }
      std::vector<Factor> remaining;
      Factor combined;
      bool have = false;
      for (Factor& f : factors) {
        if (!f.Contains(best_var)) {
          remaining.push_back(std::move(f));
        } else if (!have) {
          combined = std::move(f);
          have = true;
        } else {
          combined = Multiply(combined, f);
        }
      }
      if (have) remaining.push_back(SumOut(combined, best_var));
      factors = std::move(remaining);
      to_eliminate.erase(best_var);
    }
    Factor result;
    result.values[{}] = 1.0;
    for (const Factor& f : factors) result = Multiply(result, f);
    return result;
  }

  const BayesianNetwork* network_;
};

/// The BN learned from Example 4.2's data: the 4-row sample of the
/// 10-flight population with aggregates {date} and {o_st, d_st}.
BayesianNetwork Example42Network() {
  auto schema = std::make_shared<data::Schema>();
  schema->AddAttribute("date", {"01", "02"});
  schema->AddAttribute("o_st", {"FL", "NC", "NY"});
  schema->AddAttribute("d_st", {"FL", "NC", "NY"});
  data::Table population(schema);
  const char* prows[][3] = {
      {"01", "FL", "FL"}, {"01", "FL", "FL"}, {"02", "FL", "NY"},
      {"01", "NC", "FL"}, {"02", "NC", "NY"}, {"02", "NC", "NY"},
      {"02", "NC", "NY"}, {"01", "NY", "FL"}, {"01", "NY", "NC"},
      {"02", "NY", "NY"}};
  for (const auto& r : prows) population.AppendRowLabels({r[0], r[1], r[2]});
  data::Table sample(schema);
  const char* srows[][3] = {{"01", "FL", "FL"},
                            {"01", "FL", "FL"},
                            {"02", "NC", "NY"},
                            {"01", "NY", "NC"}};
  for (const auto& r : srows) sample.AppendRowLabels({r[0], r[1], r[2]});
  aggregate::AggregateSet aggregates(schema);
  aggregates.Add(aggregate::ComputeAggregate(population, {0}));
  aggregates.Add(aggregate::ComputeAggregate(population, {1, 2}));
  auto network = LearnBayesNet(schema, &sample, &aggregates, {});
  THEMIS_CHECK(network.ok()) << network.status().ToString();
  return std::move(network).value();
}

/// The BN learned from a flights Corners sample with one 2-D and two 1-D
/// aggregates, as the benchmark's configuration in small.
BayesianNetwork FlightsCornersNetwork() {
  const data::Table population = workload::GenerateFlights({20000, 5});
  auto sample = workload::MakeFlightsSample(population, "Corners", 0.1, 6);
  THEMIS_CHECK(sample.ok());
  aggregate::AggregateSet aggregates(population.schema());
  aggregates.Add(aggregate::ComputeAggregate(
      population,
      {workload::FlightsAttrs::kOrigin, workload::FlightsAttrs::kDest}));
  aggregates.Add(
      aggregate::ComputeAggregate(population, {workload::FlightsAttrs::kDate}));
  aggregates.Add(aggregate::ComputeAggregate(
      population, {workload::FlightsAttrs::kDistance}));
  auto network =
      LearnBayesNet(population.schema(), &*sample, &aggregates, {});
  THEMIS_CHECK(network.ok()) << network.status().ToString();
  return std::move(network).value();
}

/// A random network: each node takes up to three earlier nodes as parents
/// and a domain of 2-5 values; CPT rows are random distributions with some
/// exact zeros.
BayesianNetwork RandomNetwork(uint64_t seed, size_t nodes) {
  Rng rng(seed);
  auto schema = std::make_shared<data::Schema>();
  for (size_t v = 0; v < nodes; ++v) {
    std::vector<std::string> labels;
    const int64_t size = rng.UniformInt(2, 5);
    for (int64_t i = 0; i < size; ++i) labels.push_back(std::to_string(i));
    std::string name = "x";
    name += std::to_string(v);
    schema->AddAttribute(name, labels);
  }
  Dag dag(nodes);
  for (size_t v = 1; v < nodes; ++v) {
    const int64_t parents = rng.UniformInt(0, std::min<int64_t>(3, v));
    for (int64_t i = 0; i < parents; ++i) {
      const auto p = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(v) - 1));
      if (!dag.HasEdge(p, v)) THEMIS_CHECK_OK(dag.AddEdge(p, v));
    }
  }
  BayesianNetwork network(schema, dag);
  for (size_t v = 0; v < nodes; ++v) {
    for (double& p : network.mutable_cpt(v).mutable_flat()) {
      p = rng.UniformDouble() < 0.1 ? 0.0 : rng.UniformDouble();
    }
    network.mutable_cpt(v).NormalizeRows();
  }
  return network;
}

void ExpectSameDistribution(const stats::FreqTable& got,
                            const stats::FreqTable& want,
                            const std::string& what) {
  EXPECT_EQ(got.attrs(), want.attrs()) << what;
  ASSERT_EQ(got.num_groups(), want.num_groups()) << what;
  for (const auto& [key, mass] : want.entries()) {
    EXPECT_NEAR(got.Mass(key), mass, 1e-12 * mass) << what;
  }
}

/// Dense == sparse on points and marginals, with and without evidence,
/// over seeded random attribute subsets of `network`.
void ExpectDenseMatchesSparse(const BayesianNetwork& network, uint64_t seed) {
  VariableElimination dense(&network);
  SparseVariableElimination sparse(&network);
  const size_t n = network.num_nodes();
  Rng rng(seed);
  auto random_subset = [&](size_t size) {
    std::vector<size_t> attrs(n);
    for (size_t v = 0; v < n; ++v) attrs[v] = v;
    std::shuffle(attrs.begin(), attrs.end(), rng.engine());
    attrs.resize(size);
    return attrs;
  };
  auto random_evidence = [&](const std::vector<size_t>& attrs) {
    Evidence evidence;
    for (size_t a : attrs) {
      evidence[a] = static_cast<data::ValueCode>(rng.UniformInt(
          0, static_cast<int64_t>(network.cpt(a).child_size()) - 1));
    }
    return evidence;
  };
  for (int round = 0; round < 20; ++round) {
    // A point over 1..n attributes.
    const auto point_attrs = random_subset(
        static_cast<size_t>(rng.UniformInt(1, static_cast<int64_t>(n))));
    const Evidence point = random_evidence(point_attrs);
    auto p = dense.Probability(point);
    ASSERT_TRUE(p.ok()) << p.status().ToString();
    const double want = sparse.Probability(point);
    EXPECT_NEAR(*p, want, 1e-12 * want) << "round " << round;

    // A marginal over 1..3 targets in random order, then given evidence
    // on up to two other attributes.
    const size_t num_targets = static_cast<size_t>(
        rng.UniformInt(1, std::min<int64_t>(3, static_cast<int64_t>(n) - 1)));
    const size_t num_evidence = static_cast<size_t>(rng.UniformInt(
        1, std::min<int64_t>(2, static_cast<int64_t>(n - num_targets))));
    auto attrs = random_subset(num_targets + num_evidence);
    const std::vector<size_t> targets(attrs.begin(),
                                      attrs.begin() + num_targets);
    const Evidence evidence = random_evidence(
        std::vector<size_t>(attrs.begin() + num_targets, attrs.end()));
    auto marginal = dense.Marginal(targets);
    ASSERT_TRUE(marginal.ok());
    ExpectSameDistribution(*marginal, sparse.Marginal(targets),
                           "round " + std::to_string(round));
    if (sparse.Probability(evidence) > 0) {
      auto conditional = dense.Marginal(targets, evidence);
      ASSERT_TRUE(conditional.ok());
      ExpectSameDistribution(*conditional, sparse.Marginal(targets, evidence),
                             "conditional, round " + std::to_string(round));
    }
  }
}

TEST(DenseInferenceTest, MatchesSparseOnExample42) {
  const BayesianNetwork network = Example42Network();
  ExpectDenseMatchesSparse(network, 1);
}

TEST(DenseInferenceTest, MatchesSparseOnFlightsCorners) {
  const BayesianNetwork network = FlightsCornersNetwork();
  ASSERT_GT(network.dag().num_edges(), 0u);
  ExpectDenseMatchesSparse(network, 2);
}

TEST(DenseInferenceTest, MatchesSparseOnRandomNetworks) {
  for (uint64_t seed = 10; seed < 20; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const BayesianNetwork network = RandomNetwork(seed, 7);
    ExpectDenseMatchesSparse(network, seed);
  }
}

TEST(DenseInferenceTest, JointTableRowsAreNonzeroCellsInRowMajorOrder) {
  // Chain A -> B -> C: Pr(A, C) has four nonzero cells; row r holds cell
  // (r / 2, r % 2), weighing scale · Pr, and B's column stays 0.
  BayesianNetwork network = ChainNetwork();
  VariableElimination ve(&network);
  auto table = ve.JointTable({2, 0, 2}, 10.0);
  ASSERT_TRUE(table.ok());
  ASSERT_EQ(table->num_rows(), 4u);
  for (size_t r = 0; r < 4; ++r) {
    EXPECT_EQ(table->Get(r, 0), static_cast<data::ValueCode>(r / 2));
    EXPECT_EQ(table->Get(r, 1), 0);
    EXPECT_EQ(table->Get(r, 2), static_cast<data::ValueCode>(r % 2));
  }
  EXPECT_NEAR(table->weight(3), 10.0 * 0.15, 1e-12);  // Pr(A=1, C=1)
  EXPECT_NEAR(table->TotalWeight(), 10.0, 1e-12);
  auto empty = ve.JointTable({}, 10.0);
  ASSERT_TRUE(empty.ok());
  ASSERT_EQ(empty->num_rows(), 1u);
  EXPECT_EQ(empty->weight(0), 10.0);
}

TEST(DenseInferenceTest, FactorsPastTheBoundFailBeforeAllocating) {
  // Five independent 100-value attributes: the joint over four of them
  // has 10^8 cells, past kMaxFactorCells; over three it has 10^6.
  auto schema = std::make_shared<data::Schema>();
  std::vector<std::string> labels;
  for (int i = 0; i < 100; ++i) labels.push_back(std::to_string(i));
  for (char name : std::string("abcde")) {
    schema->AddAttribute(std::string(1, name), labels);
  }
  BayesianNetwork network(schema, Dag(5));
  static_assert(100 * 100 * 100 <= kMaxFactorCells);
  static_assert(100 * 100 * 100 * 100 > kMaxFactorCells);
  VariableElimination ve(&network);
  auto wide = ve.JointTable({0, 1, 2, 3}, 1.0);
  ASSERT_FALSE(wide.ok());
  EXPECT_EQ(wide.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(ve.Marginal({3, 1, 0, 2}).status().code(),
            StatusCode::kResourceExhausted);
  InferenceEngine engine(&network);
  EXPECT_EQ(engine.MarginalTable({0, 1, 2, 3}, 1e6).status().code(),
            StatusCode::kResourceExhausted);
  auto narrow = ve.JointTable({0, 1, 2}, 1.0);
  ASSERT_TRUE(narrow.ok());
  ASSERT_EQ(narrow->num_rows(), 1000000u);
  EXPECT_NEAR(narrow->weight(0), 1e-6, 1e-9 * 1e-6);
  // Points stay small whatever the width: evidence leaves the scope.
  auto point = ve.Probability({{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}});
  ASSERT_TRUE(point.ok());
  EXPECT_NEAR(*point, 1e-10, 1e-9 * 1e-10);
}

void ExpectBitwiseSameTable(const data::Table& got, const data::Table& want) {
  EXPECT_EQ(got.schema(), want.schema());
  ASSERT_EQ(got.num_rows(), want.num_rows());
  for (size_t a = 0; a < want.num_attributes(); ++a) {
    EXPECT_EQ(got.column(a), want.column(a)) << "attribute " << a;
  }
  EXPECT_EQ(got.weights(), want.weights());
}

TEST(DenseInferenceTest, MemoizedMarginalTableEqualsFreshBitwise) {
  const BayesianNetwork network = FlightsCornersNetwork();
  const double population = 20000;
  InferenceEngine cached(&network);
  InferenceEngine::Options off;
  off.enable_cache = false;
  InferenceEngine uncached(&network, off);
  VariableElimination ve(&network);
  for (const std::vector<size_t>& attrs :
       {std::vector<size_t>{1}, {2, 0}, {4, 1, 2}, {0, 3, 3}}) {
    auto first = cached.MarginalTable(attrs, population);
    auto hit = cached.MarginalTable(attrs, population);
    auto fresh = uncached.MarginalTable(attrs, population);
    ASSERT_TRUE(first.ok() && hit.ok() && fresh.ok());
    EXPECT_EQ(hit->get(), first->get());  // served from the memo
    ExpectBitwiseSameTable(**hit, **fresh);

    // One row per nonzero cell, weighing N·Pr(cell); other columns are 0.
    std::vector<size_t> sorted = attrs;
    std::sort(sorted.begin(), sorted.end());
    sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
    auto marginal = ve.Marginal(sorted);
    ASSERT_TRUE(marginal.ok());
    const data::Table& table = **fresh;
    ASSERT_EQ(table.num_rows(), marginal->num_groups());
    for (size_t r = 0; r < table.num_rows(); ++r) {
      EXPECT_EQ(table.weight(r),
                population * marginal->Mass(table.KeyFor(r, sorted)));
      for (size_t a = 0; a < table.num_attributes(); ++a) {
        if (!std::binary_search(sorted.begin(), sorted.end(), a)) {
          ASSERT_EQ(table.Get(r, a), 0);
        }
      }
    }
  }
  const InferenceCacheStats stats = cached.cache_stats();
  EXPECT_EQ(stats.hits, 4u);
  EXPECT_EQ(stats.misses, 4u);
  EXPECT_EQ(uncached.cache_stats().entries, 0u);
}

}  // namespace
}  // namespace themis::bn
