#include <gtest/gtest.h>

#include <cmath>

#include "bn/bayes_net.h"
#include "bn/child_network.h"
#include "bn/cpt.h"
#include "bn/dag.h"
#include "bn/inference.h"

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

}  // namespace
}  // namespace themis::bn
