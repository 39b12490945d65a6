#include "bn/parameter_learning.h"

#include <algorithm>
#include <set>

#include "bn/inference.h"
#include "util/logging.h"

namespace themis::bn {

namespace {

/// Flat variable index of θ_{node, j, k}: config-major like Cpt storage.
size_t VarIndex(const Cpt& cpt, size_t config, size_t j) {
  return config * cpt.child_size() + j;
}

/// Family counts from the (weighted) sample for the node, flattened to the
/// CPT layout. Missing combinations are zero.
linalg::Vector FamilyCountsFromSample(const data::Table& sample,
                                      const Cpt& cpt) {
  linalg::Vector counts(cpt.num_configs() * cpt.child_size(), 0.0);
  const auto& child_col = sample.column(cpt.child());
  std::vector<const std::vector<data::ValueCode>*> parent_cols;
  for (size_t p : cpt.parents()) parent_cols.push_back(&sample.column(p));
  data::TupleKey parent_codes(cpt.parents().size());
  for (size_t r = 0; r < sample.num_rows(); ++r) {
    bool ok = true;
    for (size_t i = 0; i < parent_cols.size(); ++i) {
      parent_codes[i] = (*parent_cols[i])[r];
      if (parent_codes[i] < 0) {
        ok = false;
        break;
      }
    }
    if (!ok || child_col[r] < 0) continue;
    const size_t cfg = cpt.ConfigIndex(parent_codes);
    counts[VarIndex(cpt, cfg, static_cast<size_t>(child_col[r]))] +=
        sample.weight(r);
  }
  return counts;
}

/// Plain per-family MLE (kSampleOnly): empirical rows, uniform where the
/// parent configuration was never observed.
void MleFromCounts(Cpt& cpt, const linalg::Vector& counts) {
  for (size_t cfg = 0; cfg < cpt.num_configs(); ++cfg) {
    double total = 0;
    for (size_t j = 0; j < cpt.child_size(); ++j) {
      total += counts[VarIndex(cpt, cfg, j)];
    }
    for (size_t j = 0; j < cpt.child_size(); ++j) {
      const double p =
          total > 0 ? counts[VarIndex(cpt, cfg, j)] / total
                    : 1.0 / static_cast<double>(cpt.child_size());
      cpt.SetProb(cfg, static_cast<data::ValueCode>(j), p);
    }
  }
}

}  // namespace

Status LearnParameters(BayesianNetwork& network, const data::Table* sample,
                       const aggregate::AggregateSet* aggregates,
                       const ParameterLearnOptions& options,
                       ParameterLearnStats* stats) {
  ParameterLearnStats local_stats;
  const bool use_aggregates = options.source == ParameterSource::kBoth &&
                              aggregates != nullptr && !aggregates->empty();
  if (sample == nullptr && !use_aggregates) {
    return Status::InvalidArgument(
        "LearnParameters: need a sample or aggregates");
  }

  const std::vector<size_t> topo = network.dag().TopologicalOrder();
  for (size_t node : topo) {
    Cpt& cpt = network.mutable_cpt(node);
    linalg::Vector counts =
        sample != nullptr
            ? FamilyCountsFromSample(*sample, cpt)
            : linalg::Vector(cpt.num_configs() * cpt.child_size(), 0.0);

    if (!use_aggregates) {
      MleFromCounts(cpt, counts);
      continue;
    }

    // Build the constrained MLE problem for this factor.
    solver::ConstrainedMleProblem problem;
    problem.counts = counts;
    problem.groups.reserve(cpt.num_configs());
    for (size_t cfg = 0; cfg < cpt.num_configs(); ++cfg) {
      solver::SimplexGroup g;
      g.vars.reserve(cpt.child_size());
      for (size_t j = 0; j < cpt.child_size(); ++j) {
        g.vars.push_back(VarIndex(cpt, cfg, j));
      }
      problem.groups.push_back(std::move(g));
    }

    // The parents' joint distribution Pr(Pa(X_i) = k): ancestors are
    // already solved (topological order) and unsolved descendants
    // marginalize to one, so exact inference on the partially-solved
    // network is correct. These probabilities become the constant
    // coefficients of the linear constraints (Sec 5.2).
    stats::FreqTable parent_joint;
    if (!cpt.parents().empty()) {
      auto pj = VariableElimination(&network).Marginal(cpt.parents());
      if (!pj.ok()) return pj.status();
      parent_joint = std::move(pj).value();
    }

    // Family attribute set {X_i} ∪ Pa(X_i).
    std::vector<size_t> family = cpt.parents();
    family.push_back(node);
    std::sort(family.begin(), family.end());

    // Collect constraints: every aggregate mentioning the node contributes
    // on the intersection of its γ with the family (marginalized), each
    // distinct intersection used once (smallest-dimension aggregate wins —
    // least marginalization, most faithful counts).
    std::set<std::vector<size_t>> used_projections;
    std::vector<const aggregate::AggregateSpec*> specs;
    for (const auto& spec : aggregates->specs()) specs.push_back(&spec);
    std::sort(specs.begin(), specs.end(),
              [](const auto* a, const auto* b) {
                return a->dimension() < b->dimension();
              });

    for (const auto* spec : specs) {
      if (!std::binary_search(spec->attrs.begin(), spec->attrs.end(), node)) {
        continue;
      }
      std::vector<size_t> projection;
      std::set_intersection(spec->attrs.begin(), spec->attrs.end(),
                            family.begin(), family.end(),
                            std::back_inserter(projection));
      // Must still contain the child to constrain this factor.
      if (!std::binary_search(projection.begin(), projection.end(), node)) {
        continue;
      }
      if (!used_projections.insert(projection).second) continue;

      stats::FreqTable marg = spec->ToFreqTable().MarginalizeTo(projection);
      const double total = marg.TotalMass();
      if (total <= 0) continue;

      // Positions: node within projection; constrained parents (Q) within
      // projection and within the cpt's parent list.
      const size_t node_pos = static_cast<size_t>(
          std::lower_bound(projection.begin(), projection.end(), node) -
          projection.begin());
      std::vector<size_t> q_pos_in_proj;
      std::vector<size_t> q_pos_in_parents;
      for (size_t i = 0; i < projection.size(); ++i) {
        if (projection[i] == node) continue;
        q_pos_in_proj.push_back(i);
        auto pit = std::find(cpt.parents().begin(), cpt.parents().end(),
                             projection[i]);
        THEMIS_CHECK(pit != cpt.parents().end());
        q_pos_in_parents.push_back(
            static_cast<size_t>(pit - cpt.parents().begin()));
      }

      for (const auto& [key, c] : marg.entries()) {
        solver::LinearConstraint constraint;
        constraint.target = c / total;
        const data::ValueCode j0 = key[node_pos];
        if (j0 < 0 || static_cast<size_t>(j0) >= cpt.child_size()) continue;
        if (cpt.parents().empty()) {
          constraint.terms.emplace_back(
              VarIndex(cpt, 0, static_cast<size_t>(j0)), 1.0);
        } else {
          for (size_t cfg = 0; cfg < cpt.num_configs(); ++cfg) {
            const data::TupleKey parent_codes = cpt.DecodeConfig(cfg);
            bool match = true;
            for (size_t qi = 0; qi < q_pos_in_proj.size(); ++qi) {
              if (parent_codes[q_pos_in_parents[qi]] !=
                  key[q_pos_in_proj[qi]]) {
                match = false;
                break;
              }
            }
            if (!match) continue;
            const double m_k = parent_joint.Mass(parent_codes);
            if (m_k <= 0) continue;
            constraint.terms.emplace_back(
                VarIndex(cpt, cfg, static_cast<size_t>(j0)), m_k);
          }
        }
        if (!constraint.terms.empty()) {
          problem.constraints.push_back(std::move(constraint));
        }
      }
    }

    if (problem.constraints.empty() && sample != nullptr) {
      // No aggregate touches this factor: closed-form MLE (Example 5.1's
      // "DT is solved in closed form").
      MleFromCounts(cpt, counts);
      continue;
    }

    auto solution = solver::SolveConstrainedMle(problem, options.solver);
    if (!solution.ok()) return solution.status();
    local_stats.constrained_nodes += 1;
    local_stats.total_constraints +=
        static_cast<int>(problem.constraints.size());
    local_stats.total_solver_iterations += solution->iterations;
    local_stats.max_violation =
        std::max(local_stats.max_violation, solution->max_violation);
    // Write θ back; clamp the tiny negatives the approximate solver can
    // produce, as the paper does (their footnote 7), then re-normalize.
    for (size_t cfg = 0; cfg < cpt.num_configs(); ++cfg) {
      for (size_t j = 0; j < cpt.child_size(); ++j) {
        cpt.SetProb(cfg, static_cast<data::ValueCode>(j),
                    std::max(0.0, solution->theta[VarIndex(cpt, cfg, j)]));
      }
    }
    cpt.NormalizeRows();
  }

  if (stats != nullptr) *stats = local_stats;
  return Status::OK();
}

}  // namespace themis::bn
