#include "bn/inference.h"

#include <algorithm>
#include <string>

namespace themis::bn {

namespace {

/// Dense factor: a non-negative array over the cross product of `vars`'
/// domains, row-major with the last variable varying fastest.
struct Factor {
  std::vector<size_t> vars;  // sorted ascending
  std::vector<double> values;
};

bool Contains(const Factor& f, size_t var) {
  return std::binary_search(f.vars.begin(), f.vars.end(), var);
}

/// Domain sizes of `vars`; `domain` holds every node's.
std::vector<size_t> SizesOf(const std::vector<size_t>& vars,
                            const std::vector<size_t>& domain) {
  std::vector<size_t> sizes;
  for (size_t v : vars) sizes.push_back(domain[v]);
  return sizes;
}

/// Π sizes, saturating just past kMaxFactorCells so oversized scopes
/// cannot overflow.
size_t Cells(const std::vector<size_t>& sizes) {
  size_t cells = 1;
  for (size_t s : sizes) {
    cells = cells > (kMaxFactorCells + 1) / s ? kMaxFactorCells + 1
                                              : cells * s;
  }
  return cells;
}

std::vector<size_t> RowMajorStrides(const std::vector<size_t>& sizes) {
  std::vector<size_t> strides(sizes.size());
  size_t stride = 1;
  for (size_t i = sizes.size(); i-- > 0;) {
    strides[i] = stride;
    stride *= sizes[i];
  }
  return strides;
}

/// Sorted union of the factors' scopes.
std::vector<size_t> UnionVars(const std::vector<const Factor*>& factors) {
  std::vector<size_t> vars;
  for (const Factor* f : factors) {
    std::vector<size_t> merged;
    std::set_union(vars.begin(), vars.end(), f->vars.begin(), f->vars.end(),
                   std::back_inserter(merged));
    vars = std::move(merged);
  }
  return vars;
}

/// One operand of Accumulate: `data` read at base + Σ counter[j]·strides[j]
/// over the loop scope (stride 0 where the operand lacks a variable).
struct StridedInput {
  const double* data;
  size_t base;
  std::vector<size_t> strides;
};

/// For every cell `counter` of the cross product of `sizes`, in row-major
/// order: out[Σ counter[j]·out_strides[j]] += Π of the inputs at
/// `counter`. A zero out-stride sums that variable out; the fixed loop
/// order fixes every float sum.
void Accumulate(const std::vector<size_t>& sizes,
                const std::vector<StridedInput>& inputs,
                const std::vector<size_t>& out_strides, double* out) {
  std::vector<size_t> idx;
  for (const StridedInput& in : inputs) idx.push_back(in.base);
  std::vector<size_t> counter(sizes.size(), 0);
  size_t o = 0;
  for (;;) {
    double p = 1;
    for (size_t f = 0; f < inputs.size(); ++f) p *= inputs[f].data[idx[f]];
    out[o] += p;
    // Advance the odometer, last variable fastest.
    for (size_t j = sizes.size();;) {
      if (j == 0) return;
      --j;
      if (++counter[j] < sizes[j]) {
        for (size_t f = 0; f < inputs.size(); ++f) {
          idx[f] += inputs[f].strides[j];
        }
        o += out_strides[j];
        break;
      }
      counter[j] = 0;
      for (size_t f = 0; f < inputs.size(); ++f) {
        idx[f] -= (sizes[j] - 1) * inputs[f].strides[j];
      }
      o -= (sizes[j] - 1) * out_strides[j];
    }
  }
}

/// The factor of `node`'s CPT with the evidence applied: evidence
/// attributes are fixed to their codes and leave the scope.
Factor CptFactor(const BayesianNetwork& bn, size_t node,
                 const Evidence& evidence, const std::vector<size_t>& domain) {
  const Cpt& cpt = bn.cpt(node);
  // The CPT is laid out [config][child], the config mixed-radix over
  // parents() with the first parent most significant.
  std::vector<std::pair<size_t, size_t>> axes;  // (attribute, stride)
  size_t stride = cpt.child_size();
  for (size_t i = cpt.parents().size(); i-- > 0;) {
    axes.emplace_back(cpt.parents()[i], stride);
    stride *= cpt.parent_sizes()[i];
  }
  axes.emplace_back(node, 1);
  std::sort(axes.begin(), axes.end());

  Factor f;
  StridedInput in{cpt.flat().data(), 0, {}};
  for (const auto& [attr, axis_stride] : axes) {
    auto ev = evidence.find(attr);
    if (ev != evidence.end()) {
      in.base += static_cast<size_t>(ev->second) * axis_stride;
    } else {
      f.vars.push_back(attr);
      in.strides.push_back(axis_stride);
    }
  }
  const std::vector<size_t> sizes = SizesOf(f.vars, domain);
  f.values.assign(Cells(sizes), 0.0);
  Accumulate(sizes, {in}, RowMajorStrides(sizes), f.values.data());
  return f;
}

/// Product of `factors` with `drop` summed out (SIZE_MAX: none). Fails
/// with kResourceExhausted, before allocating, when the product's scope
/// has more than kMaxFactorCells cells.
Result<Factor> Combine(const std::vector<const Factor*>& factors, size_t drop,
                       const std::vector<size_t>& domain) {
  const std::vector<size_t> vars = UnionVars(factors);
  const std::vector<size_t> sizes = SizesOf(vars, domain);
  if (Cells(sizes) > kMaxFactorCells) {
    return Status::ResourceExhausted(
        "variable elimination needs a factor of more than " +
        std::to_string(kMaxFactorCells) + " cells");
  }
  std::vector<StridedInput> inputs;
  for (const Factor* f : factors) {
    const std::vector<size_t> own = RowMajorStrides(SizesOf(f->vars, domain));
    StridedInput in{f->values.data(), 0, std::vector<size_t>(vars.size(), 0)};
    for (size_t i = 0; i < f->vars.size(); ++i) {
      in.strides[static_cast<size_t>(
          std::lower_bound(vars.begin(), vars.end(), f->vars[i]) -
          vars.begin())] = own[i];
    }
    inputs.push_back(std::move(in));
  }
  Factor out;
  std::copy_if(vars.begin(), vars.end(), std::back_inserter(out.vars),
               [drop](size_t v) { return v != drop; });
  const std::vector<size_t> out_sizes = SizesOf(out.vars, domain);
  const std::vector<size_t> own = RowMajorStrides(out_sizes);
  std::vector<size_t> out_strides(vars.size(), 0);
  for (size_t j = 0, o = 0; j < vars.size(); ++j) {
    if (vars[j] != drop) out_strides[j] = own[o++];
  }
  out.values.assign(Cells(out_sizes), 0.0);
  Accumulate(sizes, inputs, out_strides, out.values.data());
  return out;
}

/// Eliminates every variable but the targets and the evidence, returning
/// the unnormalized factor over `sorted_targets`.
Result<Factor> Eliminate(const BayesianNetwork& bn,
                         const std::vector<size_t>& sorted_targets,
                         const Evidence& evidence) {
  const size_t n = bn.num_nodes();
  std::vector<size_t> domain(n);
  for (size_t v = 0; v < n; ++v) domain[v] = bn.cpt(v).child_size();
  // A node that is no ancestor of a target or of the evidence sums out to
  // one (its CPT rows are distributions), so only ancestors take part.
  std::vector<char> relevant(n, 0);
  std::vector<size_t> stack = sorted_targets;
  for (const auto& entry : evidence) stack.push_back(entry.first);
  while (!stack.empty()) {
    const size_t v = stack.back();
    stack.pop_back();
    if (relevant[v]) continue;
    relevant[v] = 1;
    for (size_t p : bn.cpt(v).parents()) stack.push_back(p);
  }
  std::vector<Factor> factors;
  std::vector<size_t> to_eliminate;
  for (size_t v = 0; v < n; ++v) {
    if (!relevant[v]) continue;
    factors.push_back(CptFactor(bn, v, evidence, domain));
    if (evidence.count(v) == 0 &&
        !std::binary_search(sorted_targets.begin(), sorted_targets.end(),
                            v)) {
      to_eliminate.push_back(v);
    }
  }

  auto family_of = [&factors](size_t var) {
    std::vector<const Factor*> family;
    for (const Factor& f : factors) {
      if (Contains(f, var)) family.push_back(&f);
    }
    return family;
  };
  while (!to_eliminate.empty()) {
    // Smallest product scope first; ties to the lower index.
    size_t best = 0;
    size_t best_cells = SIZE_MAX;
    for (size_t i = 0; i < to_eliminate.size(); ++i) {
      const size_t cells =
          Cells(SizesOf(UnionVars(family_of(to_eliminate[i])), domain));
      if (cells < best_cells) {
        best_cells = cells;
        best = i;
      }
    }
    const size_t var = to_eliminate[best];
    to_eliminate.erase(to_eliminate.begin() + static_cast<ptrdiff_t>(best));
    THEMIS_ASSIGN_OR_RETURN(Factor summed,
                            Combine(family_of(var), var, domain));
    std::erase_if(factors, [var](const Factor& f) { return Contains(f, var); });
    factors.push_back(std::move(summed));
  }
  // Every remaining scope lies within the targets, and each target's own
  // CPT factor keeps it, so the product spans exactly the targets.
  std::vector<const Factor*> all;
  for (const Factor& f : factors) all.push_back(&f);
  return Combine(all, SIZE_MAX, domain);
}

Status ValidateEvidence(const BayesianNetwork& bn, const Evidence& evidence) {
  for (const auto& [attr, code] : evidence) {
    if (attr >= bn.num_nodes()) {
      return Status::InvalidArgument("evidence attribute out of range");
    }
    if (code < 0 || static_cast<size_t>(code) >= bn.cpt(attr).child_size()) {
      return Status::InvalidArgument("evidence value out of domain");
    }
  }
  return Status::OK();
}

}  // namespace

Result<double> VariableElimination::Probability(
    const Evidence& evidence) const {
  if (evidence.empty()) return 1.0;
  THEMIS_RETURN_IF_ERROR(ValidateEvidence(*network_, evidence));
  THEMIS_ASSIGN_OR_RETURN(Factor f, Eliminate(*network_, {}, evidence));
  return f.values[0];
}

Result<data::Table> VariableElimination::JointTable(
    std::vector<size_t> targets, double scale,
    const Evidence& evidence) const {
  std::sort(targets.begin(), targets.end());
  targets.erase(std::unique(targets.begin(), targets.end()), targets.end());
  for (size_t t : targets) {
    if (t >= network_->num_nodes()) {
      return Status::InvalidArgument("target attribute out of range");
    }
    if (evidence.count(t)) {
      return Status::InvalidArgument("target overlaps evidence");
    }
  }
  THEMIS_RETURN_IF_ERROR(ValidateEvidence(*network_, evidence));
  THEMIS_ASSIGN_OR_RETURN(Factor f, Eliminate(*network_, targets, evidence));
  double total = 0;
  for (double v : f.values) total += v;
  if (total <= 0) {
    return Status::FailedPrecondition(
        "evidence has zero probability under the network");
  }
  data::Table table(network_->schema(),
                    f.values.size() -
                        std::count(f.values.begin(), f.values.end(), 0.0),
                    0.0);
  std::vector<data::ValueCode> cell(targets.size(), 0);
  size_t row = 0;
  for (double v : f.values) {
    if (v != 0.0) {
      for (size_t i = 0; i < cell.size(); ++i) {
        table.Set(row, targets[i], cell[i]);
      }
      table.set_weight(row++, scale * (v / total));
    }
    for (size_t j = cell.size(); j-- > 0;) {
      const size_t size = network_->cpt(targets[j]).child_size();
      if (static_cast<size_t>(++cell[j]) < size) break;
      cell[j] = 0;
    }
  }
  return table;
}

Result<stats::FreqTable> VariableElimination::Marginal(
    const std::vector<size_t>& targets, const Evidence& evidence) const {
  if (targets.empty()) {
    return Status::InvalidArgument("Marginal requires at least one target");
  }
  THEMIS_ASSIGN_OR_RETURN(data::Table table,
                          JointTable(targets, 1.0, evidence));
  return stats::FreqTable::FromTable(table, targets);
}

}  // namespace themis::bn
