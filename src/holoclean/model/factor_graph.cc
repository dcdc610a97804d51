#include "holoclean/model/factor_graph.h"

#include "holoclean/util/logging.h"

namespace holoclean {

int FactorGraph::AddVariable(Variable var) {
  HOLO_CHECK(!var.domain.empty());
  HOLO_CHECK(var.feat_begin.size() == var.domain.size() + 1);
  HOLO_CHECK(var.prior_bias.size() == var.domain.size());
  int id = static_cast<int>(vars_.size());
  var_of_cell_[var.cell] = id;
  if (var.is_evidence) {
    evidence_vars_.push_back(id);
  } else {
    query_vars_.push_back(id);
  }
  vars_.push_back(std::move(var));
  factors_of_var_.emplace_back();
  return id;
}

void FactorGraph::AddDcFactor(DcFactor factor) {
  int fid = static_cast<int>(dc_factors_.size());
  for (int32_t v : factor.var_ids) {
    factors_of_var_[static_cast<size_t>(v)].push_back(fid);
  }
  dc_factors_.push_back(std::move(factor));
}

int FactorGraph::VarOfCell(const CellRef& cell) const {
  auto it = var_of_cell_.find(cell);
  return it == var_of_cell_.end() ? -1 : it->second;
}

size_t FactorGraph::NumGroundedFactors() const {
  size_t n = dc_factors_.size();
  for (const Variable& var : vars_) {
    n += var.features.size();
    n += var.domain.size();  // Minimality-prior factors.
  }
  return n;
}

}  // namespace holoclean
