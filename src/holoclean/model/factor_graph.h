#ifndef HOLOCLEAN_MODEL_FACTOR_GRAPH_H_
#define HOLOCLEAN_MODEL_FACTOR_GRAPH_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "holoclean/constraints/denial_constraint.h"
#include "holoclean/storage/table.h"

namespace holoclean {

/// One unary feature activation: the candidate's score receives
/// weight(weight_key) * activation.
struct FeatureInstance {
  uint64_t weight_key = 0;
  float activation = 1.0f;
};

/// A categorical random variable for one cell. Evidence variables (clean
/// cells) have their value fixed to init_index and are used to learn the
/// feature weights; query variables (noisy cells) are inferred.
struct Variable {
  CellRef cell;
  std::vector<ValueId> domain;
  int init_index = 0;        ///< Index of the observed value in `domain`.
  bool is_evidence = false;

  /// Per-candidate fixed bias (the minimality prior of §4.2).
  std::vector<double> prior_bias;
  /// Candidate k's features are features[feat_begin[k] .. feat_begin[k+1]).
  std::vector<int32_t> feat_begin;
  std::vector<FeatureInstance> features;

  size_t NumCandidates() const { return domain.size(); }
};

/// A grounded denial-constraint factor over the cells of a tuple pair
/// (t2 == t1 for single-tuple constraints). Contributes -weight to the
/// model score whenever the current assignment violates the constraint
/// (Algorithm 1 with the soft-weight relaxation of §4.2).
struct DcFactor {
  int dc_index = 0;
  TupleId t1 = 0;
  TupleId t2 = 0;
  double weight = 0.0;
  /// Query variables among the constraint's cells; all other cells read
  /// their observed value from the table.
  std::vector<int32_t> var_ids;
};

/// The grounded probabilistic model: variables (evidence + query), their
/// unary features, and pairwise denial-constraint factors.
class FactorGraph {
 public:
  /// Adds a variable, returns its id.
  int AddVariable(Variable var);

  /// Adds a DC factor and indexes it on its variables.
  void AddDcFactor(DcFactor factor);

  const std::vector<Variable>& variables() const { return vars_; }
  const Variable& variable(int id) const {
    return vars_[static_cast<size_t>(id)];
  }
  const std::vector<DcFactor>& dc_factors() const { return dc_factors_; }

  /// Ids of DC factors attached to variable `var_id`.
  const std::vector<int32_t>& FactorsOfVar(int var_id) const {
    return factors_of_var_[static_cast<size_t>(var_id)];
  }

  /// Variable id for a cell, or -1.
  int VarOfCell(const CellRef& cell) const;

  /// Ids of query (non-evidence) variables.
  const std::vector<int32_t>& query_vars() const { return query_vars_; }
  /// Ids of evidence variables.
  const std::vector<int32_t>& evidence_vars() const { return evidence_vars_; }

  /// Total number of grounded factors: one per (candidate, feature
  /// instance) plus the DC factors. This is the "factor graph size" the
  /// paper's scalability claims are about.
  size_t NumGroundedFactors() const;

  size_t num_variables() const { return vars_.size(); }

 private:
  std::vector<Variable> vars_;
  std::vector<DcFactor> dc_factors_;
  std::vector<std::vector<int32_t>> factors_of_var_;
  std::vector<int32_t> query_vars_;
  std::vector<int32_t> evidence_vars_;
  std::unordered_map<CellRef, int, CellRefHash> var_of_cell_;
};

}  // namespace holoclean

#endif  // HOLOCLEAN_MODEL_FACTOR_GRAPH_H_
