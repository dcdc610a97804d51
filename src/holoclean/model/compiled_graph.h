#ifndef HOLOCLEAN_MODEL_COMPILED_GRAPH_H_
#define HOLOCLEAN_MODEL_COMPILED_GRAPH_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "holoclean/constraints/denial_constraint.h"
#include "holoclean/model/factor_graph.h"
#include "holoclean/model/weight_store.h"
#include "holoclean/util/thread_pool.h"

namespace holoclean {

/// Build-time knobs of the compiled runtime representation.
struct CompiledGraphOptions {
  /// Maximum candidate-combination entries precomputed per DC factor. A
  /// factor whose query-variable candidate cross-product exceeds the cap
  /// gets no violation table; the sampler falls back to evaluating the
  /// constraint with the DcEvaluator (bit-identical, just slower).
  size_t violation_table_cap = 4096;
  /// Similarity threshold of the evaluator that precomputes the violation
  /// tables. Recorded on the built graph (CompiledGraph::sim_threshold());
  /// the sampler constructs its fallback evaluator from that recorded
  /// value, so the table and fallback verdicts agree by construction.
  double sim_threshold = 0.8;
};

/// Compile-once/execute-many view of a FactorGraph: everything the learn
/// and infer hot loops touch, flattened into contiguous arrays.
///
///  - Dense weight ids: every packed 64-bit weight key appearing in a
///    feature gets a contiguous int32 id (sorted-key order, so the remap is
///    deterministic). Training and scoring run over a flat
///    std::vector<double> indexed by these ids instead of hashing into the
///    WeightStore per activation. The WeightStore stays the sparse
///    persisted/introspection view; GatherWeights/ScatterWeights convert at
///    stage boundaries so snapshots stay bit-identical to the FactorGraph
///    interpreter (the reference in tests/oracle/).
///  - CSR arenas: per-variable candidate offsets, flat prior biases, and a
///    global feature arena (weight id + activation), plus CSR
///    factors-of-variable adjacency. One pointer chase per span instead of
///    one per Variable.
///  - Violation tables: per DC factor, the violation predicate evaluated
///    once per combination of its query variables' candidate indices, so
///    Gibbs factor scoring becomes an array lookup.
///
/// Every score a CompiledGraph produces is bit-identical to interpreting
/// the FactorGraph directly: the arrays preserve feature and factor order,
/// the dense values mirror WeightStore::Get exactly, and the tables are
/// precomputed with the same evaluator the fallback uses.
///
/// The compiled view borrows nothing: it copies what it needs at Build
/// time, so it stays valid as long as the ids it references (variables,
/// factors, candidates) describe the same graph. Rebuild whenever the
/// FactorGraph or the observed table changes.
class CompiledGraph {
 public:
  /// Per-build statistics, for introspection, benches, and the fallback
  /// boundary tests.
  struct Stats {
    size_t num_tabled_factors = 0;
    size_t num_fallback_factors = 0;
    size_t table_entries = 0;
  };

  CompiledGraph() = default;

  /// Compiles `graph` against the observed `table` and constraint set.
  /// `table` and `dcs` are only read during Build (violation-table
  /// precompute); they are not retained. `pool` parallelizes the arena
  /// fill and the per-factor violation-table precompute (null = fully
  /// sequential): every offset is planned in cheap serial passes first, so
  /// the parallel fills write disjoint ranges and the built graph is
  /// byte-identical for any pool size.
  static CompiledGraph Build(const FactorGraph& graph, const Table& table,
                             const std::vector<DenialConstraint>& dcs,
                             const CompiledGraphOptions& options = {},
                             ThreadPool* pool = nullptr);

  // --- Dense weight remap ---------------------------------------------------

  size_t num_weights() const { return weight_keys_.size(); }
  /// Dense id -> packed weight key, ascending.
  const std::vector<uint64_t>& weight_keys() const { return weight_keys_; }
  /// Dense id of a packed key, or -1 when no feature references it.
  /// Binary search — introspection/test path, not used by the hot loops.
  int32_t WeightIdOf(uint64_t key) const {
    auto it = std::lower_bound(weight_keys_.begin(), weight_keys_.end(), key);
    if (it != weight_keys_.end() && *it == key) {
      return static_cast<int32_t>(it - weight_keys_.begin());
    }
    return -1;
  }

  /// Dense parameter vector mirroring `sparse`: dense[id] ==
  /// sparse.Get(weight_keys()[id]) for every id (absent keys read 0.0).
  std::vector<double> GatherWeights(const WeightStore& sparse) const;

  /// Writes trained dense values back into the sparse store. Only ids
  /// flagged in `touched` are Set — exactly the keys a per-activation
  /// SGD loop over the store would have created or updated — so the
  /// store's entry set (and therefore its serialized form) is the same.
  void ScatterWeights(const std::vector<double>& dense,
                      const std::vector<uint8_t>& touched,
                      WeightStore* sparse) const;

  // --- Variables ------------------------------------------------------------

  size_t num_variables() const { return is_evidence_.size(); }
  int32_t NumCandidates(int var_id) const {
    return cand_begin_[static_cast<size_t>(var_id) + 1] -
           cand_begin_[static_cast<size_t>(var_id)];
  }
  /// Offset of the variable's first candidate in the flat candidate arrays
  /// (prior biases, unary-score buffers).
  int32_t CandBegin(int var_id) const {
    return cand_begin_[static_cast<size_t>(var_id)];
  }
  bool IsEvidence(int var_id) const {
    return is_evidence_[static_cast<size_t>(var_id)] != 0;
  }
  int32_t InitIndex(int var_id) const {
    return init_index_[static_cast<size_t>(var_id)];
  }

  /// Unary score of candidate `k` of `var_id` under the dense parameters:
  /// the prior bias plus the weighted feature activations, accumulated in
  /// feature order, so the result is bit-identical to summing over the
  /// Variable's features when `dense` mirrors the WeightStore.
  double UnaryScore(int var_id, int k, const std::vector<double>& dense) const {
    size_t c = static_cast<size_t>(cand_begin_[static_cast<size_t>(var_id)]) +
               static_cast<size_t>(k);
    double score = prior_bias_[c];
    for (int64_t i = feat_begin_[c]; i < feat_begin_[c + 1]; ++i) {
      score += dense[static_cast<size_t>(feat_weight_[static_cast<size_t>(i)])] *
               feat_act_[static_cast<size_t>(i)];
    }
    return score;
  }

  /// Span of the feature arena for candidate `k` of `var_id`.
  int64_t FeatBegin(int var_id, int k) const {
    return feat_begin_[static_cast<size_t>(
        cand_begin_[static_cast<size_t>(var_id)] + k)];
  }
  int64_t FeatEnd(int var_id, int k) const {
    return feat_begin_[static_cast<size_t>(
                           cand_begin_[static_cast<size_t>(var_id)] + k) +
                       1];
  }
  const std::vector<int32_t>& feat_weight() const { return feat_weight_; }
  const std::vector<float>& feat_act() const { return feat_act_; }

  // --- DC factors -----------------------------------------------------------

  size_t num_factors() const { return factor_weight_.size(); }
  double FactorWeight(int fid) const {
    return factor_weight_[static_cast<size_t>(fid)];
  }
  int32_t FactorDcIndex(int fid) const {
    return factor_dc_[static_cast<size_t>(fid)];
  }
  TupleId FactorT1(int fid) const { return factor_t1_[static_cast<size_t>(fid)]; }
  TupleId FactorT2(int fid) const { return factor_t2_[static_cast<size_t>(fid)]; }
  /// Span [begin, end) of the factor's variable ids in factor_vars().
  int32_t FactorVarBegin(int fid) const {
    return factor_var_begin_[static_cast<size_t>(fid)];
  }
  int32_t FactorVarEnd(int fid) const {
    return factor_var_begin_[static_cast<size_t>(fid) + 1];
  }
  const std::vector<int32_t>& factor_vars() const { return factor_vars_; }

  /// CSR factors-of-variable adjacency (same order as
  /// FactorGraph::FactorsOfVar).
  int32_t FovBegin(int var_id) const {
    return fov_begin_[static_cast<size_t>(var_id)];
  }
  int32_t FovEnd(int var_id) const {
    return fov_begin_[static_cast<size_t>(var_id) + 1];
  }
  const std::vector<int32_t>& fov() const { return fov_; }

  /// Whether factor `fid` has a precomputed violation table.
  bool HasViolationTable(int fid) const {
    return table_begin_[static_cast<size_t>(fid)] >= 0;
  }

  /// Pointer to the table entry at `offset` within factor `fid`'s
  /// violation table. The sampler's hot loop resolves a variable's
  /// candidates through an affine (base + k * stride) offset into this.
  /// Requires HasViolationTable(fid).
  const uint8_t* ViolationTableEntry(int fid, size_t offset) const {
    return violation_tables_.data() +
           static_cast<size_t>(table_begin_[static_cast<size_t>(fid)]) +
           offset;
  }

  /// Table lookup: is factor `fid` violated when `var_id` takes candidate
  /// `k` and every other factor variable takes its `assignment` index?
  /// Requires HasViolationTable(fid).
  bool TableViolated(int fid, int var_id, int k,
                     const std::vector<int>& assignment) const {
    size_t idx = 0;
    for (int32_t i = FactorVarBegin(fid); i < FactorVarEnd(fid); ++i) {
      int32_t v = factor_vars_[static_cast<size_t>(i)];
      int c = v == var_id ? k : assignment[static_cast<size_t>(v)];
      idx = idx * static_cast<size_t>(NumCandidates(v)) +
            static_cast<size_t>(c);
    }
    return violation_tables_[static_cast<size_t>(
               table_begin_[static_cast<size_t>(fid)]) +
                             idx] != 0;
  }

  const Stats& stats() const { return stats_; }

  /// Threshold the violation tables were precomputed with; the fallback
  /// evaluator must (and, in GibbsSampler, does) use the same value.
  double sim_threshold() const { return sim_threshold_; }

 private:
  // Dense weight remap (ids are positions in the sorted key list).
  std::vector<uint64_t> weight_keys_;

  // Variable arenas. cand_begin_ has num_variables()+1 entries; the flat
  // candidate arrays (prior_bias_, unary buffers) are indexed by
  // cand_begin_[v] + k. feat_begin_ has total_candidates+1 entries into the
  // global feature arena.
  std::vector<int32_t> cand_begin_;
  std::vector<uint8_t> is_evidence_;
  std::vector<int32_t> init_index_;
  std::vector<double> prior_bias_;
  std::vector<int64_t> feat_begin_;
  std::vector<int32_t> feat_weight_;
  std::vector<float> feat_act_;

  // Factor arenas.
  std::vector<int32_t> fov_begin_;
  std::vector<int32_t> fov_;
  std::vector<int32_t> factor_var_begin_;
  std::vector<int32_t> factor_vars_;
  std::vector<double> factor_weight_;
  std::vector<int32_t> factor_dc_;
  std::vector<TupleId> factor_t1_;
  std::vector<TupleId> factor_t2_;

  // Violation tables: one shared arena; table_begin_[fid] is the factor's
  // offset, or -1 when it fell back (cross-product above the cap).
  std::vector<int64_t> table_begin_;
  std::vector<uint8_t> violation_tables_;
  double sim_threshold_ = 0.8;

  Stats stats_;
};

}  // namespace holoclean

#endif  // HOLOCLEAN_MODEL_COMPILED_GRAPH_H_
