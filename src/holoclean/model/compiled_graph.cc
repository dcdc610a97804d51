#include "holoclean/model/compiled_graph.h"

#include <algorithm>
#include <mutex>
#include <numeric>

#include "holoclean/constraints/evaluator.h"
#include "holoclean/util/hash.h"
#include "holoclean/util/logging.h"

namespace holoclean {

namespace {

/// Open-addressing key interner for the dense weight remap. Building the
/// remap does one probe per feature activation — with millions of
/// activations per graph, an unordered_map's bucket chasing dominated the
/// whole Build; linear probing over a flat power-of-two table is ~4x
/// cheaper. Keys get ids in insertion order; the caller re-sorts
/// afterwards (so the final ids stay deterministic) and remaps with one
/// linear pass.
class KeyInterner {
 public:
  explicit KeyInterner(size_t expected) {
    size_t capacity = 64;
    while (capacity < expected * 2) capacity <<= 1;
    slots_.assign(capacity, -1);
    mask_ = capacity - 1;
  }

  int32_t InsertOrGet(uint64_t key) {
    size_t i = Mix64(key) & mask_;
    while (slots_[i] >= 0) {
      if (keys_[static_cast<size_t>(slots_[i])] == key) return slots_[i];
      i = (i + 1) & mask_;
    }
    int32_t id = static_cast<int32_t>(keys_.size());
    keys_.push_back(key);
    slots_[i] = id;
    if (keys_.size() * 3 > slots_.size() * 2) Grow();
    return id;
  }

  std::vector<uint64_t>& keys() { return keys_; }

 private:
  void Grow() {
    size_t capacity = slots_.size() * 2;
    slots_.assign(capacity, -1);
    mask_ = capacity - 1;
    for (size_t id = 0; id < keys_.size(); ++id) {
      size_t i = Mix64(keys_[id]) & mask_;
      while (slots_[i] >= 0) i = (i + 1) & mask_;
      slots_[i] = static_cast<int32_t>(id);
    }
  }

  std::vector<int32_t> slots_;
  std::vector<uint64_t> keys_;
  size_t mask_ = 0;
};

/// Runs fn over disjoint chunks of [0, n): on the pool when one is given,
/// inline otherwise. All Build fills write disjoint index ranges, so the
/// output bytes are identical either way.
void RunChunks(ThreadPool* pool, size_t n,
               const std::function<void(size_t, size_t)>& fn) {
  if (n == 0) return;
  if (pool != nullptr) {
    pool->ParallelChunks(n, fn);
  } else {
    fn(0, n);
  }
}

/// Fills one DC factor's precomputed violation table. One filler per
/// worker chunk: it owns the evaluator and the scratch buffers, so the
/// per-factor work stays allocation-free after warm-up exactly like the
/// old sequential loop did.
///
/// The precompute reproduces DcEvaluator::ViolatesWith verdicts without
/// paying a full evaluator call per candidate combination: each
/// predicate's operands are resolved once per factor to either a fixed
/// ValueId (an evidence cell of the factor's tuples) or a position in the
/// factor's query-variable list. Predicates with no dynamic operand are
/// evaluated once; with one, per candidate of that variable; only
/// predicates joining two query variables are evaluated per combination.
/// Verdict equivalence with the evaluator is pinned by an exhaustive
/// differential test.
class TableFiller {
 public:
  TableFiller(const std::vector<Variable>& vars, const Table& table,
              const std::vector<DenialConstraint>& dcs, double sim_threshold)
      : vars_(vars),
        table_(table),
        dcs_(dcs),
        dict_(table.dict()),
        evaluator_(&table, sim_threshold) {}

  /// Writes `entries` bytes at `dst` (the factor's region of the shared
  /// table arena, pre-zeroed by the caller's resize).
  void Fill(const DcFactor& factor, uint8_t* dst, size_t entries) {
    size_t num_positions = factor.var_ids.size();
    const DenialConstraint& dc = dcs_[static_cast<size_t>(factor.dc_index)];
    bool never_violates = dc.IsTwoTuple() && factor.t1 == factor.t2;

    // Resolve each predicate. `fixed_hold` accumulates the predicates with
    // no dynamic operand; if any fails, no combination violates.
    two_dyn_.clear();
    if (pred_by_cand_.size() < num_positions) {
      pred_by_cand_.resize(num_positions);
    }
    pred_used_.assign(num_positions, 0);
    bool fixed_hold = true;
    if (!never_violates) {
      for (const Predicate& p : dc.preds) {
        DynamicPred d;
        d.p = &p;
        TupleId lhs_t = p.lhs_tuple == 0 ? factor.t1 : factor.t2;
        for (size_t i = 0; i < num_positions; ++i) {
          const Variable& var =
              vars_[static_cast<size_t>(factor.var_ids[i])];
          if (var.cell.tid == lhs_t && var.cell.attr == p.lhs_attr) {
            d.lhs_pos = static_cast<int>(i);
            break;
          }
        }
        if (d.lhs_pos < 0) d.lhs_fixed = table_.Get(lhs_t, p.lhs_attr);
        if (!p.rhs_is_constant) {
          TupleId rhs_t = p.rhs_tuple == 0 ? factor.t1 : factor.t2;
          for (size_t i = 0; i < num_positions; ++i) {
            const Variable& var =
                vars_[static_cast<size_t>(factor.var_ids[i])];
            if (var.cell.tid == rhs_t && var.cell.attr == p.rhs_attr) {
              d.rhs_pos = static_cast<int>(i);
              break;
            }
          }
          if (d.rhs_pos < 0) d.rhs_fixed = table_.Get(rhs_t, p.rhs_attr);
        }

        if (d.lhs_pos < 0 && d.rhs_pos < 0) {
          if (!PredHolds(p, d.lhs_fixed, d.rhs_fixed)) {
            fixed_hold = false;
            break;
          }
        } else if (d.lhs_pos >= 0 && d.rhs_pos >= 0) {
          two_dyn_.push_back(d);
        } else {
          // One dynamic operand: fold the predicate into that variable's
          // per-candidate conjunction.
          int pos = d.lhs_pos >= 0 ? d.lhs_pos : d.rhs_pos;
          const Variable& var =
              vars_[static_cast<size_t>(factor.var_ids[pos])];
          auto& holds = pred_by_cand_[static_cast<size_t>(pos)];
          if (pred_used_[static_cast<size_t>(pos)] == 0) {
            pred_used_[static_cast<size_t>(pos)] = 1;
            holds.assign(var.NumCandidates(), 1);
          }
          for (size_t k = 0; k < var.NumCandidates(); ++k) {
            if (holds[k] == 0) continue;
            ValueId lhs = d.lhs_pos >= 0 ? var.domain[k] : d.lhs_fixed;
            ValueId rhs = d.rhs_pos >= 0 ? var.domain[k] : d.rhs_fixed;
            if (!PredHolds(p, lhs, rhs)) holds[k] = 0;
          }
        }
      }
    }

    // The arena region is pre-zeroed: a factor that can never violate
    // keeps its all-zero table without writing a byte.
    if (never_violates || !fixed_hold) return;

    // Enumerate the combinations in row-major order (last variable
    // fastest), mirroring TableViolated's index computation.
    combo_.assign(num_positions, 0);
    combo_value_.resize(num_positions);
    for (size_t i = 0; i < num_positions; ++i) {
      combo_value_[i] =
          vars_[static_cast<size_t>(factor.var_ids[i])].domain[0];
    }
    for (size_t e = 0; e < entries; ++e) {
      bool violated = true;
      for (size_t i = 0; i < num_positions && violated; ++i) {
        if (pred_used_[i] != 0 &&
            pred_by_cand_[i][static_cast<size_t>(combo_[i])] == 0) {
          violated = false;
        }
      }
      for (const DynamicPred& d : two_dyn_) {
        if (!violated) break;
        violated = PredHolds(*d.p,
                             combo_value_[static_cast<size_t>(d.lhs_pos)],
                             combo_value_[static_cast<size_t>(d.rhs_pos)]);
      }
      dst[e] = violated ? 1 : 0;
      // Increment the mixed-radix counter (last position fastest).
      for (size_t i = num_positions; i-- > 0;) {
        const Variable& var =
            vars_[static_cast<size_t>(factor.var_ids[i])];
        if (++combo_[i] < static_cast<int>(var.NumCandidates())) {
          combo_value_[i] = var.domain[static_cast<size_t>(combo_[i])];
          break;
        }
        combo_[i] = 0;
        combo_value_[i] = var.domain[0];
      }
    }
  }

 private:
  struct DynamicPred {
    const Predicate* p = nullptr;
    int lhs_pos = -1;  ///< Position in the factor's var list, or -1 fixed.
    int rhs_pos = -1;
    ValueId lhs_fixed = 0;
    ValueId rhs_fixed = 0;
  };

  // Mirrors the tail of DcEvaluator::PredicateHolds once the operands are
  // resolved: NULLs never hold; constants compare as strings.
  bool PredHolds(const Predicate& p, ValueId lhs, ValueId rhs) const {
    if (lhs == Dictionary::kNull) return false;
    if (p.rhs_is_constant) {
      return evaluator_.CompareStrings(p.op, dict_.GetString(lhs),
                                       p.constant);
    }
    if (rhs == Dictionary::kNull) return false;
    return evaluator_.Compare(p.op, lhs, rhs);
  }

  const std::vector<Variable>& vars_;
  const Table& table_;
  const std::vector<DenialConstraint>& dcs_;
  const Dictionary& dict_;
  DcEvaluator evaluator_;

  /// Scratch, reused across the chunk's factors (allocation-free steady
  /// state). pred_by_cand_[i][k]: conjunction of the single-dynamic
  /// predicates of factor variable i at its candidate k; pred_used_[i]
  /// marks positions that have any.
  std::vector<DynamicPred> two_dyn_;
  std::vector<std::vector<uint8_t>> pred_by_cand_;
  std::vector<uint8_t> pred_used_;
  std::vector<int> combo_;
  std::vector<ValueId> combo_value_;
};

}  // namespace

CompiledGraph CompiledGraph::Build(const FactorGraph& graph,
                                   const Table& table,
                                   const std::vector<DenialConstraint>& dcs,
                                   const CompiledGraphOptions& options,
                                   ThreadPool* pool) {
  CompiledGraph out;
  out.sim_threshold_ = options.sim_threshold;
  const std::vector<Variable>& vars = graph.variables();
  size_t num_vars = vars.size();

  // --- Variable arenas: serial offset planning, parallel fill.
  // Candidate and feature offsets per variable are cheap prefix sums; with
  // them fixed, every variable writes disjoint ranges of the flat arrays.
  size_t total_cands = 0;
  size_t total_feats = 0;
  out.cand_begin_.reserve(num_vars + 1);
  out.cand_begin_.push_back(0);
  out.is_evidence_.reserve(num_vars);
  out.init_index_.reserve(num_vars);
  std::vector<int64_t> var_feat_begin(num_vars + 1);
  var_feat_begin[0] = 0;
  for (size_t v = 0; v < num_vars; ++v) {
    const Variable& var = vars[v];
    total_cands += var.NumCandidates();
    total_feats += var.features.size();
    out.cand_begin_.push_back(static_cast<int32_t>(total_cands));
    out.is_evidence_.push_back(var.is_evidence ? 1 : 0);
    out.init_index_.push_back(var.init_index);
    var_feat_begin[v + 1] = static_cast<int64_t>(total_feats);
  }
  HOLO_CHECK(total_cands < static_cast<size_t>(INT32_MAX));
  out.prior_bias_.resize(total_cands);
  out.feat_begin_.resize(total_cands + 1);
  out.feat_begin_[0] = 0;
  out.feat_act_.resize(total_feats);
  out.feat_weight_.resize(total_feats);
  // Raw 64-bit keys land in a temp arena first; interning stays a serial
  // pass (the interner is shared state), but it is one probe per
  // activation over a flat array — the copy work around it parallelizes.
  std::vector<uint64_t> feat_key_raw(total_feats);
  RunChunks(pool, num_vars, [&](size_t begin, size_t end) {
    for (size_t v = begin; v < end; ++v) {
      const Variable& var = vars[v];
      size_t cand = static_cast<size_t>(out.cand_begin_[v]);
      size_t feat = static_cast<size_t>(var_feat_begin[v]);
      for (size_t k = 0; k < var.NumCandidates(); ++k) {
        out.prior_bias_[cand + k] = var.prior_bias[k];
        for (int32_t i = var.feat_begin[k]; i < var.feat_begin[k + 1]; ++i) {
          const FeatureInstance& f = var.features[static_cast<size_t>(i)];
          feat_key_raw[feat] = f.weight_key;
          out.feat_act_[feat] = f.activation;
          ++feat;
        }
        out.feat_begin_[cand + k + 1] =
            var_feat_begin[v] + static_cast<int64_t>(var.feat_begin[k + 1]);
      }
    }
  });

  // Interning runs per chunk: each worker collects its chunk's unique keys
  // in a private probe table, and the union is sorted and deduplicated
  // (chunks can share keys). The dense id assignment is sorted-key order,
  // so the result is exactly the serial pass's for ANY chunking — one
  // chunk, the pool's, or none. Instances then remap in parallel through a
  // read-only probe table over the sorted key set. Sizing the interners
  // for one unique key per ~4 instances skips nearly every rehash without
  // over-allocating on feature-heavy graphs.
  std::vector<std::vector<uint64_t>> chunk_keys;
  std::mutex chunk_mu;
  RunChunks(pool, total_feats, [&](size_t begin, size_t end) {
    KeyInterner local(/*expected=*/(end - begin) / 4 + 64);
    for (size_t i = begin; i < end; ++i) local.InsertOrGet(feat_key_raw[i]);
    std::lock_guard<std::mutex> lock(chunk_mu);
    chunk_keys.push_back(std::move(local.keys()));
  });
  size_t total_keys = 0;
  for (const auto& keys : chunk_keys) total_keys += keys.size();
  out.weight_keys_.clear();
  out.weight_keys_.reserve(total_keys);
  for (const auto& keys : chunk_keys) {
    out.weight_keys_.insert(out.weight_keys_.end(), keys.begin(), keys.end());
  }
  std::sort(out.weight_keys_.begin(), out.weight_keys_.end());
  out.weight_keys_.erase(
      std::unique(out.weight_keys_.begin(), out.weight_keys_.end()),
      out.weight_keys_.end());
  // Read-only probe table: key -> rank in the sorted set. Lookups cannot
  // miss (every instance key was interned), so the probe loop needs no
  // empty-slot check.
  size_t rank_capacity = 64;
  while (rank_capacity < out.weight_keys_.size() * 2) rank_capacity <<= 1;
  std::vector<int32_t> rank_slots(rank_capacity, -1);
  const size_t rank_mask = rank_capacity - 1;
  for (size_t r = 0; r < out.weight_keys_.size(); ++r) {
    size_t i = Mix64(out.weight_keys_[r]) & rank_mask;
    while (rank_slots[i] >= 0) i = (i + 1) & rank_mask;
    rank_slots[i] = static_cast<int32_t>(r);
  }
  RunChunks(pool, total_feats, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      uint64_t key = feat_key_raw[i];
      size_t s = Mix64(key) & rank_mask;
      while (out.weight_keys_[static_cast<size_t>(rank_slots[s])] != key) {
        s = (s + 1) & rank_mask;
      }
      out.feat_weight_[i] = rank_slots[s];
    }
  });
  feat_key_raw.clear();
  feat_key_raw.shrink_to_fit();

  // --- Factors-of-variable adjacency, preserving FactorsOfVar order.
  const std::vector<DcFactor>& factors = graph.dc_factors();
  size_t num_factors = factors.size();
  size_t total_adjacency = 0;
  for (const DcFactor& factor : factors) {
    total_adjacency += factor.var_ids.size();
  }
  out.fov_begin_.reserve(num_vars + 1);
  out.fov_begin_.push_back(0);
  for (size_t v = 0; v < num_vars; ++v) {
    out.fov_begin_.push_back(
        out.fov_begin_.back() +
        static_cast<int32_t>(graph.FactorsOfVar(static_cast<int>(v)).size()));
  }
  out.fov_.resize(static_cast<size_t>(out.fov_begin_.back()));
  RunChunks(pool, num_vars, [&](size_t begin, size_t end) {
    for (size_t v = begin; v < end; ++v) {
      const auto& fids = graph.FactorsOfVar(static_cast<int>(v));
      std::copy(fids.begin(), fids.end(),
                out.fov_.begin() + out.fov_begin_[v]);
    }
  });

  // --- Factor arenas and violation-table offsets (serial: cheap linear
  // bookkeeping, and the stats must accumulate deterministically).
  out.factor_var_begin_.reserve(num_factors + 1);
  out.factor_var_begin_.push_back(0);
  out.factor_vars_.reserve(total_adjacency);
  out.factor_weight_.reserve(num_factors);
  out.factor_dc_.reserve(num_factors);
  out.factor_t1_.reserve(num_factors);
  out.factor_t2_.reserve(num_factors);
  out.table_begin_.reserve(num_factors);
  std::vector<size_t> table_entries(num_factors, 0);
  size_t total_entries = 0;
  for (size_t fid = 0; fid < num_factors; ++fid) {
    const DcFactor& factor = factors[fid];
    out.factor_vars_.insert(out.factor_vars_.end(), factor.var_ids.begin(),
                            factor.var_ids.end());
    out.factor_var_begin_.push_back(
        static_cast<int32_t>(out.factor_vars_.size()));
    out.factor_weight_.push_back(factor.weight);
    out.factor_dc_.push_back(factor.dc_index);
    out.factor_t1_.push_back(factor.t1);
    out.factor_t2_.push_back(factor.t2);

    // Cross-product size, capped. The per-variable candidate counts are
    // bounded by the pruning cap (default 64), so overflow is only a
    // theoretical concern — still, bail out as soon as the running product
    // passes the table cap.
    size_t entries = 1;
    bool fits = !factor.var_ids.empty();
    for (int32_t v : factor.var_ids) {
      entries *= vars[static_cast<size_t>(v)].NumCandidates();
      if (entries > options.violation_table_cap) {
        fits = false;
        break;
      }
    }
    if (!fits) {
      out.table_begin_.push_back(-1);
      ++out.stats_.num_fallback_factors;
      continue;
    }
    out.table_begin_.push_back(static_cast<int64_t>(total_entries));
    table_entries[fid] = entries;
    total_entries += entries;
    ++out.stats_.num_tabled_factors;
    out.stats_.table_entries += entries;
  }

  // --- Violation-table fill: per-factor regions are disjoint, so factors
  // precompute concurrently; each chunk owns its evaluator and scratch.
  out.violation_tables_.assign(total_entries, 0);
  RunChunks(pool, num_factors, [&](size_t begin, size_t end) {
    TableFiller filler(vars, table, dcs, options.sim_threshold);
    for (size_t fid = begin; fid < end; ++fid) {
      if (out.table_begin_[fid] < 0) continue;
      filler.Fill(factors[fid],
                  out.violation_tables_.data() +
                      static_cast<size_t>(out.table_begin_[fid]),
                  table_entries[fid]);
    }
  });

  return out;
}

std::vector<double> CompiledGraph::GatherWeights(
    const WeightStore& sparse) const {
  std::vector<double> dense(weight_keys_.size());
  for (size_t i = 0; i < weight_keys_.size(); ++i) {
    dense[i] = sparse.Get(weight_keys_[i]);
  }
  return dense;
}

void CompiledGraph::ScatterWeights(const std::vector<double>& dense,
                                   const std::vector<uint8_t>& touched,
                                   WeightStore* sparse) const {
  HOLO_CHECK(dense.size() == weight_keys_.size());
  HOLO_CHECK(touched.size() == weight_keys_.size());
  for (size_t i = 0; i < weight_keys_.size(); ++i) {
    if (touched[i]) sparse->Set(weight_keys_[i], dense[i]);
  }
}

}  // namespace holoclean
