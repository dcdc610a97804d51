#include "holoclean/detect/violation_detector.h"

#include <algorithm>
#include <unordered_map>

#include "holoclean/util/hash.h"
#include "holoclean/util/logging.h"
#include "holoclean/util/string_util.h"

namespace holoclean {

namespace {

/// One DC's predicates compiled against the column store for pair-at-a-time
/// evaluation without per-pair string work:
///  - predicates confined to a single tuple role collapse into a per-tuple
///    verdict mask (constant predicates are resolved once per distinct
///    dictionary code, then gathered through the code array);
///  - cross-tuple predicates keep their operand roles and evaluate as
///    integer/double comparisons through the evaluator's order memo.
/// Verdicts are identical to DcEvaluator::PredicateHolds by construction.
struct ColumnarPlan {
  /// ok[role][t] == 1 iff every single-role predicate of `role` holds on t.
  std::vector<uint8_t> ok[2];
  struct CrossPred {
    Op op = Op::kEq;
    int lhs_tuple = 0;
    AttrId lhs_attr = 0;
    AttrId rhs_attr = 0;
    /// Decoded id columns of the two operands, resolved once at plan build
    /// so the per-pair loop reads flat arrays.
    const ValueId* lhs_col = nullptr;
    const ValueId* rhs_col = nullptr;
  };
  /// Cross-tuple equality predicates (the blocking keys). Verifying them
  /// per pair doubles as the hash-collision filter.
  std::vector<CrossPred> cross_eq;
  /// Remaining cross-tuple predicates.
  std::vector<CrossPred> cross;
};

/// The participating cells of a violation of `dc` are a fixed function of
/// the tuple pair: each predicate operand contributes (role, attr), deduped
/// in first-seen order, so pairs are stored without their cells. For
/// single-tuple violations both roles read the same tuple, so the dedup
/// collapses to the attribute.
std::vector<std::pair<uint8_t, AttrId>> CellTemplate(
    const DenialConstraint& dc, bool two_tuple) {
  std::vector<std::pair<uint8_t, AttrId>> tmpl;
  auto add = [&](int role, AttrId attr) {
    for (const auto& [r, a] : tmpl) {
      if (a == attr && (!two_tuple || r == role)) return;
    }
    tmpl.emplace_back(static_cast<uint8_t>(role), attr);
  };
  for (const Predicate& p : dc.preds) {
    add(p.lhs_tuple, p.lhs_attr);
    if (!p.rhs_is_constant) add(p.rhs_tuple, p.rhs_attr);
  }
  return tmpl;
}

/// Open-addressed set of packed tuple-pair keys (always nonzero: the pair
/// is unordered with distinct halves, so the high word is never zero).
/// Replaces unordered_set in the violation-dedup hot loop — no per-node
/// allocations, linear probing over a power-of-two table.
class PairSet {
 public:
  PairSet() : slots_(16, 0), mask_(15) {}

  /// True when the key was absent (and is now inserted).
  bool Insert(uint64_t key) {
    if ((size_ + 1) * 2 > slots_.size()) Grow();
    size_t s = static_cast<size_t>(Mix64(key)) & mask_;
    while (slots_[s] != 0) {
      if (slots_[s] == key) return false;
      s = (s + 1) & mask_;
    }
    slots_[s] = key;
    ++size_;
    return true;
  }

 private:
  void Grow() {
    std::vector<uint64_t> old = std::move(slots_);
    slots_.assign(old.size() * 2, 0);
    mask_ = slots_.size() - 1;
    for (uint64_t key : old) {
      if (key == 0) continue;
      size_t s = static_cast<size_t>(Mix64(key)) & mask_;
      while (slots_[s] != 0) s = (s + 1) & mask_;
      slots_[s] = key;
    }
  }

  std::vector<uint64_t> slots_;
  size_t mask_;
  size_t size_ = 0;
};

ColumnarPlan BuildPlan(const Table& table, const DenialConstraint& dc,
                       const DcEvaluator& eval) {
  const size_t n = table.num_rows();
  const ColumnStore& store = table.store();
  const Dictionary& dict = table.dict();
  ColumnarPlan plan;
  plan.ok[0].assign(n, 1);
  plan.ok[1].assign(n, 1);
  for (const Predicate& p : dc.preds) {
    if (p.SpansTuples()) {
      ColumnarPlan::CrossPred cp;
      cp.op = p.op;
      cp.lhs_tuple = p.lhs_tuple;
      cp.lhs_attr = p.lhs_attr;
      cp.rhs_attr = p.rhs_attr;
      cp.lhs_col = table.Column(p.lhs_attr).data();
      cp.rhs_col = table.Column(p.rhs_attr).data();
      (p.op == Op::kEq ? plan.cross_eq : plan.cross).push_back(cp);
      continue;
    }
    const int role = p.lhs_tuple;
    std::vector<uint8_t>& ok = plan.ok[role];
    if (p.rhs_is_constant) {
      const auto& col = store.column(static_cast<size_t>(p.lhs_attr));
      auto meta =
          store.EnsureCompareMeta(static_cast<size_t>(p.lhs_attr), dict);
      const bool ordered = p.op == Op::kLt || p.op == Op::kGt ||
                           p.op == Op::kLeq || p.op == Op::kGeq;
      const bool const_numeric = ordered && IsNumeric(p.constant);
      const double const_value =
          const_numeric ? ParseDoubleOr(p.constant, 0.0) : 0.0;
      // Verdict per distinct code; NULL (code 0) never holds.
      std::vector<uint8_t> verdict(col.num_codes(), 0);
      for (size_t c = 1; c < col.num_codes(); ++c) {
        if (const_numeric && meta->is_numeric[c]) {
          const double v = meta->numeric[c];
          const int cmp = v < const_value ? -1 : (v > const_value ? 1 : 0);
          verdict[c] = (p.op == Op::kLt && cmp < 0) ||
                       (p.op == Op::kGt && cmp > 0) ||
                       (p.op == Op::kLeq && cmp <= 0) ||
                       (p.op == Op::kGeq && cmp >= 0);
        } else {
          verdict[c] = eval.CompareStrings(
              p.op, dict.GetString(col.code_to_value[c]), p.constant);
        }
      }
      size_t t = 0;
      for (size_t ch = 0; ch < col.codes.num_chunks(); ++ch) {
        const Code* codes = col.codes.chunk_data(ch);
        const size_t m = col.codes.chunk_size(ch);
        for (size_t i = 0; i < m; ++i, ++t) {
          ok[t] &= verdict[static_cast<size_t>(codes[i])];
        }
      }
    } else {
      const std::vector<ValueId>& lhs = table.Column(p.lhs_attr);
      const std::vector<ValueId>& rhs = table.Column(p.rhs_attr);
      for (size_t t = 0; t < n; ++t) {
        ok[t] &= lhs[t] != Dictionary::kNull && rhs[t] != Dictionary::kNull &&
                 eval.Compare(p.op, lhs[t], rhs[t]);
      }
    }
  }
  return plan;
}

/// The blocking-key hash of tuple t over the given id columns; 0 when any
/// of them is NULL (NULL never matches).
uint64_t BlockingKey(const std::vector<const std::vector<ValueId>*>& cols,
                     size_t t) {
  uint64_t h = 0x9E3779B97F4A7C15ULL;
  for (const std::vector<ValueId>* vals : cols) {
    ValueId v = (*vals)[t];
    if (v == Dictionary::kNull) return 0;
    h = HashCombine(h, static_cast<uint64_t>(static_cast<uint32_t>(v)));
  }
  return h;
}

/// Adds an FD-shaped constraint's noisy cells in the order its pair scan
/// first meets them, without enumerating a pair. The scan visits outer
/// tuples ascending and reports each pair at its smaller tuple. Within a
/// block G, with v0 the ≠ value of G[0] and b1 the first member holding
/// another value (the members between them hold v0), it first meets:
///  - at G[0]: the template over (G[0], b1), then every later member whose
///    value is not v0;
///  - at each member between G[0] and b1: that member (paired with b1);
///  - at b1: every member after it (the ones not met yet all hold v0).
/// Later members add nothing new. Linear in the table.
void AddBlockCells(const std::vector<std::vector<TupleId>>& blocks,
                   const std::vector<std::pair<uint8_t, AttrId>>& tmpl,
                   const std::vector<ValueId>& values, NoisyCells* noisy) {
  // Every predicate names one attribute for both roles, so a tuple's cells
  // are the same attributes in the same order whichever role it plays.
  std::vector<AttrId> attrs;
  for (const auto& [role, attr] : tmpl) {
    if (role == 1) attrs.push_back(attr);
  }
  auto add_tuple = [&](TupleId t) {
    for (AttrId a : attrs) noisy->Add({t, a});
  };
  auto value = [&](TupleId t) { return values[static_cast<size_t>(t)]; };
  std::vector<size_t> first_other(blocks.size(), 1);
  std::vector<int32_t> block_of(values.size(), -1);
  for (size_t b = 0; b < blocks.size(); ++b) {
    const std::vector<TupleId>& g = blocks[b];
    while (value(g[first_other[b]]) == value(g[0])) ++first_other[b];
    for (TupleId t : g) {
      block_of[static_cast<size_t>(t)] = static_cast<int32_t>(b);
    }
  }
  for (size_t t = 0; t < values.size(); ++t) {
    const int32_t b = block_of[t];
    if (b < 0) continue;
    const std::vector<TupleId>& g = blocks[static_cast<size_t>(b)];
    const size_t f = first_other[static_cast<size_t>(b)];
    const TupleId tid = static_cast<TupleId>(t);
    if (tid == g[0]) {
      for (const auto& [role, attr] : tmpl) {
        noisy->Add({role == 0 ? g[0] : g[f], attr});
      }
      for (size_t j = f + 1; j < g.size(); ++j) {
        if (value(g[j]) != value(g[0])) add_tuple(g[j]);
      }
    } else if (tid < g[f]) {
      add_tuple(tid);
    } else if (tid == g[f]) {
      for (size_t j = f + 1; j < g.size(); ++j) add_tuple(g[j]);
    }
  }
}

}  // namespace

size_t ViolationSet::size() const {
  size_t total = 0;
  for (const DcViolations& dc : per_dc) total += dc.count;
  return total;
}

std::vector<int> ViolationSet::TruncatedDcs() const {
  std::vector<int> out;
  for (size_t i = 0; i < per_dc.size(); ++i) {
    if (per_dc[i].truncated) out.push_back(static_cast<int>(i));
  }
  return out;
}

ViolationDetector::ViolationDetector(const Table* table,
                                     const std::vector<DenialConstraint>* dcs,
                                     Options options)
    : table_(table),
      dcs_(dcs),
      options_(options),
      evaluator_(table, options.sim_threshold) {}

template <typename Fn>
void ViolationDetector::ForEachDc(Fn fn) const {
  if (options_.pool != nullptr && dcs_->size() > 1) {
    options_.pool->ParallelFor(dcs_->size(), fn);
  } else {
    for (size_t i = 0; i < dcs_->size(); ++i) fn(i);
  }
}

std::vector<std::pair<TupleId, TupleId>> ViolationDetector::ScanPairs(
    int dc_index, bool* truncated) const {
  const DenialConstraint& dc = (*dcs_)[static_cast<size_t>(dc_index)];
  if (dc.IsTwoTuple()) return ScanTwoTuple(dc_index, truncated);
  // A single-tuple DC references only role 0, so its violations are exactly
  // the tuples passing the role-0 mask.
  ColumnarPlan plan = BuildPlan(*table_, dc, evaluator_);
  std::vector<std::pair<TupleId, TupleId>> out;
  for (size_t t = 0; t < table_->num_rows(); ++t) {
    if (plan.ok[0][t]) {
      out.emplace_back(static_cast<TupleId>(t), static_cast<TupleId>(t));
    }
  }
  return out;
}

std::vector<std::pair<TupleId, TupleId>> ViolationDetector::ScanTwoTuple(
    int dc_index, bool* truncated) const {
  const DenialConstraint& dc = (*dcs_)[static_cast<size_t>(dc_index)];
  std::vector<std::pair<TupleId, TupleId>> out;
  const size_t n = table_->num_rows();
  ColumnarPlan plan = BuildPlan(*table_, dc, evaluator_);

  // Cross predicates resolve against the decoded id columns (pointers
  // resolved at plan build); attribute order follows the pair roles (a
  // plays t1, b plays t2). Equality/inequality are pure id compares — the
  // evaluator only enters for ordered and similarity operators.
  auto cross_holds = [&](const ColumnarPlan::CrossPred& cp, TupleId a,
                         TupleId b) {
    size_t lhs_t = static_cast<size_t>(cp.lhs_tuple == 0 ? a : b);
    size_t rhs_t = static_cast<size_t>(cp.lhs_tuple == 0 ? b : a);
    ValueId lhs = cp.lhs_col[lhs_t];
    if (lhs == Dictionary::kNull) return false;
    ValueId rhs = cp.rhs_col[rhs_t];
    if (rhs == Dictionary::kNull) return false;
    if (cp.op == Op::kEq) return lhs == rhs;
    if (cp.op == Op::kNeq) return lhs != rhs;
    return evaluator_.Compare(cp.op, lhs, rhs);
  };
  auto pair_violates = [&](TupleId a, TupleId b) {
    for (const auto& cp : plan.cross_eq) {
      // Integer check also filters hash collisions on the blocked path.
      if (!cross_holds(cp, a, b)) return false;
    }
    for (const auto& cp : plan.cross) {
      if (!cross_holds(cp, a, b)) return false;
    }
    return true;
  };

  PairSet reported;
  auto report = [&](TupleId a, TupleId b) {
    uint64_t lo = static_cast<uint32_t>(std::min(a, b));
    uint64_t hi = static_cast<uint32_t>(std::max(a, b));
    if (reported.Insert((hi << 32) | lo)) out.emplace_back(a, b);
  };

  if (plan.cross_eq.empty()) {
    // Brute-force fallback. The budget arithmetic mirrors the row-at-a-time
    // reference exactly — each considered pair (j != i) costs one unit — so
    // the same prefix of the pair sequence is inspected; rows failing their
    // role-0 mask are skipped in O(1) by charging the whole row at once
    // (none of their pairs can violate).
    size_t budget = options_.max_fallback_pairs;
    for (size_t i = 0; i < n && budget > 0; ++i) {
      if (!plan.ok[0][i]) {
        budget -= std::min(budget, n - 1);
        continue;
      }
      for (size_t j = 0; j < n && budget > 0; ++j) {
        if (i == j) continue;
        --budget;
        if (!plan.ok[1][j]) continue;
        TupleId a = static_cast<TupleId>(i);
        TupleId b = static_cast<TupleId>(j);
        if (pair_violates(a, b)) report(a, b);
      }
    }
    if (budget == 0) {
      if (truncated != nullptr) *truncated = true;
      HOLO_LOG(kWarning) << "fallback pair budget exhausted for DC "
                         << dc.name;
    }
    return out;
  }

  // Hash blocking on the cross-equality ids, scanning the decoded columns
  // directly. Keys and bucket order match the row-at-a-time reference, so
  // the violation sequence is identical; tuples failing their single-role
  // mask are dropped before pairing (their pairs cannot violate).
  std::vector<const std::vector<ValueId>*> key_cols[2];
  for (const auto& cp : plan.cross_eq) {
    // Role 0 reads the attr the predicate gives t1, role 1 the t2 attr.
    AttrId a0 = cp.lhs_tuple == 0 ? cp.lhs_attr : cp.rhs_attr;
    AttrId a1 = cp.lhs_tuple == 0 ? cp.rhs_attr : cp.lhs_attr;
    key_cols[0].push_back(&table_->Column(a0));
    key_cols[1].push_back(&table_->Column(a1));
  }
  auto key_for = [&](size_t t, int role) {
    return BlockingKey(key_cols[role], t);
  };

  std::unordered_map<uint64_t, std::vector<TupleId>> t2_buckets;
  t2_buckets.reserve(n);
  for (size_t t = 0; t < n; ++t) {
    if (!plan.ok[1][t]) continue;
    uint64_t key = key_for(t, 1);
    if (key != 0) t2_buckets[key].push_back(static_cast<TupleId>(t));
  }
  for (size_t t = 0; t < n; ++t) {
    if (!plan.ok[0][t]) continue;
    uint64_t key = key_for(t, 0);
    if (key == 0) continue;
    auto it = t2_buckets.find(key);
    if (it == t2_buckets.end()) continue;
    TupleId a = static_cast<TupleId>(t);
    for (TupleId b : it->second) {
      if (a == b) continue;
      if (pair_violates(a, b)) report(a, b);
    }
  }
  return out;
}

DcViolations ViolationDetector::DetectBlocks(int dc_index,
                                             AttrId target) const {
  const DenialConstraint& dc = (*dcs_)[static_cast<size_t>(dc_index)];
  const size_t n = table_->num_rows();
  std::vector<const std::vector<ValueId>*> key_cols;
  for (const Predicate* p : dc.CrossEqualities()) {
    key_cols.push_back(&table_->Column(p->lhs_attr));
  }
  const ColumnStore::Column& col =
      table_->store().column(static_cast<size_t>(target));

  // Group the tuples with a non-null ≠ value by key, in first-member
  // order. Keys hash like the pair scan's blocking (a key hashing to 0
  // never blocks there, so not here either); members are then compared on
  // the key ids, so colliding keys get separate blocks.
  auto same_key = [&](size_t x, size_t y) {
    for (const std::vector<ValueId>* c : key_cols) {
      if ((*c)[x] != (*c)[y]) return false;
    }
    return true;
  };
  std::unordered_map<uint64_t, int32_t> last_block;  // Per hash.
  std::vector<int32_t> prev_same_hash;                // Per block.
  std::vector<std::vector<TupleId>> blocks;
  for (size_t t = 0; t < n; ++t) {
    if (col.codes[t] == 0) continue;  // A NULL ≠ operand never violates.
    const uint64_t key = BlockingKey(key_cols, t);
    if (key == 0) continue;
    int32_t& head = last_block.try_emplace(key, -1).first->second;
    int32_t b = head;
    while (b >= 0 && !same_key(static_cast<size_t>(
                                   blocks[static_cast<size_t>(b)].front()),
                               t)) {
      b = prev_same_hash[static_cast<size_t>(b)];
    }
    if (b < 0) {
      b = static_cast<int32_t>(blocks.size());
      blocks.emplace_back();
      prev_same_hash.push_back(head);
      head = b;
    }
    blocks[static_cast<size_t>(b)].push_back(static_cast<TupleId>(t));
  }

  // A block conflicts when it holds two distinct values; its member pairs
  // with different values are its violations: (k² − Σ c²) / 2.
  DcViolations out;
  std::vector<uint64_t> counts(col.num_codes(), 0);
  auto count_of = [&](TupleId t) -> uint64_t& {
    return counts[static_cast<size_t>(col.codes[static_cast<size_t>(t)])];
  };
  for (std::vector<TupleId>& block : blocks) {
    const uint64_t k = block.size();
    uint64_t sum_sq = 0;
    for (TupleId t : block) ++count_of(t);
    for (TupleId t : block) {
      sum_sq += count_of(t) * count_of(t);
      count_of(t) = 0;
    }
    if (sum_sq == k * k) continue;
    out.count += (k * k - sum_sq) / 2;
    out.blocks.push_back(std::move(block));
  }
  return out;
}

DetectArtifacts ViolationDetector::DetectSet() const {
  DetectArtifacts out;
  std::vector<DcViolations>& per_dc = out.violations.per_dc;
  per_dc.resize(dcs_->size());
  std::vector<AttrId> targets(dcs_->size(), -1);
  for (size_t i = 0; i < dcs_->size(); ++i) {
    const DenialConstraint& dc = (*dcs_)[i];
    // Without a cross equality the pair scan is the budgeted full scan,
    // whose truncation the blocks could not reproduce.
    if (!dc.CrossEqualities().empty()) targets[i] = dc.FdTargetAttr();
  }
  ForEachDc([&](size_t i) {
    if (targets[i] >= 0) {
      per_dc[i] = DetectBlocks(static_cast<int>(i), targets[i]);
    } else {
      per_dc[i].pairs = ScanPairs(static_cast<int>(i), &per_dc[i].truncated);
      per_dc[i].count = per_dc[i].pairs.size();
    }
  });
  // The noisy set in DetectAll's first-seen order: constraint by
  // constraint, sequentially.
  for (size_t i = 0; i < dcs_->size(); ++i) {
    const DenialConstraint& dc = (*dcs_)[i];
    const auto tmpl = CellTemplate(dc, dc.IsTwoTuple());
    for (const auto& [a, b] : per_dc[i].pairs) {
      for (const auto& [role, attr] : tmpl) {
        out.noisy.Add({role == 0 ? a : b, attr});
      }
    }
    if (targets[i] >= 0) {
      AddBlockCells(per_dc[i].blocks, tmpl, table_->Column(targets[i]),
                    &out.noisy);
    }
  }
  return out;
}

DetectResult ViolationDetector::DetectAll() const {
  std::vector<std::vector<Violation>> per_dc(dcs_->size());
  std::vector<uint8_t> truncated(dcs_->size(), 0);
  ForEachDc([&](size_t i) {
    const DenialConstraint& dc = (*dcs_)[i];
    const auto tmpl = CellTemplate(dc, dc.IsTwoTuple());
    bool t = false;
    for (const auto& [a, b] : ScanPairs(static_cast<int>(i), &t)) {
      Violation v;
      v.dc_index = static_cast<int>(i);
      v.t1 = a;
      v.t2 = b;
      v.cells.reserve(tmpl.size());
      for (const auto& [role, attr] : tmpl) {
        v.cells.push_back({role == 0 ? a : b, attr});
      }
      per_dc[i].push_back(std::move(v));
    }
    truncated[i] = t ? 1 : 0;
  });
  DetectResult result;
  size_t total = 0;
  for (const auto& part : per_dc) total += part.size();
  result.violations.reserve(total);
  for (auto& part : per_dc) {
    result.violations.insert(result.violations.end(),
                             std::make_move_iterator(part.begin()),
                             std::make_move_iterator(part.end()));
  }
  for (size_t i = 0; i < truncated.size(); ++i) {
    if (truncated[i]) result.truncated_dcs.push_back(static_cast<int>(i));
  }
  return result;
}

std::vector<Violation> ViolationDetector::Detect() const {
  return DetectAll().violations;
}

NoisyCells ViolationDetector::NoisyFromViolations(
    const std::vector<Violation>& violations) {
  NoisyCells noisy;
  for (const Violation& v : violations) {
    for (const CellRef& c : v.cells) noisy.Add(c);
  }
  return noisy;
}

}  // namespace holoclean
