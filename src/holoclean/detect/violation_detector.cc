#include "holoclean/detect/violation_detector.h"

#include <unordered_map>
#include <unordered_set>

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
/// in first-seen order. Resolving the template once per DC replaces the
/// per-violation hash set MakeViolation needs. For single-tuple violations
/// both roles read the same tuple, so the dedup collapses to the attribute.
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

}  // namespace

ViolationDetector::ViolationDetector(const Table* table,
                                     const std::vector<DenialConstraint>* dcs,
                                     Options options)
    : table_(table),
      dcs_(dcs),
      options_(options),
      evaluator_(table, options.sim_threshold) {}

Violation ViolationDetector::MakeViolation(int dc_index, TupleId t1,
                                           TupleId t2) const {
  const DenialConstraint& dc = (*dcs_)[static_cast<size_t>(dc_index)];
  Violation v;
  v.dc_index = dc_index;
  v.t1 = t1;
  v.t2 = t2;
  std::unordered_set<CellRef, CellRefHash> seen;
  auto add = [&](TupleId t, AttrId a) {
    CellRef c{t, a};
    if (seen.insert(c).second) v.cells.push_back(c);
  };
  for (const Predicate& p : dc.preds) {
    add(p.lhs_tuple == 0 ? t1 : t2, p.lhs_attr);
    if (!p.rhs_is_constant) add(p.rhs_tuple == 0 ? t1 : t2, p.rhs_attr);
  }
  return v;
}

std::vector<Violation> ViolationDetector::DetectSingleTuple(
    int dc_index) const {
  const DenialConstraint& dc = (*dcs_)[static_cast<size_t>(dc_index)];
  // A single-tuple DC references only role 0, so its violations are exactly
  // the tuples passing the role-0 mask.
  ColumnarPlan plan = BuildPlan(*table_, dc, evaluator_);
  const auto tmpl = CellTemplate(dc, /*two_tuple=*/false);
  std::vector<Violation> out;
  for (size_t t = 0; t < table_->num_rows(); ++t) {
    if (plan.ok[0][t]) {
      TupleId tid = static_cast<TupleId>(t);
      Violation v;
      v.dc_index = dc_index;
      v.t1 = tid;
      v.t2 = tid;
      v.cells.reserve(tmpl.size());
      for (const auto& [role, attr] : tmpl) v.cells.push_back({tid, attr});
      out.push_back(std::move(v));
    }
  }
  return out;
}

std::vector<Violation> ViolationDetector::DetectTwoTuple(
    int dc_index, bool* truncated) const {
  const DenialConstraint& dc = (*dcs_)[static_cast<size_t>(dc_index)];
  std::vector<Violation> out;
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

  const auto tmpl = CellTemplate(dc, /*two_tuple=*/true);
  PairSet reported;
  auto report = [&](TupleId a, TupleId b) {
    uint64_t lo = static_cast<uint32_t>(std::min(a, b));
    uint64_t hi = static_cast<uint32_t>(std::max(a, b));
    if (reported.Insert((hi << 32) | lo)) {
      Violation v;
      v.dc_index = dc_index;
      v.t1 = a;
      v.t2 = b;
      v.cells.reserve(tmpl.size());
      for (const auto& [role, attr] : tmpl) {
        v.cells.push_back({role == 0 ? a : b, attr});
      }
      out.push_back(std::move(v));
    }
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
  auto key_for = [&](size_t t, int role) -> uint64_t {
    uint64_t h = 0x9E3779B97F4A7C15ULL;
    for (const std::vector<ValueId>* vals : key_cols[role]) {
      ValueId v = (*vals)[t];
      if (v == Dictionary::kNull) return 0;  // NULL never matches.
      h = HashCombine(h, static_cast<uint64_t>(static_cast<uint32_t>(v)));
    }
    return h;
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

std::vector<Violation> ViolationDetector::DetectOneImpl(int dc_index,
                                                        bool* truncated) const {
  const DenialConstraint& dc = (*dcs_)[static_cast<size_t>(dc_index)];
  return dc.IsTwoTuple() ? DetectTwoTuple(dc_index, truncated)
                         : DetectSingleTuple(dc_index);
}

std::vector<Violation> ViolationDetector::DetectOne(int dc_index) const {
  bool truncated = false;
  return DetectOneImpl(dc_index, &truncated);
}

DetectResult ViolationDetector::DetectAll() const {
  std::vector<std::vector<Violation>> per_dc(dcs_->size());
  std::vector<uint8_t> truncated(dcs_->size(), 0);
  auto run = [&](size_t i) {
    bool t = false;
    per_dc[i] = DetectOneImpl(static_cast<int>(i), &t);
    truncated[i] = t ? 1 : 0;
  };
  if (options_.pool != nullptr && dcs_->size() > 1) {
    options_.pool->ParallelFor(dcs_->size(), run);
  } else {
    for (size_t i = 0; i < dcs_->size(); ++i) run(i);
  }
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

// --- Block-limited delta detection ------------------------------------------
//
// A full blocked scan reports pairs in (outer tuple ascending, bucket
// position ascending) order, buckets are filled by ascending tuple id, and
// a pair's orientation is fixed by its first VIOLATING check — so every
// per-DC violation list is sorted by (t1, t2), and the checks involving a
// given tuple set form a contiguous-by-sort-key subsequence. The delta
// paths below reproduce exactly that subsequence (same check order, same
// dedup semantics), which makes cached + delta == full scan, including
// order. Delta evaluation calls the evaluator per pair; its verdicts are
// pinned bit-identical to the columnar plan by the differential tests, and
// bucket masking in the full scan only skips checks that could never
// violate, so the violating-check sequence is the same.

std::vector<Violation> ViolationDetector::DeltaTwoTupleAppended(
    int dc_index, size_t old_rows) const {
  const DenialConstraint& dc = (*dcs_)[static_cast<size_t>(dc_index)];
  auto equalities = dc.CrossEqualities();
  const size_t n = table_->num_rows();

  auto key_for = [&](TupleId t, int role) -> uint64_t {
    uint64_t h = 0x9E3779B97F4A7C15ULL;
    for (const Predicate* p : equalities) {
      AttrId attr;
      if (role == 0) {
        attr = p->lhs_tuple == 0 ? p->lhs_attr : p->rhs_attr;
      } else {
        attr = p->lhs_tuple == 1 ? p->lhs_attr : p->rhs_attr;
      }
      ValueId v = table_->Get(t, attr);
      if (v == Dictionary::kNull) return 0;  // NULL never matches.
      h = HashCombine(h, static_cast<uint64_t>(static_cast<uint32_t>(v)));
    }
    return h;
  };

  std::vector<Violation> out;
  PairSet reported;
  auto check = [&](TupleId a, TupleId b) {
    if (a == b) return;
    if (!evaluator_.Violates(dc, a, b)) return;
    uint64_t lo = static_cast<uint32_t>(std::min(a, b));
    uint64_t hi = static_cast<uint32_t>(std::max(a, b));
    if (reported.Insert((hi << 32) | lo)) {
      out.push_back(MakeViolation(dc_index, a, b));
    }
  };

  // Phase 1: old outer tuples whose role-1 bucket gained new partners. In
  // the full scan these checks happen at outer a — after a's old partners
  // (cached) and before any new outer — so evaluating them in (a, b) order
  // slots them exactly where the full scan discovers them.
  std::unordered_map<uint64_t, std::vector<TupleId>> old_role0;
  old_role0.reserve(old_rows);
  for (size_t t = 0; t < old_rows; ++t) {
    uint64_t key = key_for(static_cast<TupleId>(t), 0);
    if (key != 0) old_role0[key].push_back(static_cast<TupleId>(t));
  }
  std::vector<std::pair<TupleId, TupleId>> pairs;
  for (size_t b = old_rows; b < n; ++b) {
    uint64_t key = key_for(static_cast<TupleId>(b), 1);
    if (key == 0) continue;
    auto it = old_role0.find(key);
    if (it == old_role0.end()) continue;
    for (TupleId a : it->second) {
      pairs.emplace_back(a, static_cast<TupleId>(b));
    }
  }
  std::sort(pairs.begin(), pairs.end());
  for (const auto& [a, b] : pairs) check(a, b);

  // Phase 2: new outer tuples against the full role-1 buckets, ascending —
  // the tail of the full scan's outer loop.
  std::unordered_map<uint64_t, std::vector<TupleId>> t2_buckets;
  t2_buckets.reserve(n);
  for (size_t t = 0; t < n; ++t) {
    uint64_t key = key_for(static_cast<TupleId>(t), 1);
    if (key != 0) t2_buckets[key].push_back(static_cast<TupleId>(t));
  }
  for (size_t a = old_rows; a < n; ++a) {
    uint64_t key = key_for(static_cast<TupleId>(a), 0);
    if (key == 0) continue;
    auto it = t2_buckets.find(key);
    if (it == t2_buckets.end()) continue;
    for (TupleId b : it->second) check(static_cast<TupleId>(a), b);
  }
  return out;
}

std::vector<Violation> ViolationDetector::DeltaTwoTupleChanged(
    int dc_index, TupleId changed) const {
  const DenialConstraint& dc = (*dcs_)[static_cast<size_t>(dc_index)];
  auto equalities = dc.CrossEqualities();
  const size_t n = table_->num_rows();

  auto key_for = [&](TupleId t, int role) -> uint64_t {
    uint64_t h = 0x9E3779B97F4A7C15ULL;
    for (const Predicate* p : equalities) {
      AttrId attr;
      if (role == 0) {
        attr = p->lhs_tuple == 0 ? p->lhs_attr : p->rhs_attr;
      } else {
        attr = p->lhs_tuple == 1 ? p->lhs_attr : p->rhs_attr;
      }
      ValueId v = table_->Get(t, attr);
      if (v == Dictionary::kNull) return 0;
      h = HashCombine(h, static_cast<uint64_t>(static_cast<uint32_t>(v)));
    }
    return h;
  };

  std::vector<Violation> out;
  PairSet reported;
  auto check = [&](TupleId a, TupleId b) {
    if (a == b) return;
    if (!evaluator_.Violates(dc, a, b)) return;
    uint64_t lo = static_cast<uint32_t>(std::min(a, b));
    uint64_t hi = static_cast<uint32_t>(std::max(a, b));
    if (reported.Insert((hi << 32) | lo)) {
      out.push_back(MakeViolation(dc_index, a, b));
    }
  };

  // The full scan checks (a, changed) at every outer a whose role-0 key
  // matches the changed tuple's role-1 key, and (changed, b) at outer
  // `changed` against its role-0 key's bucket. Reproduce those checks in
  // outer order: a < changed first, then the changed tuple's own outer
  // block, then a > changed.
  const uint64_t k1_changed = key_for(changed, 1);
  const uint64_t k0_changed = key_for(changed, 0);
  std::vector<TupleId> outers;    // a with key0(a) == key1(changed)
  std::vector<TupleId> partners;  // b with key1(b) == key0(changed)
  for (size_t t = 0; t < n; ++t) {
    TupleId tid = static_cast<TupleId>(t);
    if (tid == changed) continue;
    if (k1_changed != 0 && key_for(tid, 0) == k1_changed) {
      outers.push_back(tid);
    }
    if (k0_changed != 0 && key_for(tid, 1) == k0_changed) {
      partners.push_back(tid);
    }
  }
  size_t k = 0;
  while (k < outers.size() && outers[k] < changed) {
    check(outers[k], changed);
    ++k;
  }
  for (TupleId b : partners) check(changed, b);
  for (; k < outers.size(); ++k) check(outers[k], changed);
  return out;
}

std::vector<Violation> ViolationDetector::DeltaOne(int dc_index,
                                                   size_t old_rows,
                                                   TupleId changed,
                                                   bool* recomputed,
                                                   bool* truncated) const {
  const DenialConstraint& dc = (*dcs_)[static_cast<size_t>(dc_index)];
  *recomputed = false;
  if (!dc.IsTwoTuple()) {
    std::vector<Violation> out;
    if (changed >= 0) {
      if (evaluator_.ViolatesSingle(dc, changed)) {
        out.push_back(MakeViolation(dc_index, changed, changed));
      }
    } else {
      for (size_t t = old_rows; t < table_->num_rows(); ++t) {
        TupleId tid = static_cast<TupleId>(t);
        if (evaluator_.ViolatesSingle(dc, tid)) {
          out.push_back(MakeViolation(dc_index, tid, tid));
        }
      }
    }
    return out;
  }
  if (dc.CrossEqualities().empty()) {
    *recomputed = true;
    return DetectOneImpl(dc_index, truncated);
  }
  return changed >= 0 ? DeltaTwoTupleChanged(dc_index, changed)
                      : DeltaTwoTupleAppended(dc_index, old_rows);
}

DeltaDetectResult ViolationDetector::DetectDeltaImpl(size_t old_rows,
                                                     TupleId changed) const {
  DeltaDetectResult result;
  result.per_dc.resize(dcs_->size());
  result.recomputed.assign(dcs_->size(), 0);
  std::vector<uint8_t> truncated(dcs_->size(), 0);
  auto run = [&](size_t i) {
    bool rec = false;
    bool tr = false;
    result.per_dc[i] =
        DeltaOne(static_cast<int>(i), old_rows, changed, &rec, &tr);
    result.recomputed[i] = rec ? 1 : 0;
    truncated[i] = tr ? 1 : 0;
  };
  if (options_.pool != nullptr && dcs_->size() > 1) {
    options_.pool->ParallelFor(dcs_->size(), run);
  } else {
    for (size_t i = 0; i < dcs_->size(); ++i) run(i);
  }
  for (size_t i = 0; i < truncated.size(); ++i) {
    if (truncated[i]) result.truncated_dcs.push_back(static_cast<int>(i));
  }
  return result;
}

DeltaDetectResult ViolationDetector::DetectAppended(size_t old_rows) const {
  return DetectDeltaImpl(old_rows, -1);
}

DeltaDetectResult ViolationDetector::DetectForTuple(TupleId changed) const {
  return DetectDeltaImpl(0, changed);
}

DetectResult ViolationDetector::MergeDeltaImpl(std::vector<Violation> cached,
                                               TupleId changed,
                                               size_t num_dcs,
                                               DeltaDetectResult delta) {
  std::vector<std::vector<Violation>> by_dc(num_dcs);
  for (Violation& v : cached) {
    by_dc[static_cast<size_t>(v.dc_index)].push_back(std::move(v));
  }
  DetectResult out;
  size_t total = 0;
  for (const auto& part : by_dc) total += part.size();
  for (const auto& part : delta.per_dc) total += part.size();
  out.violations.reserve(total);
  for (size_t s = 0; s < num_dcs; ++s) {
    std::vector<Violation>& old_list = by_dc[s];
    std::vector<Violation>& add = delta.per_dc[s];
    if (delta.recomputed[s]) {
      for (Violation& v : add) out.violations.push_back(std::move(v));
      continue;
    }
    // Both lists are (t1, t2)-sorted with disjoint keys (delta pairs all
    // involve delta tuples; the kept cached pairs involve none).
    size_t i = 0;
    size_t j = 0;
    auto before = [](const Violation& x, const Violation& y) {
      return x.t1 != y.t1 ? x.t1 < y.t1 : x.t2 < y.t2;
    };
    while (i < old_list.size() || j < add.size()) {
      if (i < old_list.size() && changed >= 0 &&
          (old_list[i].t1 == changed || old_list[i].t2 == changed)) {
        ++i;  // Stale: superseded by the delta re-detection.
        continue;
      }
      bool take_old = j >= add.size() ||
                      (i < old_list.size() && before(old_list[i], add[j]));
      out.violations.push_back(std::move(take_old ? old_list[i++] : add[j++]));
    }
  }
  out.truncated_dcs = std::move(delta.truncated_dcs);
  return out;
}

DetectResult ViolationDetector::MergeAppendDelta(std::vector<Violation> cached,
                                                 size_t num_dcs,
                                                 DeltaDetectResult delta) {
  return MergeDeltaImpl(std::move(cached), -1, num_dcs, std::move(delta));
}

DetectResult ViolationDetector::MergeTupleDelta(std::vector<Violation> cached,
                                                TupleId changed,
                                                size_t num_dcs,
                                                DeltaDetectResult delta) {
  return MergeDeltaImpl(std::move(cached), changed, num_dcs,
                        std::move(delta));
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
