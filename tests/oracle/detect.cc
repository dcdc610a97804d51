#include <sstream>
#include <unordered_map>
#include <unordered_set>

#include "holoclean/util/hash.h"
#include "oracle.h"

namespace holoclean {
namespace oracle {

namespace {

Violation MakeViolation(const DenialConstraint& dc, int dc_index, TupleId t1,
                        TupleId t2) {
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

std::vector<Violation> DetectSingleTuple(const Table& table,
                                         const DenialConstraint& dc,
                                         int dc_index,
                                         const DcEvaluator& evaluator) {
  std::vector<Violation> out;
  for (size_t t = 0; t < table.num_rows(); ++t) {
    TupleId tid = static_cast<TupleId>(t);
    if (evaluator.ViolatesSingle(dc, tid)) {
      out.push_back(MakeViolation(dc, dc_index, tid, tid));
    }
  }
  return out;
}

std::vector<Violation> DetectTwoTuple(const Table& table,
                                      const DenialConstraint& dc,
                                      int dc_index,
                                      const DcEvaluator& evaluator,
                                      size_t max_fallback_pairs,
                                      bool* truncated) {
  std::vector<Violation> out;
  auto equalities = dc.CrossEqualities();
  size_t n = table.num_rows();

  // Deduplicate on unordered tuple pairs: if both (x,y) and (y,x) violate,
  // one edge carries the same repair information.
  std::unordered_set<uint64_t> reported;
  auto report = [&](TupleId a, TupleId b) {
    uint64_t lo = static_cast<uint32_t>(std::min(a, b));
    uint64_t hi = static_cast<uint32_t>(std::max(a, b));
    if (reported.insert((hi << 32) | lo).second) {
      out.push_back(MakeViolation(dc, dc_index, a, b));
    }
  };

  if (equalities.empty()) {
    size_t budget = max_fallback_pairs;
    for (size_t i = 0; i < n && budget > 0; ++i) {
      for (size_t j = 0; j < n && budget > 0; ++j) {
        if (i == j) continue;
        --budget;
        TupleId a = static_cast<TupleId>(i);
        TupleId b = static_cast<TupleId>(j);
        if (evaluator.Violates(dc, a, b)) report(a, b);
      }
    }
    if (budget == 0) *truncated = true;
    return out;
  }

  // Hash blocking: a tuple pair can only violate the DC if it agrees on all
  // cross-tuple equality predicates. Key tuples by their t1-role values and
  // t2-role values separately (attributes may differ across roles).
  auto key_for = [&](TupleId t, int role) -> uint64_t {
    uint64_t h = 0x9E3779B97F4A7C15ULL;
    for (const Predicate* p : equalities) {
      AttrId attr;
      if (role == 0) {
        attr = p->lhs_tuple == 0 ? p->lhs_attr : p->rhs_attr;
      } else {
        attr = p->lhs_tuple == 1 ? p->lhs_attr : p->rhs_attr;
      }
      ValueId v = table.Get(t, attr);
      if (v == Dictionary::kNull) return 0;  // NULL never matches.
      h = HashCombine(h, static_cast<uint64_t>(static_cast<uint32_t>(v)));
    }
    return h;
  };

  std::unordered_map<uint64_t, std::vector<TupleId>> t2_buckets;
  t2_buckets.reserve(n);
  for (size_t t = 0; t < n; ++t) {
    uint64_t key = key_for(static_cast<TupleId>(t), 1);
    if (key != 0) t2_buckets[key].push_back(static_cast<TupleId>(t));
  }
  for (size_t t = 0; t < n; ++t) {
    TupleId a = static_cast<TupleId>(t);
    uint64_t key = key_for(a, 0);
    if (key == 0) continue;
    auto it = t2_buckets.find(key);
    if (it == t2_buckets.end()) continue;
    for (TupleId b : it->second) {
      if (a == b) continue;
      if (evaluator.Violates(dc, a, b)) report(a, b);
    }
  }
  return out;
}

}  // namespace

DetectResult DetectViolations(const Table& table,
                              const std::vector<DenialConstraint>& dcs,
                              double sim_threshold,
                              size_t max_fallback_pairs) {
  DcEvaluator evaluator(&table, sim_threshold);
  DetectResult result;
  for (size_t i = 0; i < dcs.size(); ++i) {
    const int dc_index = static_cast<int>(i);
    bool truncated = false;
    std::vector<Violation> part =
        dcs[i].IsTwoTuple()
            ? DetectTwoTuple(table, dcs[i], dc_index, evaluator,
                             max_fallback_pairs, &truncated)
            : DetectSingleTuple(table, dcs[i], dc_index, evaluator);
    for (Violation& v : part) result.violations.push_back(std::move(v));
    if (truncated) result.truncated_dcs.push_back(dc_index);
  }
  return result;
}

std::string DiffViolations(const std::vector<Violation>& got,
                           const std::vector<Violation>& expected) {
  if (got.size() != expected.size()) {
    std::ostringstream diff;
    diff << got.size() << " violations, reference " << expected.size();
    return diff.str();
  }
  for (size_t i = 0; i < got.size(); ++i) {
    const Violation& x = got[i];
    const Violation& y = expected[i];
    if (x.dc_index != y.dc_index || x.t1 != y.t1 || x.t2 != y.t2 ||
        x.cells != y.cells) {
      return "violation " + std::to_string(i) + " differs";
    }
  }
  return "";
}

std::string DiffViolationSet(const ViolationSet& got,
                             const NoisyCells& got_noisy,
                             const DetectResult& expected,
                             size_t num_tuples) {
  const size_t num_dcs = got.per_dc.size();
  std::vector<std::vector<std::pair<TupleId, TupleId>>> pairs(num_dcs);
  for (const Violation& v : expected.violations) {
    if (v.dc_index < 0 || static_cast<size_t>(v.dc_index) >= num_dcs) {
      return "reference violation of constraint " +
             std::to_string(v.dc_index) + " outside the set";
    }
    pairs[static_cast<size_t>(v.dc_index)].emplace_back(v.t1, v.t2);
  }
  for (size_t d = 0; d < num_dcs; ++d) {
    const DcViolations& dc = got.per_dc[d];
    if (dc.count != pairs[d].size()) {
      std::ostringstream diff;
      diff << "constraint " << d << ": " << dc.count << " violations, reference "
           << pairs[d].size();
      return diff.str();
    }
    if (dc.blocks.empty() && dc.pairs != pairs[d]) {
      return "constraint " + std::to_string(d) + ": pairs differ";
    }
  }
  if (got.TruncatedDcs() != expected.truncated_dcs) {
    return "truncated constraints differ";
  }
  NoisyCells noisy;
  for (const Violation& v : expected.violations) {
    for (const CellRef& c : v.cells) noisy.Add(c);
  }
  if (got_noisy.cells() != noisy.cells()) {
    const auto& a = got_noisy.cells();
    const auto& b = noisy.cells();
    size_t i = 0;
    while (i < a.size() && i < b.size() && a[i] == b[i]) ++i;
    std::ostringstream diff;
    diff << "noisy cells differ at position " << i << " (" << a.size()
         << " cells, reference " << b.size() << ")";
    return diff.str();
  }
  if (holoclean::BuildTupleGroups(num_tuples, num_dcs, got).groups_per_dc !=
      BuildTupleGroups(num_tuples, num_dcs, expected.violations)
          .groups_per_dc) {
    return "tuple groups differ";
  }
  return "";
}

}  // namespace oracle
}  // namespace holoclean
