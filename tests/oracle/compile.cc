#include <algorithm>
#include <set>
#include <sstream>
#include <unordered_map>

#include "holoclean/model/feature_registry.h"
#include "holoclean/util/union_find.h"
#include "oracle.h"

namespace holoclean {
namespace oracle {

TupleGroups BuildTupleGroups(size_t num_tuples, size_t num_dcs,
                             const std::vector<Violation>& violations) {
  TupleGroups out;
  out.groups_per_dc.resize(num_dcs);
  for (size_t dc = 0; dc < num_dcs; ++dc) {
    UnionFind uf(num_tuples);
    std::vector<bool> touched(num_tuples, false);
    for (const Violation& v : violations) {
      if (static_cast<size_t>(v.dc_index) != dc) continue;
      touched[static_cast<size_t>(v.t1)] = true;
      touched[static_cast<size_t>(v.t2)] = true;
      uf.Union(static_cast<size_t>(v.t1), static_cast<size_t>(v.t2));
    }
    std::unordered_map<size_t, std::vector<TupleId>> components;
    for (size_t t = 0; t < num_tuples; ++t) {
      if (!touched[t]) continue;
      components[uf.Find(t)].push_back(static_cast<TupleId>(t));
    }
    auto& groups = out.groups_per_dc[dc];
    for (auto& [root, members] : components) {
      if (members.size() < 2) continue;
      std::sort(members.begin(), members.end());
      groups.push_back(std::move(members));
    }
    std::sort(groups.begin(), groups.end());
  }
  return out;
}

CooccurrenceCounts CountCooccurrence(const Table& table,
                                     const std::vector<AttrId>& attrs) {
  // Pair counts go into one hash map keyed by the packed (attr, context
  // attr, value, context value) — [a:8][a_ctx:8][v:24][v_ctx:24] — then
  // regroup per context.
  constexpr uint64_t kMask = (1ULL << 24) - 1;
  auto pack = [&](AttrId a, AttrId a_ctx, ValueId v, ValueId v_ctx) {
    return (static_cast<uint64_t>(a) << 56) |
           (static_cast<uint64_t>(a_ctx) << 48) |
           ((static_cast<uint64_t>(v) & kMask) << 24) |
           (static_cast<uint64_t>(v_ctx) & kMask);
  };
  CooccurrenceCounts counts;
  std::unordered_map<uint64_t, int> pair_counts;
  std::map<AttrId, std::set<ValueId>> domains;
  for (size_t t = 0; t < table.num_rows(); ++t) {
    const TupleId tid = static_cast<TupleId>(t);
    for (AttrId a : attrs) {
      ValueId v = table.Get(tid, a);
      if (v == Dictionary::kNull) continue;
      ++counts.value_counts[{a, v}];
      counts.codes[{a, v}] = table.store().column(static_cast<size_t>(a))
                                 .codes[static_cast<size_t>(t)];
      domains[a].insert(v);
      for (AttrId a_ctx : attrs) {
        if (a_ctx == a) continue;
        ValueId v_ctx = table.Get(tid, a_ctx);
        if (v_ctx == Dictionary::kNull) continue;
        ++pair_counts[pack(a, a_ctx, v, v_ctx)];
      }
    }
  }
  for (const auto& [key, count] : pair_counts) {
    counts.pairs[{static_cast<AttrId>(key >> 56),
                  static_cast<AttrId>((key >> 48) & 0xFF),
                  static_cast<ValueId>(key & kMask)}]
        .emplace_back(static_cast<ValueId>((key >> 24) & kMask), count);
  }
  for (auto& [key, values] : counts.pairs) {
    std::sort(values.begin(), values.end());
  }
  counts.num_pair_entries = pair_counts.size();
  for (AttrId a : attrs) {
    counts.domains[a] =
        std::vector<ValueId>(domains[a].begin(), domains[a].end());
  }
  return counts;
}

namespace {

bool SameRun(CooccurrenceStats::Run run,
             const std::vector<std::pair<ValueId, int>>& expected) {
  return std::equal(run.begin(), run.end(), expected.begin(), expected.end());
}

}  // namespace

std::string DiffCooccurrence(const CooccurrenceStats& stats,
                             const CooccurrenceCounts& counts,
                             const std::vector<AttrId>& attrs) {
  std::ostringstream diff;
  if (stats.num_pair_entries() != counts.num_pair_entries) {
    diff << "num_pair_entries " << stats.num_pair_entries() << " vs recount "
         << counts.num_pair_entries;
    return diff.str();
  }
  static const std::vector<std::pair<ValueId, int>> kNone;
  for (AttrId a : attrs) {
    const std::vector<ValueId>& domain = counts.domains.at(a);
    if (stats.Domain(a) != domain) {
      diff << "domain of attr " << a << " differs";
      return diff.str();
    }
    for (ValueId v : domain) {
      if (stats.Count(a, v) != counts.value_counts.at({a, v})) {
        diff << "Count(" << a << ", " << v << ") " << stats.Count(a, v)
             << " vs recount " << counts.value_counts.at({a, v});
        return diff.str();
      }
      const Code code = counts.codes.at({a, v});
      if (stats.CountOfCode(a, code) != stats.Count(a, v)) {
        diff << "CountOfCode(" << a << ", " << code << ") "
             << stats.CountOfCode(a, code) << " vs Count(" << a << ", " << v
             << ") " << stats.Count(a, v);
        return diff.str();
      }
    }
    // NULL is never counted, and no run belongs to it.
    if (stats.CountOfCode(a, 0) != 0) {
      diff << "CountOfCode(" << a << ", NULL) is not 0";
      return diff.str();
    }
    for (AttrId a_ctx : attrs) {
      if (a_ctx != a && (!stats.RunByValue(a_ctx, a, 0).empty() ||
                         !stats.RunByCount(a_ctx, a, 0).empty())) {
        diff << "attr " << a_ctx << " has a run for NULL in attr " << a;
        return diff.str();
      }
    }
  }
  // Every context a consumer can ask about is an observed value, so
  // walking the domains covers every list the statistics can return.
  for (AttrId a : attrs) {
    for (AttrId a_ctx : attrs) {
      if (a_ctx == a) continue;
      for (ValueId v_ctx : counts.domains.at(a_ctx)) {
        auto it = counts.pairs.find({a, a_ctx, v_ctx});
        const auto& expected = it == counts.pairs.end() ? kNone : it->second;
        if (!SameRun(stats.CooccurringValues(a, a_ctx, v_ctx), expected)) {
          diff << "CooccurringValues(" << a << ", " << a_ctx << ", " << v_ctx
               << ") differs";
          return diff.str();
        }
        // The code-addressed runs are the same list: by value, and by count
        // descending with ties ascending by value.
        const Code code = counts.codes.at({a_ctx, v_ctx});
        if (!SameRun(stats.RunByValue(a, a_ctx, code), expected)) {
          diff << "RunByValue(" << a << ", " << a_ctx << ", code " << code
               << ") differs from CooccurringValues";
          return diff.str();
        }
        std::vector<std::pair<ValueId, int>> by_count = expected;
        std::sort(by_count.begin(), by_count.end(),
                  [](const auto& x, const auto& y) {
                    return x.second != y.second ? x.second > y.second
                                                : x.first < y.first;
                  });
        if (!SameRun(stats.RunByCount(a, a_ctx, code), by_count)) {
          diff << "RunByCount(" << a << ", " << a_ctx << ", code " << code
               << ") is not the recount sorted by count";
          return diff.str();
        }
        const double ctx_count = counts.value_counts.at({a_ctx, v_ctx});
        for (const auto& [v, count] : expected) {
          if (stats.PairCount(a, v, a_ctx, v_ctx) != count ||
              stats.CondProb(a, v, a_ctx, v_ctx) !=
                  static_cast<double>(count) / ctx_count) {
            diff << "PairCount/CondProb(" << a << ", " << v << ", " << a_ctx
                 << ", " << v_ctx << ") differs";
            return diff.str();
          }
        }
      }
    }
  }
  return "";
}

PrunedDomains PruneDomains(const Table& table,
                           const std::vector<CellRef>& cells,
                           const std::vector<AttrId>& attrs,
                           const CooccurrenceStats& cooc,
                           const DomainPruningOptions& options) {
  PrunedDomains out;
  for (const CellRef& cell : cells) {
    // Score each candidate by its best co-occurrence count so the cap keeps
    // the strongest candidates deterministically.
    std::unordered_map<ValueId, int> scores;
    bool has_context = false;
    for (AttrId a_ctx : attrs) {
      if (a_ctx == cell.attr) continue;
      ValueId v_ctx = table.Get(cell.tid, a_ctx);
      if (v_ctx == Dictionary::kNull) continue;
      int ctx_count = cooc.Count(a_ctx, v_ctx);
      if (ctx_count == 0) continue;
      has_context = true;
      for (const auto& [v, pair_count] :
           cooc.CooccurringValues(cell.attr, a_ctx, v_ctx)) {
        if (static_cast<double>(pair_count) >=
            options.tau * static_cast<double>(ctx_count)) {
          int& best = scores[v];
          best = std::max(best, pair_count);
        }
      }
    }
    if (!has_context && options.frequency_fallback) {
      for (ValueId v : cooc.Domain(cell.attr)) {
        scores[v] = cooc.Count(cell.attr, v);
      }
    }

    std::vector<std::pair<ValueId, int>> ranked(scores.begin(), scores.end());
    std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
      return a.second != b.second ? a.second > b.second : a.first < b.first;
    });
    if (ranked.size() > options.max_candidates) {
      ranked.resize(options.max_candidates);
    }

    std::vector<ValueId> candidates;
    candidates.reserve(ranked.size() + 1);
    ValueId init = table.Get(cell);
    if (init != Dictionary::kNull) candidates.push_back(init);
    for (const auto& [v, score] : ranked) {
      if (v != init) candidates.push_back(v);
    }
    if (candidates.empty()) candidates.push_back(init);
    out.candidates.emplace(cell, std::move(candidates));
  }
  return out;
}

std::string DiffCondProbFeatures(const FactorGraph& graph, const Table& table,
                                 const std::vector<AttrId>& attrs,
                                 const CooccurrenceStats& cooc) {
  for (size_t v = 0; v < graph.num_variables(); ++v) {
    const Variable& var = graph.variable(static_cast<int>(v));
    for (size_t k = 0; k < var.NumCandidates(); ++k) {
      std::vector<std::pair<uint64_t, float>> expected;
      for (AttrId a_ctx : attrs) {
        if (a_ctx == var.cell.attr) continue;
        ValueId v_ctx = table.Get(var.cell.tid, a_ctx);
        if (v_ctx == Dictionary::kNull) continue;
        double p = cooc.CondProb(var.cell.attr, var.domain[k], a_ctx, v_ctx);
        if (p > 0.0) {
          expected.emplace_back(
              WeightKeyCodec::Pack(FeatureKind::kCondProb,
                                   static_cast<uint32_t>(var.cell.attr),
                                   static_cast<uint32_t>(a_ctx), 0, 0),
              static_cast<float>(p));
        }
      }
      std::vector<std::pair<uint64_t, float>> got;
      for (int32_t i = var.feat_begin[k]; i < var.feat_begin[k + 1]; ++i) {
        const FeatureInstance& f = var.features[static_cast<size_t>(i)];
        if (WeightKeyCodec::Kind(f.weight_key) == FeatureKind::kCondProb) {
          got.emplace_back(f.weight_key, f.activation);
        }
      }
      if (got != expected) {
        std::ostringstream diff;
        diff << "kCondProb features of var " << v << " candidate " << k
             << ": " << got.size() << " emitted, " << expected.size()
             << " expected (or values differ)";
        return diff.str();
      }
    }
  }
  return "";
}

}  // namespace oracle
}  // namespace holoclean
