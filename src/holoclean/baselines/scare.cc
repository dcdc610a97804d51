#include "holoclean/baselines/scare.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "holoclean/stats/cooccurrence.h"

namespace holoclean {

namespace {

// Log-likelihood of value v for attribute a given the tuple's other
// attribute values, Σ_ctx log P(v | v_ctx), with Laplace smoothing scaled
// by the attribute's domain size so rare values cannot win on smoothing
// mass alone.
double LogLikelihood(const CooccurrenceStats& cooc, const Table& table,
                     const std::vector<AttrId>& attrs, TupleId t, AttrId a,
                     ValueId v, double smoothing, size_t num_rows) {
  double domain = static_cast<double>(cooc.Domain(a).size()) + 1.0;
  double ll = std::log((cooc.Count(a, v) + smoothing) /
                       (static_cast<double>(num_rows) + smoothing * domain));
  for (AttrId a_ctx : attrs) {
    if (a_ctx == a) continue;
    ValueId v_ctx = table.Get(t, a_ctx);
    if (v_ctx == Dictionary::kNull) continue;
    int pair = cooc.PairCount(a, v, a_ctx, v_ctx);
    int ctx_count = cooc.Count(a_ctx, v_ctx);
    ll += std::log((pair + smoothing) / (ctx_count + smoothing * domain));
  }
  return ll;
}

}  // namespace

std::vector<Repair> Scare::Run(const Dataset& dataset) const {
  const Table& table = dataset.dirty();
  std::vector<AttrId> attrs = dataset.RepairableAttrs();
  CooccurrenceStats cooc = CooccurrenceStats::BuildColumnar(table, attrs);
  size_t num_rows = table.num_rows();

  std::vector<Repair> repairs;
  for (size_t t = 0; t < num_rows; ++t) {
    TupleId tid = static_cast<TupleId>(t);
    // Rank candidate modifications of this tuple by likelihood gain and
    // apply the top `max_changes_per_tuple`.
    std::vector<std::pair<double, Repair>> proposals;
    for (AttrId a : attrs) {
      ValueId observed = table.Get(tid, a);
      if (observed == Dictionary::kNull) continue;
      double observed_ll = LogLikelihood(cooc, table, attrs, tid, a, observed,
                                         options_.smoothing, num_rows);
      // Candidate replacements: values co-occurring with the tuple context.
      std::unordered_map<ValueId, bool> seen;
      double best_ll = observed_ll;
      ValueId best_value = observed;
      for (AttrId a_ctx : attrs) {
        if (a_ctx == a) continue;
        ValueId v_ctx = table.Get(tid, a_ctx);
        if (v_ctx == Dictionary::kNull) continue;
        for (const auto& [v, n] : cooc.CooccurringValues(a, a_ctx, v_ctx)) {
          if (v == observed || seen.count(v) > 0) continue;
          seen[v] = true;
          double ll = LogLikelihood(cooc, table, attrs, tid, a, v,
                                    options_.smoothing, num_rows);
          if (ll > best_ll) {
            best_ll = ll;
            best_value = v;
          }
        }
      }
      if (best_value != observed &&
          best_ll - observed_ll >= options_.min_likelihood_gain) {
        proposals.push_back(
            {best_ll - observed_ll, {CellRef{tid, a}, observed, best_value,
                                     1.0}});
      }
    }
    std::sort(proposals.begin(), proposals.end(),
              [](const auto& x, const auto& y) { return x.first > y.first; });
    int applied = 0;
    for (const auto& [gain, repair] : proposals) {
      if (applied >= options_.max_changes_per_tuple) break;
      repairs.push_back(repair);
      ++applied;
    }
  }
  std::sort(repairs.begin(), repairs.end(),
            [](const Repair& a, const Repair& b) { return a.cell < b.cell; });
  return repairs;
}

}  // namespace holoclean
