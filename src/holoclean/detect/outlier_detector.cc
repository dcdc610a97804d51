#include "holoclean/detect/outlier_detector.h"

#include "holoclean/stats/cooccurrence.h"
#include "holoclean/stats/frequency.h"

namespace holoclean {

NoisyCells OutlierDetector::Detect(const Dataset& dataset) const {
  NoisyCells noisy;
  const Table& table = dataset.dirty();
  std::vector<AttrId> attrs = dataset.RepairableAttrs();
  FrequencyStats freq = FrequencyStats::Build(table);
  CooccurrenceStats cooc = CooccurrenceStats::BuildColumnar(table, attrs);

  for (size_t t = 0; t < table.num_rows(); ++t) {
    TupleId tid = static_cast<TupleId>(t);
    for (AttrId a : attrs) {
      ValueId v = table.Get(tid, a);
      if (v == Dictionary::kNull) continue;
      int count = freq.Count(a, v);
      if (count > options_.max_count) continue;
      if (freq.Probability(a, v) > options_.max_marginal_prob) continue;
      // Conditional check: look for a common context value in the tuple
      // that rarely explains v. A rare value that is *consistent* with its
      // contexts (e.g. a rare but valid street address) is not an outlier.
      bool conditionally_rare = false;
      for (AttrId a_ctx : attrs) {
        if (a_ctx == a) continue;
        ValueId v_ctx = table.Get(tid, a_ctx);
        if (v_ctx == Dictionary::kNull) continue;
        if (cooc.Count(a_ctx, v_ctx) < options_.min_context_count) continue;
        if (cooc.CondProb(a, v, a_ctx, v_ctx) <=
            options_.max_conditional_prob) {
          conditionally_rare = true;
          break;
        }
      }
      if (conditionally_rare) noisy.Add(CellRef{tid, a});
    }
  }
  return noisy;
}

}  // namespace holoclean
