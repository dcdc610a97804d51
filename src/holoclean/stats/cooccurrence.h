#ifndef HOLOCLEAN_STATS_COOCCURRENCE_H_
#define HOLOCLEAN_STATS_COOCCURRENCE_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "holoclean/storage/table.h"
#include "holoclean/util/thread_pool.h"

namespace holoclean {

/// Pairwise value co-occurrence statistics of a table.
///
/// This is the quantitative-statistics signal of the paper: the conditional
/// probability Pr[v | v'] = #(v, v' in the same tuple) / #v' drives both the
/// domain-pruning strategy (Algorithm 2) and the co-occurrence features of
/// the probabilistic model.
///
/// BuildColumnar counts over the ColumnStore's per-column code arrays —
/// grouping rows by context code with one prefix-sum scatter per attribute
/// pair, so the hash work is per distinct value pair instead of per cell.
/// The differential tests check it against a row-at-a-time recount
/// (tests/oracle/).
class CooccurrenceStats {
 public:
  /// Counts co-occurrences across all ordered pairs of `attrs` in `table`
  /// (NULL cells are skipped), over dictionary codes. Attribute pairs are
  /// processed in parallel when `pool` is given; the result is identical
  /// either way.
  static CooccurrenceStats BuildColumnar(const Table& table,
                                         const std::vector<AttrId>& attrs,
                                         ThreadPool* pool = nullptr);

  /// #(tuples where attribute a = v and attribute a_ctx = v_ctx).
  int PairCount(AttrId a, ValueId v, AttrId a_ctx, ValueId v_ctx) const;

  /// #(tuples where attribute a = v).
  int Count(AttrId a, ValueId v) const;

  /// Pr[v for attribute a | v_ctx for attribute a_ctx]; 0 when v_ctx unseen.
  double CondProb(AttrId a, ValueId v, AttrId a_ctx, ValueId v_ctx) const;

  /// Values of attribute a that co-occur with (a_ctx = v_ctx) in >= 1 tuple,
  /// with their pair counts, ascending by value. This is the
  /// candidate-generation primitive of Algorithm 2: it avoids scanning the
  /// whole active domain of a.
  const std::vector<std::pair<ValueId, int>>& CooccurringValues(
      AttrId a, AttrId a_ctx, ValueId v_ctx) const;

  /// Active domain (distinct non-null values) of attribute a.
  const std::vector<ValueId>& Domain(AttrId a) const;

  /// Total number of (attr-pair, value-pair) entries; the memory footprint.
  size_t num_pair_entries() const { return num_pair_entries_; }

 private:
  // Packs (a, v) into a 64-bit key. Requires v < 2^32.
  static uint64_t KeyAV(AttrId a, ValueId v) {
    return (static_cast<uint64_t>(static_cast<uint32_t>(a)) << 32) |
           static_cast<uint32_t>(v);
  }

  std::unordered_map<uint64_t, int> value_counts_;  // (a,v) -> count
  // (a,a_ctx) indexed by a*A+a_ctx -> map from (v_ctx) -> list of (v,count),
  // each list ascending by v. PairCount binary-searches these lists, so no
  // separate flat pair map is kept.
  struct PairIndex {
    std::unordered_map<ValueId, std::vector<std::pair<ValueId, int>>> by_ctx;
  };
  std::vector<PairIndex> pair_index_;          // size A*A
  std::vector<std::vector<ValueId>> domains_;  // per attribute
  size_t num_pair_entries_ = 0;
  size_t num_attrs_ = 0;
};

}  // namespace holoclean

#endif  // HOLOCLEAN_STATS_COOCCURRENCE_H_
