#ifndef HOLOCLEAN_STATS_COOCCURRENCE_H_
#define HOLOCLEAN_STATS_COOCCURRENCE_H_

#include <cstdint>
#include <utility>
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
/// Layout: for each ordered attribute pair (a, a_ctx) there is one flat
/// entry array per order, laid out over a_ctx's dictionary codes by one
/// `offsets` array of num_codes + 1 entries: the run of context code c —
/// every value of a that co-occurs with it, with its pair count — is
/// [offsets[c], offsets[c + 1]). The same run is kept twice:
///   - by value: ascending by value (CooccurringValues, RunByValue, the
///     per-candidate binary search of grounding);
///   - by count: count descending, then value ascending (RunByCount). The
///     counts of a run sum to at most #v', so at most ⌊1/τ⌋ entries reach
///     τ·#v', and they are a prefix of this order: Algorithm 2 reads the
///     entries that pass plus one per context instead of whole runs.
/// Per-attribute counts are kept by code as well. Nothing is hashed:
/// ValueId-keyed accessors binary-search the attribute's active domain for
/// the code, and code-addressed accessors index directly.
///
/// Precondition of the code-addressed accessors (CountOfCode, RunByValue,
/// RunByCount): codes come from the table the statistics were built from,
/// unchanged since (`table.store().column(a).codes[tid]`). The compile
/// stage builds the statistics right before pruning and grounding and drops
/// them after. A code the statistics never saw reads as count 0 and an
/// empty run.
///
/// BuildColumnar counts over the ColumnStore's per-column code arrays —
/// grouping rows by context code with one prefix-sum scatter per attribute
/// pair, so the counting work is per cell and the sorting per distinct
/// value pair. The differential tests check both orders and both kinds of
/// lookup against a row-at-a-time recount (tests/oracle/).
class CooccurrenceStats {
 public:
  /// A value of the target attribute and its pair count.
  using Entry = std::pair<ValueId, int>;

  /// Read-only view of one run; valid while the statistics live.
  class Run {
   public:
    Run() = default;
    Run(const Entry* begin, const Entry* end) : begin_(begin), end_(end) {}
    const Entry* begin() const { return begin_; }
    const Entry* end() const { return end_; }
    size_t size() const { return static_cast<size_t>(end_ - begin_); }
    bool empty() const { return begin_ == end_; }

   private:
    const Entry* begin_ = nullptr;
    const Entry* end_ = nullptr;
  };

  /// Counts co-occurrences across all ordered pairs of `attrs` in `table`
  /// (NULL cells are skipped), over dictionary codes. Attribute pairs are
  /// processed in parallel when `pool` is given; the result is identical
  /// either way.
  static CooccurrenceStats BuildColumnar(const Table& table,
                                         const std::vector<AttrId>& attrs,
                                         ThreadPool* pool = nullptr);

  // --- ValueId-keyed lookups ------------------------------------------------

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
  Run CooccurringValues(AttrId a, AttrId a_ctx, ValueId v_ctx) const;

  /// Active domain (distinct non-null values) of attribute a, ascending.
  const std::vector<ValueId>& Domain(AttrId a) const;

  // --- Code-addressed lookups (see the class comment's precondition) --------

  /// Count(a, v) for the value of code `code` in column a; 0 for NULL.
  int CountOfCode(AttrId a, Code code) const;

  /// CooccurringValues(a, a_ctx, v_ctx) for the value of code `ctx_code` in
  /// column a_ctx: ascending by value.
  Run RunByValue(AttrId a, AttrId a_ctx, Code ctx_code) const;

  /// The same run ordered by count descending, then value ascending.
  Run RunByCount(AttrId a, AttrId a_ctx, Code ctx_code) const;

  /// Total number of (attr-pair, value-pair) entries; the memory footprint.
  size_t num_pair_entries() const { return num_pair_entries_; }

 private:
  // The runs of one ordered attribute pair (a, a_ctx). `offsets` is empty
  // when the pair was not counted.
  struct PairRuns {
    std::vector<uint32_t> offsets;  // a_ctx's num_codes + 1 entries
    std::vector<Entry> by_value;
    std::vector<Entry> by_count;
  };
  // One attribute's counts by code (code 0, NULL, counts 0) and its active
  // domain with each value's code, which maps ValueIds onto codes.
  struct AttrCounts {
    std::vector<int> by_code;
    std::vector<ValueId> domain;
    std::vector<Code> domain_codes;
  };

  /// Code of v in column a, or 0 when v is not in a's active domain.
  Code CodeOf(AttrId a, ValueId v) const;
  const PairRuns& Pair(AttrId a, AttrId a_ctx) const {
    return pairs_[static_cast<size_t>(a) * num_attrs_ +
                  static_cast<size_t>(a_ctx)];
  }
  static Run Slice(const std::vector<Entry>& entries,
                   const std::vector<uint32_t>& offsets, Code code);

  std::vector<PairRuns> pairs_;        // a * num_attrs_ + a_ctx
  std::vector<AttrCounts> attr_counts_;  // per attribute
  size_t num_pair_entries_ = 0;
  size_t num_attrs_ = 0;
};

}  // namespace holoclean

#endif  // HOLOCLEAN_STATS_COOCCURRENCE_H_
