#include "holoclean/stats/cooccurrence.h"

#include <algorithm>

namespace holoclean {

namespace {

// Count descending, then value ascending: the order pruning exits early in.
bool ByCountDesc(const CooccurrenceStats::Entry& x,
                 const CooccurrenceStats::Entry& y) {
  return x.second != y.second ? x.second > y.second : x.first < y.first;
}

}  // namespace

CooccurrenceStats CooccurrenceStats::BuildColumnar(
    const Table& table, const std::vector<AttrId>& attrs, ThreadPool* pool) {
  CooccurrenceStats stats;
  size_t num_attrs = table.schema().num_attrs();
  stats.num_attrs_ = num_attrs;
  stats.pairs_.resize(num_attrs * num_attrs);
  stats.attr_counts_.resize(num_attrs);

  const ColumnStore& store = table.store();

  for (AttrId a : attrs) {
    const ColumnStore::Column& col = store.column(static_cast<size_t>(a));
    AttrCounts& counts = stats.attr_counts_[static_cast<size_t>(a)];
    counts.by_code.assign(col.code_counts.begin(), col.code_counts.end());
    counts.by_code[0] = 0;  // NULL cells are not counted.
    std::vector<std::pair<ValueId, Code>> present;
    for (size_t c = 1; c < col.num_codes(); ++c) {
      if (col.code_counts[c] > 0) {
        present.emplace_back(col.code_to_value[c], static_cast<Code>(c));
      }
    }
    std::sort(present.begin(), present.end());
    counts.domain.reserve(present.size());
    counts.domain_codes.reserve(present.size());
    for (const auto& [v, c] : present) {
      counts.domain.push_back(v);
      counts.domain_codes.push_back(c);
    }
  }

  // One task per ordered (target, context) attribute pair; each writes a
  // disjoint pairs_ slot, so pairs parallelize without coordination.
  std::vector<std::pair<AttrId, AttrId>> tasks;
  tasks.reserve(attrs.size() * attrs.size());
  for (AttrId a : attrs) {
    for (AttrId a_ctx : attrs) {
      if (a_ctx != a) tasks.emplace_back(a, a_ctx);
    }
  }

  auto build_pair = [&](size_t task) {
    const AttrId a = tasks[task].first;
    const AttrId a_ctx = tasks[task].second;
    const ColumnStore::Column& tcol = store.column(static_cast<size_t>(a));
    const ColumnStore::Column& ccol =
        store.column(static_cast<size_t>(a_ctx));
    const size_t n_ctx = ccol.num_codes();
    const size_t n_tgt = tcol.num_codes();

    // Group the target codes of all rows by their context code with a
    // prefix-sum scatter (the context column's occupancy counts are the
    // bucket sizes), then count each group with a touched-list scratch.
    std::vector<uint32_t> rows(n_ctx + 1, 0);
    for (size_t c = 1; c < n_ctx; ++c) {
      rows[c + 1] = rows[c] + ccol.code_counts[c];
    }
    std::vector<Code> grouped(rows[n_ctx]);
    std::vector<uint32_t> cursor(rows.begin(), rows.end() - 1);
    for (size_t ch = 0; ch < ccol.codes.num_chunks(); ++ch) {
      const Code* cc_data = ccol.codes.chunk_data(ch);
      const Code* tc_data = tcol.codes.chunk_data(ch);
      const size_t m = ccol.codes.chunk_size(ch);
      for (size_t i = 0; i < m; ++i) {
        Code cc = cc_data[i];
        if (cc == 0) continue;
        grouped[cursor[static_cast<size_t>(cc)]++] = tc_data[i];
      }
    }

    // Context codes are visited in order, so each run lands right after the
    // previous one and `offsets` is filled as the runs are.
    PairRuns& runs = stats.pairs_[static_cast<size_t>(a) * num_attrs +
                                  static_cast<size_t>(a_ctx)];
    runs.offsets.assign(n_ctx + 1, 0);
    std::vector<Entry> entries;
    std::vector<int> counts(n_tgt, 0);
    std::vector<Code> touched;
    for (size_t cc = 1; cc < n_ctx; ++cc) {
      for (uint32_t u = rows[cc]; u < rows[cc + 1]; ++u) {
        Code tc = grouped[u];
        if (tc == 0) continue;
        if (counts[static_cast<size_t>(tc)]++ == 0) touched.push_back(tc);
      }
      const size_t begin = entries.size();
      for (Code tc : touched) {
        entries.emplace_back(tcol.code_to_value[static_cast<size_t>(tc)],
                             counts[static_cast<size_t>(tc)]);
        counts[static_cast<size_t>(tc)] = 0;
      }
      touched.clear();
      // Ascending by value: deterministic candidate generation.
      std::sort(entries.begin() + static_cast<std::ptrdiff_t>(begin),
                entries.end());
      runs.offsets[cc + 1] = static_cast<uint32_t>(entries.size());
    }
    runs.by_value.assign(entries.begin(), entries.end());
    runs.by_count = runs.by_value;
    for (size_t cc = 1; cc < n_ctx; ++cc) {
      std::sort(runs.by_count.begin() + runs.offsets[cc],
                runs.by_count.begin() + runs.offsets[cc + 1], ByCountDesc);
    }
  };

  if (pool != nullptr && tasks.size() > 1) {
    pool->ParallelFor(tasks.size(), build_pair);
  } else {
    for (size_t i = 0; i < tasks.size(); ++i) build_pair(i);
  }
  for (const PairRuns& runs : stats.pairs_) {
    stats.num_pair_entries_ += runs.by_value.size();
  }
  return stats;
}

Code CooccurrenceStats::CodeOf(AttrId a, ValueId v) const {
  const AttrCounts& counts = attr_counts_[static_cast<size_t>(a)];
  auto it = std::lower_bound(counts.domain.begin(), counts.domain.end(), v);
  if (it == counts.domain.end() || *it != v) return 0;
  return counts.domain_codes[static_cast<size_t>(it - counts.domain.begin())];
}

CooccurrenceStats::Run CooccurrenceStats::Slice(
    const std::vector<Entry>& entries, const std::vector<uint32_t>& offsets,
    Code code) {
  const size_t c = static_cast<size_t>(code);
  if (c + 1 >= offsets.size()) return Run();
  return Run(entries.data() + offsets[c], entries.data() + offsets[c + 1]);
}

int CooccurrenceStats::PairCount(AttrId a, ValueId v, AttrId a_ctx,
                                 ValueId v_ctx) const {
  Run run = CooccurringValues(a, a_ctx, v_ctx);
  auto it = std::lower_bound(run.begin(), run.end(), std::make_pair(v, 0));
  return (it != run.end() && it->first == v) ? it->second : 0;
}

int CooccurrenceStats::Count(AttrId a, ValueId v) const {
  return CountOfCode(a, CodeOf(a, v));
}

double CooccurrenceStats::CondProb(AttrId a, ValueId v, AttrId a_ctx,
                                   ValueId v_ctx) const {
  int ctx_count = Count(a_ctx, v_ctx);
  if (ctx_count == 0) return 0.0;
  return static_cast<double>(PairCount(a, v, a_ctx, v_ctx)) /
         static_cast<double>(ctx_count);
}

CooccurrenceStats::Run CooccurrenceStats::CooccurringValues(
    AttrId a, AttrId a_ctx, ValueId v_ctx) const {
  return RunByValue(a, a_ctx, CodeOf(a_ctx, v_ctx));
}

const std::vector<ValueId>& CooccurrenceStats::Domain(AttrId a) const {
  return attr_counts_[static_cast<size_t>(a)].domain;
}

int CooccurrenceStats::CountOfCode(AttrId a, Code code) const {
  const std::vector<int>& by_code =
      attr_counts_[static_cast<size_t>(a)].by_code;
  const size_t c = static_cast<size_t>(code);
  return c < by_code.size() ? by_code[c] : 0;
}

CooccurrenceStats::Run CooccurrenceStats::RunByValue(AttrId a, AttrId a_ctx,
                                                     Code ctx_code) const {
  const PairRuns& runs = Pair(a, a_ctx);
  return Slice(runs.by_value, runs.offsets, ctx_code);
}

CooccurrenceStats::Run CooccurrenceStats::RunByCount(AttrId a, AttrId a_ctx,
                                                     Code ctx_code) const {
  const PairRuns& runs = Pair(a, a_ctx);
  return Slice(runs.by_count, runs.offsets, ctx_code);
}

}  // namespace holoclean
