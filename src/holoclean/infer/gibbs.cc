#include "holoclean/infer/gibbs.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <thread>
#include <unordered_map>
#include <utility>

#include "holoclean/infer/learner.h"
#include "holoclean/util/hash.h"
#include "holoclean/util/union_find.h"

namespace holoclean {

namespace {

/// Busy polls of an earlier neighbour's done slot before each yield.
constexpr int kSpinsBeforeYield = 64;

}  // namespace

GibbsSampler::GibbsSampler(const FactorGraph* graph,
                           const CompiledGraph& compiled, const Table* table,
                           const std::vector<DenialConstraint>* dcs,
                           const WeightStore* weights, GibbsOptions options)
    : graph_(graph),
      compiled_(compiled),
      dcs_(dcs),
      options_(options),
      // The fallback evaluator must score ≈ predicates exactly like the
      // precomputed violation tables, so it adopts the compiled graph's
      // recorded threshold.
      evaluator_(table, compiled.sim_threshold()) {
  assignment_.resize(graph_->num_variables());
  unary_scores_.resize(graph_->num_variables());
  std::vector<double> dense = compiled_.GatherWeights(*weights);
  for (size_t v = 0; v < graph_->num_variables(); ++v) {
    const Variable& var = graph_->variable(static_cast<int>(v));
    assignment_[v] = var.init_index >= 0 ? var.init_index : 0;
    auto& scores = unary_scores_[v];
    scores.resize(var.NumCandidates());
    // Evidence variables are never resampled, so their unary scores (a
    // large share of the feature arena on typical graphs) are skipped.
    if (var.is_evidence) continue;
    for (size_t k = 0; k < var.NumCandidates(); ++k) {
      scores[k] = compiled_.UnaryScore(static_cast<int>(v),
                                       static_cast<int>(k), dense);
    }
  }
}

void GibbsSampler::FactorScores(int var_id, size_t num_cand,
                                ChainScratch* scratch) {
  // Accumulates every candidate's factor score into scratch->factor_acc in
  // one pass over the variable's factors. For each tabled factor the
  // lookup index is affine in the candidate (base + k * stride under the
  // row-major table layout), so the per-candidate work is a single byte
  // load. Contributions accumulate per candidate in factor order — the
  // arithmetic sequence of scoring each candidate's factors one by one —
  // so the chain is bit-identical to the interpreter.
  const CompiledGraph& c = compiled_;
  const std::vector<int32_t>& fov = c.fov();
  const std::vector<int32_t>& factor_vars = c.factor_vars();
  auto& acc = scratch->factor_acc;
  acc.assign(num_cand, 0.0);
  for (int32_t fi = c.FovBegin(var_id); fi < c.FovEnd(var_id); ++fi) {
    int fid = fov[static_cast<size_t>(fi)];
    double weight = c.FactorWeight(fid);
    if (c.HasViolationTable(fid)) {
      size_t base = 0;
      size_t stride = 0;
      for (int32_t i = c.FactorVarBegin(fid); i < c.FactorVarEnd(fid); ++i) {
        int32_t v = factor_vars[static_cast<size_t>(i)];
        size_t n = static_cast<size_t>(c.NumCandidates(v));
        if (v == var_id) {
          base *= n;
          stride = 1;
        } else {
          base = base * n +
                 static_cast<size_t>(assignment_[static_cast<size_t>(v)]);
          stride *= n;
        }
      }
      const uint8_t* entry = c.ViolationTableEntry(fid, base);
      for (size_t k = 0; k < num_cand; ++k) {
        if (entry[k * stride] != 0) acc[k] -= weight;
      }
    } else {
      // Fallback: the factor's candidate cross-product was above the table
      // cap; evaluate the constraint under the candidate overrides (in
      // factor-variable order, like the table precompute).
      const Variable& var = graph_->variable(var_id);
      const DenialConstraint& dc =
          (*dcs_)[static_cast<size_t>(c.FactorDcIndex(fid))];
      for (size_t k = 0; k < num_cand; ++k) {
        auto& overrides = scratch->overrides;
        overrides.clear();
        for (int32_t i = c.FactorVarBegin(fid); i < c.FactorVarEnd(fid);
             ++i) {
          int32_t other = factor_vars[static_cast<size_t>(i)];
          const Variable& other_var = graph_->variable(other);
          ValueId value =
              other == var_id
                  ? var.domain[k]
                  : other_var.domain[static_cast<size_t>(
                        assignment_[static_cast<size_t>(other)])];
          overrides.push_back({other_var.cell, value});
        }
        if (evaluator_.ViolatesWith(dc, c.FactorT1(fid), c.FactorT2(fid),
                                    overrides)) {
          acc[k] -= weight;
        }
      }
    }
  }
}

void GibbsSampler::ScoreCandidates(int var_id, ChainScratch* scratch) {
  const auto& unary = unary_scores_[static_cast<size_t>(var_id)];
  auto& scores = scratch->scores;
  scores.assign(unary.begin(), unary.end());
  if (compiled_.FovBegin(var_id) != compiled_.FovEnd(var_id)) {
    FactorScores(var_id, unary.size(), scratch);
    const auto& acc = scratch->factor_acc;
    for (size_t k = 0; k < unary.size(); ++k) {
      scores[k] = unary[k] + acc[k];
    }
  }
}

std::vector<double> GibbsSampler::ConditionalScores(int var_id) {
  ChainScratch scratch;
  ScoreCandidates(var_id, &scratch);
  return scratch.scores;
}

void GibbsSampler::Resample(int var_id, double u, ChainScratch* scratch) {
  ScoreCandidates(var_id, scratch);
  auto& scores = scratch->scores;
  SoftmaxInPlace(&scores);  // `scores` now holds the probabilities.
  assignment_[static_cast<size_t>(var_id)] =
      static_cast<int>(Rng::CategoricalFromUniform(u, scores));
}

std::vector<std::vector<int32_t>> GibbsSampler::QueryComponents() const {
  const auto& query = graph_->query_vars();
  UnionFind uf(graph_->num_variables());
  for (const DcFactor& factor : graph_->dc_factors()) {
    for (size_t i = 1; i < factor.var_ids.size(); ++i) {
      uf.Union(static_cast<size_t>(factor.var_ids[0]),
               static_cast<size_t>(factor.var_ids[i]));
    }
  }
  std::unordered_map<size_t, std::vector<int32_t>> by_root;
  for (int32_t v : query) {
    by_root[uf.Find(static_cast<size_t>(v))].push_back(v);
  }
  std::vector<std::vector<int32_t>> components;
  components.reserve(by_root.size());
  for (auto& [root, members] : by_root) {
    std::sort(members.begin(), members.end());
    components.push_back(std::move(members));
  }
  std::sort(components.begin(), components.end(),
            [](const auto& a, const auto& b) { return a[0] < b[0]; });
  return components;
}

size_t GibbsSampler::SweepSlots(const std::vector<int32_t>& component) const {
  size_t slots = 0;
  for (int32_t v : component) {
    if (compiled_.NumCandidates(v) < 2) continue;
    slots += 1 + static_cast<size_t>(compiled_.FovEnd(v) -
                                     compiled_.FovBegin(v));
  }
  return slots;
}

void GibbsSampler::BuildSpreadSchedule(const std::vector<int32_t>& component,
                                       SpreadSchedule* spread) const {
  spread->rank_of.assign(graph_->num_variables(), -1);
  std::vector<int32_t> members;
  for (int32_t v : component) {
    if (compiled_.NumCandidates(v) < 2) continue;
    spread->rank_of[static_cast<size_t>(v)] =
        static_cast<int32_t>(members.size());
    members.push_back(v);
  }
  spread->neighbours.assign(members.size(), {});
  const std::vector<int32_t>& fov = compiled_.fov();
  const std::vector<int32_t>& factor_vars = compiled_.factor_vars();
  options_.pool->ParallelFor(members.size(), [&](size_t rank) {
    int32_t var_id = members[rank];
    std::vector<int32_t>& list = spread->neighbours[rank];
    for (int32_t fi = compiled_.FovBegin(var_id);
         fi < compiled_.FovEnd(var_id); ++fi) {
      int fid = fov[static_cast<size_t>(fi)];
      for (int32_t i = compiled_.FactorVarBegin(fid);
           i < compiled_.FactorVarEnd(fid); ++i) {
        int32_t other = factor_vars[static_cast<size_t>(i)];
        int32_t other_rank = spread->rank_of[static_cast<size_t>(other)];
        if (other != var_id && other_rank >= 0) list.push_back(other_rank);
      }
    }
    std::sort(list.begin(), list.end());
    list.erase(std::unique(list.begin(), list.end()), list.end());
    list.shrink_to_fit();
  });
  spread->position.assign(members.size(), 0);
  // Sweeps are numbered from 1, so a zeroed slot means "not yet sampled".
  spread->done = std::vector<std::atomic<int64_t>>(members.size());
  for (auto& slot : spread->done) slot.store(0, std::memory_order_relaxed);
  spread->scratch.resize(options_.pool->num_threads());
}

void GibbsSampler::SpreadSweep(const std::vector<int32_t>& sampled,
                               const std::vector<double>& uniforms,
                               int64_t sweep, SpreadSchedule* spread) {
  for (size_t p = 0; p < sampled.size(); ++p) {
    spread->position[static_cast<size_t>(
        spread->rank_of[static_cast<size_t>(sampled[p])])] = p;
  }
  // Workers claim positions in sweep order. A variable samples once every
  // neighbour at an earlier position has stored this sweep's number; a
  // later neighbour waits for this variable in turn, so nobody writes a
  // value before every reader that precedes it in the sweep has read it.
  // Each wait is on an earlier claimed position, so the earliest unfinished
  // position always makes progress: the calling thread can finish the
  // sweep alone when helper tasks start late or never.
  std::atomic<size_t> next{0};
  auto work = [&](ChainScratch* scratch) {
    for (size_t p = next.fetch_add(1, std::memory_order_relaxed);
         p < sampled.size();
         p = next.fetch_add(1, std::memory_order_relaxed)) {
      int32_t var_id = sampled[p];
      size_t rank =
          static_cast<size_t>(spread->rank_of[static_cast<size_t>(var_id)]);
      for (int32_t other : spread->neighbours[rank]) {
        size_t o = static_cast<size_t>(other);
        if (spread->position[o] > p) continue;
        for (int spins = 0;
             spread->done[o].load(std::memory_order_acquire) != sweep;
             ++spins) {
          if (spins >= kSpinsBeforeYield) std::this_thread::yield();
        }
      }
      Resample(var_id, uniforms[p], scratch);
      spread->done[rank].store(sweep, std::memory_order_release);
    }
  };
  TaskGroup group(options_.pool);
  for (size_t w = 1; w < spread->scratch.size(); ++w) {
    group.Submit([&work, spread, w] { work(&spread->scratch[w]); });
  }
  work(&spread->scratch[0]);
  group.Wait();
}

void GibbsSampler::RunChain(const std::vector<int32_t>& component,
                            SpreadSchedule* spread,
                            std::vector<std::vector<uint32_t>>* counts) {
  // Seeded by the component's smallest variable id: deterministic for any
  // thread count or component ordering.
  Rng rng(options_.seed ^ Mix64(static_cast<uint64_t>(component[0]) + 1));
  std::vector<int32_t> order(component);
  // A sweep's random stream is its shuffle, then one Uniform() per sampled
  // variable in sweep order: Rng::Categorical draws exactly one for a
  // softmax, whose total is positive or NaN. So the whole stream is drawn
  // before any variable samples. Single-candidate variables are constants:
  // they draw nothing and keep assignment 0.
  std::vector<int32_t> sampled;
  std::vector<double> uniforms;
  ChainScratch scratch;
  const int64_t total_sweeps =
      static_cast<int64_t>(options_.burn_in) + options_.samples;
  for (int64_t sweep = 1; sweep <= total_sweeps; ++sweep) {
    rng.Shuffle(&order);
    sampled.clear();
    uniforms.clear();
    for (int32_t var_id : order) {
      if (compiled_.NumCandidates(var_id) < 2) continue;
      sampled.push_back(var_id);
      uniforms.push_back(rng.Uniform());
    }
    if (spread != nullptr) {
      SpreadSweep(sampled, uniforms, sweep, spread);
    } else {
      for (size_t p = 0; p < sampled.size(); ++p) {
        Resample(sampled[p], uniforms[p], &scratch);
      }
    }
    if (sweep > options_.burn_in) {
      for (int32_t var_id : order) {
        ++(*counts)[static_cast<size_t>(var_id)][static_cast<size_t>(
            assignment_[static_cast<size_t>(var_id)])];
      }
    }
  }
}

Marginals GibbsSampler::Run() {
  std::vector<std::vector<uint32_t>> counts(graph_->num_variables());
  for (size_t v = 0; v < graph_->num_variables(); ++v) {
    counts[v].assign(graph_->variable(static_cast<int>(v)).NumCandidates(),
                     0);
  }

  // One chain per factor-graph component; components share no variables,
  // so chains may run concurrently. A chain with a large sweep spreads each
  // sweep over the pool, one such chain at a time. The rest run whole, one
  // per worker, claimed largest first so the longest starts earliest.
  std::vector<std::vector<int32_t>> components = QueryComponents();
  ThreadPool* pool = options_.pool;
  const bool can_spread = pool != nullptr && pool->num_threads() > 1;
  std::vector<std::pair<size_t, size_t>> whole;  // (sweep slots, component)
  for (size_t c = 0; c < components.size(); ++c) {
    size_t slots = SweepSlots(components[c]);
    if (can_spread && slots >= kSpreadMinSlots) {
      SpreadSchedule spread;
      BuildSpreadSchedule(components[c], &spread);
      RunChain(components[c], &spread, &counts);
    } else {
      whole.emplace_back(slots, c);
    }
  }
  std::stable_sort(whole.begin(), whole.end(),
                   [](const auto& a, const auto& b) {
                     return a.first > b.first;
                   });
  std::atomic<size_t> next{0};
  auto work = [&] {
    for (size_t i = next.fetch_add(1, std::memory_order_relaxed);
         i < whole.size(); i = next.fetch_add(1, std::memory_order_relaxed)) {
      RunChain(components[whole[i].second], nullptr, &counts);
    }
  };
  if (pool != nullptr && whole.size() > 1) {
    TaskGroup group(pool);
    size_t helpers = std::min(pool->num_threads(), whole.size()) - 1;
    for (size_t w = 0; w < helpers; ++w) group.Submit(work);
    work();
    group.Wait();
  } else {
    work();
  }

  Marginals out(graph_->num_variables());
  for (size_t v = 0; v < graph_->num_variables(); ++v) {
    const Variable& var = graph_->variable(static_cast<int>(v));
    auto& probs = out.probs()[v];
    probs.assign(var.NumCandidates(), 0.0);
    if (var.is_evidence) {
      probs[static_cast<size_t>(var.init_index)] = 1.0;
      continue;
    }
    uint64_t total = 0;
    for (uint32_t c : counts[v]) total += c;
    if (total == 0) {
      // Query variable never sampled (shouldn't happen); keep current state.
      probs[static_cast<size_t>(assignment_[v])] = 1.0;
      continue;
    }
    for (size_t k = 0; k < probs.size(); ++k) {
      probs[k] = static_cast<double>(counts[v][k]) /
                 static_cast<double>(total);
    }
  }
  return out;
}

}  // namespace holoclean
