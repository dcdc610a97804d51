#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "holoclean/util/hash.h"
#include "holoclean/util/rng.h"
#include "holoclean/util/union_find.h"
#include "oracle.h"

namespace holoclean {
namespace oracle {

double UnaryScore(const FactorGraph& graph, int var_id, int k,
                  const WeightStore& weights) {
  const Variable& var = graph.variable(var_id);
  double score = var.prior_bias[static_cast<size_t>(k)];
  for (int32_t i = var.feat_begin[static_cast<size_t>(k)];
       i < var.feat_begin[static_cast<size_t>(k) + 1]; ++i) {
    const FeatureInstance& f = var.features[static_cast<size_t>(i)];
    score += weights.Get(f.weight_key) * f.activation;
  }
  return score;
}

std::vector<double> TrainSgd(const FactorGraph& graph,
                             const std::vector<int32_t>& evidence_vars,
                             const LearnerOptions& options,
                             WeightStore* weights) {
  std::vector<int32_t> order(evidence_vars);
  std::vector<double> epoch_nll;
  if (order.empty()) return epoch_nll;

  Rng rng(options.seed);
  double lr = options.learning_rate;
  std::vector<double> scores;

  for (int epoch = 0; epoch < options.epochs; ++epoch) {
    rng.Shuffle(&order);
    double nll = 0.0;
    for (int32_t var_id : order) {
      const Variable& var = graph.variable(var_id);
      size_t num_cand = var.NumCandidates();
      scores.assign(num_cand, 0.0);
      for (size_t k = 0; k < num_cand; ++k) {
        scores[k] = UnaryScore(graph, var_id, static_cast<int>(k), *weights);
      }
      SoftmaxInPlace(&scores);  // `scores` now holds the probabilities.
      size_t label = static_cast<size_t>(var.init_index);
      nll -= std::log(std::max(scores[label], 1e-12));

      for (size_t k = 0; k < num_cand; ++k) {
        double coef = (k == label ? 1.0 : 0.0) - scores[k];
        if (coef == 0.0) continue;
        for (int32_t i = var.feat_begin[k]; i < var.feat_begin[k + 1]; ++i) {
          const FeatureInstance& f = var.features[static_cast<size_t>(i)];
          // Lazy L2: shrink the weight as we touch it.
          double w = weights->Get(f.weight_key);
          weights->Set(f.weight_key,
                       w * (1.0 - lr * options.l2) + lr * coef * f.activation);
        }
      }
    }
    epoch_nll.push_back(nll / static_cast<double>(order.size()));
    lr *= options.lr_decay;
  }
  return epoch_nll;
}

Marginals ExactIndependentMarginals(const FactorGraph& graph,
                                    const WeightStore& weights) {
  Marginals out(graph.num_variables());
  std::vector<double> scores;
  for (size_t v = 0; v < graph.num_variables(); ++v) {
    const Variable& var = graph.variable(static_cast<int>(v));
    auto& probs = out.probs()[v];
    if (var.is_evidence) {
      probs.assign(var.NumCandidates(), 0.0);
      probs[static_cast<size_t>(var.init_index)] = 1.0;
      continue;
    }
    scores.assign(var.NumCandidates(), 0.0);
    for (size_t k = 0; k < var.NumCandidates(); ++k) {
      scores[k] =
          UnaryScore(graph, static_cast<int>(v), static_cast<int>(k), weights);
    }
    probs = Softmax(scores);
  }
  return out;
}

namespace {

/// The Gibbs interpreter: every factor is scored by evaluating its
/// constraint under the candidate overrides, candidate by candidate.
class GibbsInterpreter {
 public:
  GibbsInterpreter(const FactorGraph& graph, const Table& table,
                   const std::vector<DenialConstraint>& dcs,
                   const WeightStore& weights, const GibbsOptions& options,
                   double sim_threshold)
      : graph_(graph),
        dcs_(dcs),
        options_(options),
        evaluator_(&table, sim_threshold) {
    assignment_.resize(graph_.num_variables());
    unary_scores_.resize(graph_.num_variables());
    for (size_t v = 0; v < graph_.num_variables(); ++v) {
      const Variable& var = graph_.variable(static_cast<int>(v));
      assignment_[v] = var.init_index >= 0 ? var.init_index : 0;
      unary_scores_[v].resize(var.NumCandidates());
      for (size_t k = 0; k < var.NumCandidates(); ++k) {
        unary_scores_[v][k] = UnaryScore(graph_, static_cast<int>(v),
                                         static_cast<int>(k), weights);
      }
    }
  }

  Marginals Run() {
    std::vector<std::vector<uint32_t>> counts(graph_.num_variables());
    for (size_t v = 0; v < graph_.num_variables(); ++v) {
      counts[v].assign(graph_.variable(static_cast<int>(v)).NumCandidates(),
                       0);
    }
    // Components share no variables, so their chains may run concurrently.
    std::vector<std::vector<int32_t>> components = QueryComponents();
    if (options_.pool != nullptr && components.size() > 1) {
      options_.pool->ParallelFor(components.size(), [&](size_t c) {
        RunComponent(components[c], &counts);
      });
    } else {
      for (const auto& component : components) {
        RunComponent(component, &counts);
      }
    }
    Marginals out(graph_.num_variables());
    for (size_t v = 0; v < graph_.num_variables(); ++v) {
      const Variable& var = graph_.variable(static_cast<int>(v));
      auto& probs = out.probs()[v];
      probs.assign(var.NumCandidates(), 0.0);
      if (var.is_evidence) {
        probs[static_cast<size_t>(var.init_index)] = 1.0;
        continue;
      }
      uint64_t total = 0;
      for (uint32_t c : counts[v]) total += c;
      if (total == 0) {
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

  const std::vector<int>& assignment() const { return assignment_; }

  /// Unary plus factor scores of `var_id`'s candidates under the current
  /// assignment, in the order SampleVariable adds them.
  std::vector<double> ConditionalScores(int var_id) {
    const Variable& var = graph_.variable(var_id);
    std::vector<CellOverride> overrides;
    std::vector<double> scores(unary_scores_[static_cast<size_t>(var_id)]);
    if (graph_.FactorsOfVar(var_id).empty()) return scores;
    for (size_t k = 0; k < var.NumCandidates(); ++k) {
      scores[k] += FactorScore(var_id, static_cast<int>(k), &overrides);
    }
    return scores;
  }

 private:
  double FactorScore(int var_id, int candidate_index,
                     std::vector<CellOverride>* overrides) {
    const Variable& var = graph_.variable(var_id);
    double score = 0.0;
    for (int32_t fid : graph_.FactorsOfVar(var_id)) {
      const DcFactor& factor = graph_.dc_factors()[static_cast<size_t>(fid)];
      overrides->clear();
      for (int32_t other : factor.var_ids) {
        const Variable& other_var = graph_.variable(other);
        ValueId value =
            other == var_id
                ? var.domain[static_cast<size_t>(candidate_index)]
                : other_var.domain[static_cast<size_t>(
                      assignment_[static_cast<size_t>(other)])];
        overrides->push_back({other_var.cell, value});
      }
      const DenialConstraint& dc = dcs_[static_cast<size_t>(factor.dc_index)];
      if (evaluator_.ViolatesWith(dc, factor.t1, factor.t2, *overrides)) {
        score -= factor.weight;
      }
    }
    return score;
  }

  /// Per-chain buffers; concurrent component chains never share them.
  struct ChainScratch {
    std::vector<double> scores;
    std::vector<CellOverride> overrides;
  };

  void SampleVariable(int var_id, Rng* rng, ChainScratch* scratch) {
    const Variable& var = graph_.variable(var_id);
    size_t num_cand = var.NumCandidates();
    if (num_cand == 1) {
      assignment_[static_cast<size_t>(var_id)] = 0;
      return;
    }
    std::vector<double>& scores = scratch->scores;
    scores.assign(num_cand, 0.0);
    const auto& unary = unary_scores_[static_cast<size_t>(var_id)];
    bool has_factors = !graph_.FactorsOfVar(var_id).empty();
    for (size_t k = 0; k < num_cand; ++k) {
      scores[k] = unary[k];
      if (has_factors) {
        scores[k] += FactorScore(var_id, static_cast<int>(k),
                                 &scratch->overrides);
      }
    }
    SoftmaxInPlace(&scores);
    assignment_[static_cast<size_t>(var_id)] =
        static_cast<int>(rng->Categorical(scores));
  }

  std::vector<std::vector<int32_t>> QueryComponents() const {
    UnionFind uf(graph_.num_variables());
    for (const DcFactor& factor : graph_.dc_factors()) {
      for (size_t i = 1; i < factor.var_ids.size(); ++i) {
        uf.Union(static_cast<size_t>(factor.var_ids[0]),
                 static_cast<size_t>(factor.var_ids[i]));
      }
    }
    std::unordered_map<size_t, std::vector<int32_t>> by_root;
    for (int32_t v : graph_.query_vars()) {
      by_root[uf.Find(static_cast<size_t>(v))].push_back(v);
    }
    std::vector<std::vector<int32_t>> components;
    for (auto& [root, members] : by_root) {
      std::sort(members.begin(), members.end());
      components.push_back(std::move(members));
    }
    std::sort(components.begin(), components.end(),
              [](const auto& a, const auto& b) { return a[0] < b[0]; });
    return components;
  }

  void RunComponent(const std::vector<int32_t>& component,
                    std::vector<std::vector<uint32_t>>* counts) {
    Rng rng(options_.seed ^ Mix64(static_cast<uint64_t>(component[0]) + 1));
    std::vector<int32_t> order(component);
    ChainScratch scratch;
    int total_sweeps = options_.burn_in + options_.samples;
    for (int sweep = 0; sweep < total_sweeps; ++sweep) {
      rng.Shuffle(&order);
      for (int32_t var_id : order) SampleVariable(var_id, &rng, &scratch);
      if (sweep >= options_.burn_in) {
        for (int32_t var_id : order) {
          ++(*counts)[static_cast<size_t>(var_id)][static_cast<size_t>(
              assignment_[static_cast<size_t>(var_id)])];
        }
      }
    }
  }

  const FactorGraph& graph_;
  const std::vector<DenialConstraint>& dcs_;
  GibbsOptions options_;
  DcEvaluator evaluator_;
  std::vector<int> assignment_;
  std::vector<std::vector<double>> unary_scores_;
};

}  // namespace

Marginals GibbsMarginals(const FactorGraph& graph, const Table& table,
                         const std::vector<DenialConstraint>& dcs,
                         const WeightStore& weights,
                         const GibbsOptions& options, double sim_threshold,
                         GibbsEnd* end) {
  GibbsInterpreter interpreter(graph, table, dcs, weights, options,
                               sim_threshold);
  Marginals marginals = interpreter.Run();
  if (end != nullptr) {
    end->assignment = interpreter.assignment();
    end->conditionals.assign(graph.num_variables(), {});
    for (int32_t v : graph.query_vars()) {
      end->conditionals[static_cast<size_t>(v)] =
          interpreter.ConditionalScores(v);
    }
  }
  return marginals;
}

}  // namespace oracle
}  // namespace holoclean
