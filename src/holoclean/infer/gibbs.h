#ifndef HOLOCLEAN_INFER_GIBBS_H_
#define HOLOCLEAN_INFER_GIBBS_H_

#include <atomic>
#include <cstdint>
#include <vector>

#include "holoclean/constraints/evaluator.h"
#include "holoclean/infer/marginals.h"
#include "holoclean/model/compiled_graph.h"
#include "holoclean/model/factor_graph.h"
#include "holoclean/util/rng.h"
#include "holoclean/util/thread_pool.h"

namespace holoclean {

/// Gibbs sampling hyper-parameters.
struct GibbsOptions {
  /// Full sweeps discarded before collecting marginal counts.
  int burn_in = 20;
  /// Full sweeps contributing to the marginal estimates.
  int samples = 80;
  uint64_t seed = 42;
  /// Optional worker pool. The sampler runs one chain per connected
  /// component of the factor graph, seeded by the component's smallest
  /// variable id. A chain whose sweep is large spreads each sweep over the
  /// pool's workers; every other chain runs whole on one worker. Results
  /// are bit-identical for any pool size (see GibbsSampler).
  ThreadPool* pool = nullptr;
};

/// Single-site Gibbs sampler over the query variables (paper §2.2, §5.2).
///
/// Each sweep resamples every query variable from its conditional: the
/// candidate score is the (precomputed) unary score minus, for every
/// attached DC factor, weight × 1[the factor's constraint is violated under
/// the current assignment of its other variables]. Evidence variables stay
/// fixed at their observed values, and so do single-candidate query
/// variables. With no DC factors the chain's stationary distribution equals
/// ExactIndependentMarginals and mixes in O(n log n) sweeps (the guarantee
/// HoloClean's relaxation buys, §5.2).
///
/// Parallelism (the DimmWitted-style engine the paper runs on) never
/// changes the chain. A sweep first draws its shuffle and then one uniform
/// per sampled variable, in sweep order, from the chain's Rng. Sampling a
/// variable reads only its factor neighbours, so a variable may sample as
/// soon as every neighbour earlier in the sweep has; later neighbours wait
/// for it in turn. A chain whose sweep holds at least 2^16 factor slots
/// (sampled variables plus their factor adjacency) spreads each sweep over
/// the pool under that ordering rule: workers claim positions in order and
/// wait only on earlier positions, so the calling thread can always finish
/// a sweep alone. Smaller chains run whole, one per worker, largest first.
///
/// The sampler runs on the graph's CompiledGraph: unary scores come from
/// the dense weight vector and CSR feature arenas, and factor scoring is a
/// precomputed violation-table lookup (falling back to the DcEvaluator only
/// for factors whose candidate cross-product exceeded the table cap).
/// Sampling a variable allocates nothing after warm-up, and the sampled
/// chain is bit-identical to the FactorGraph interpreter kept as the
/// reference in tests/oracle/.
class GibbsSampler {
 public:
  /// A chain spreads its sweeps over the pool only when a sweep holds at
  /// least this many factor slots (sampled variables plus their factor
  /// adjacency entries). Below it the per-sweep hand-off costs more than
  /// it saves: spreading every chain slowed the infer stage of Food cleans
  /// (`dc_mode=both`, 4-worker engine, 4 vCPUs) from 10-24 ms to 88-90 ms
  /// at 400 rows and from 68-70 ms to 257-329 ms at 1,000 rows.
  static constexpr size_t kSpreadMinSlots = size_t{1} << 16;

  /// `compiled` must have been built from `graph` (see CompiledGraph).
  GibbsSampler(const FactorGraph* graph, const CompiledGraph& compiled,
               const Table* table, const std::vector<DenialConstraint>* dcs,
               const WeightStore* weights, GibbsOptions options);

  /// Runs burn-in + sampling sweeps, returns estimated marginals.
  Marginals Run();

  /// Current assignment (candidate index per variable) — for tests.
  const std::vector<int>& assignment() const { return assignment_; }

  /// A query variable's candidate scores (unary plus DC-factor terms, before
  /// the softmax) under the current assignment of its neighbours: what its
  /// next draw samples from — for tests.
  std::vector<double> ConditionalScores(int var_id);

 private:
  /// Per-thread scratch buffers, so concurrent samplers never share them.
  /// Reused across sweeps: after warm-up, sampling performs no allocations.
  struct ChainScratch {
    std::vector<double> scores;
    std::vector<double> factor_acc;
    std::vector<CellOverride> overrides;
  };

  /// What the workers of a spread chain share. Indexed by rank: a sampled
  /// member's index among the chain's sampled variables (ascending id).
  struct SpreadSchedule {
    /// Variable id -> rank, or -1 outside the chain's sampled variables.
    std::vector<int32_t> rank_of;
    /// Distinct sampled factor neighbours of each rank, as sorted ranks.
    std::vector<std::vector<int32_t>> neighbours;
    /// Each rank's position in the current sweep.
    std::vector<size_t> position;
    /// The number of the last sweep that sampled each rank.
    std::vector<std::atomic<int64_t>> done;
    /// One per participating thread.
    std::vector<ChainScratch> scratch;
  };

  /// Per-candidate factor scores for `var_id` into scratch->factor_acc in
  /// one pass over its factors (affine violation-table indexing; evaluator
  /// fallback above the table cap), accumulated per candidate in factor
  /// order.
  void FactorScores(int var_id, size_t num_cand, ChainScratch* scratch);
  /// Unary plus factor scores of every candidate into scratch->scores.
  void ScoreCandidates(int var_id, ChainScratch* scratch);
  /// Sets a sampled variable to the candidate that the uniform draw `u`
  /// picks from its conditional. Both schedules sample through this.
  void Resample(int var_id, double u, ChainScratch* scratch);
  /// Runs one component's chain, accumulating its marginal counts
  /// (disjoint from other components'). With `spread`, each sweep is spread
  /// over the pool; otherwise the chain runs on the calling thread.
  void RunChain(const std::vector<int32_t>& component, SpreadSchedule* spread,
                std::vector<std::vector<uint32_t>>* counts);
  /// Samples one sweep's variables (`sampled`, in sweep order, with the
  /// pre-drawn `uniforms`) on the calling thread and the pool's workers.
  void SpreadSweep(const std::vector<int32_t>& sampled,
                   const std::vector<double>& uniforms, int64_t sweep,
                   SpreadSchedule* spread);
  /// The neighbour lists and slots a spread chain over `component` needs;
  /// the lists are built in parallel.
  void BuildSpreadSchedule(const std::vector<int32_t>& component,
                           SpreadSchedule* spread) const;
  /// Sampled variables of `component` plus their factor adjacency entries:
  /// the work of one sweep, which decides whether it is spread.
  size_t SweepSlots(const std::vector<int32_t>& component) const;
  /// Query variables grouped into factor-graph connected components,
  /// ordered by smallest member id.
  std::vector<std::vector<int32_t>> QueryComponents() const;

  const FactorGraph* graph_;
  const CompiledGraph& compiled_;
  const std::vector<DenialConstraint>* dcs_;
  GibbsOptions options_;
  DcEvaluator evaluator_;
  std::vector<int> assignment_;
  /// Unary scores are assignment-independent; precomputed once.
  std::vector<std::vector<double>> unary_scores_;
};

}  // namespace holoclean

#endif  // HOLOCLEAN_INFER_GIBBS_H_
