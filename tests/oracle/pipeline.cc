#include <algorithm>
#include <memory>

#include "holoclean/model/weight_initializer.h"
#include "holoclean/util/rng.h"
#include "oracle.h"

namespace holoclean {
namespace oracle {

std::vector<CellRef> EvidenceSample(const Table& table,
                                    const std::vector<AttrId>& attrs,
                                    const NoisyCells& noisy,
                                    const HoloCleanConfig& config) {
  std::vector<CellRef> evidence;
  for (size_t t = 0; t < table.num_rows(); ++t) {
    for (AttrId a : attrs) {
      CellRef c{static_cast<TupleId>(t), a};
      if (noisy.Contains(c)) continue;
      if (table.Get(c) == Dictionary::kNull) continue;
      evidence.push_back(c);
    }
  }
  if (evidence.size() > config.max_training_cells) {
    Rng rng(config.seed);
    rng.Shuffle(&evidence);
    evidence.resize(config.max_training_cells);
    std::sort(evidence.begin(), evidence.end());
  }
  return evidence;
}

WeightStore LearnWeights(const PipelineContext& ctx) {
  const HoloCleanConfig& config = ctx.config;
  WeightInitInput input;
  input.table = &ctx.dataset->dirty();
  input.attrs = &ctx.attrs;
  input.dcs = ctx.dcs;
  input.num_dicts = ctx.dicts == nullptr ? 0 : ctx.dicts->size();
  input.source_attr =
      ctx.dataset->has_source_attr() ? ctx.dataset->source_attr() : -1;
  WeightStore weights =
      WeightInitializer(config.ToWeightInitOptions()).Initialize(input);
  LearnerOptions options;
  options.epochs = config.epochs;
  options.learning_rate = config.learning_rate;
  options.lr_decay = config.lr_decay;
  options.l2 = config.l2;
  options.seed = config.seed ^ 0x5851F42D4C957F2DULL;
  TrainSgd(ctx.graph, ctx.graph.evidence_vars(), options, &weights);
  return weights;
}

GibbsOptions InferGibbsOptions(const PipelineContext& ctx) {
  GibbsOptions options;
  options.burn_in = ctx.config.gibbs_burn_in;
  options.samples = ctx.config.gibbs_samples;
  options.seed = ctx.config.seed ^ 0x2545F4914F6CDD1DULL;
  options.pool = ctx.pool;
  return options;
}

Marginals InferMarginals(const PipelineContext& ctx,
                         const WeightStore& weights, GibbsEnd* end) {
  if (ctx.graph.dc_factors().empty()) {
    return ExactIndependentMarginals(ctx.graph, weights);
  }
  return GibbsMarginals(ctx.graph, ctx.dataset->dirty(), *ctx.dcs, weights,
                        InferGibbsOptions(ctx), ctx.config.sim_threshold,
                        end);
}

void ExtractRepairs(const PipelineContext& ctx, const Marginals& marginals,
                    std::vector<Repair>* repairs,
                    std::vector<CellPosterior>* posteriors) {
  const Table& table = ctx.dataset->dirty();
  repairs->clear();
  posteriors->clear();
  for (int32_t var_id : ctx.graph.query_vars()) {
    const Variable& var = ctx.graph.variable(var_id);
    int map_index = marginals.MapIndex(var_id);
    double map_prob = marginals.MapProb(var_id);
    ValueId old_value = table.Get(var.cell);
    ValueId new_value = var.domain[static_cast<size_t>(map_index)];
    posteriors->push_back({var.cell, old_value, new_value, map_prob});
    if (new_value != old_value) {
      repairs->push_back({var.cell, old_value, new_value, map_prob});
    }
  }
  std::sort(repairs->begin(), repairs->end(),
            [](const Repair& a, const Repair& b) { return a.cell < b.cell; });
}

std::string DiffPipeline(const PipelineContext& ctx) {
  const HoloCleanConfig& config = ctx.config;
  const Table& table = ctx.dataset->dirty();

  // Detect.
  if (ctx.attrs != ctx.dataset->RepairableAttrs()) {
    return "detect: repairable attributes differ";
  }
  DetectResult detected =
      DetectViolations(table, *ctx.dcs, config.sim_threshold);
  std::string diff =
      DiffViolationSet(ctx.violations, ctx.noisy, detected, table.num_rows());
  if (!diff.empty()) return "detect: " + diff;
  if (ctx.report.stats.num_violations != detected.violations.size()) {
    return "detect: violation count differs";
  }
  if (ctx.report.stats.detect_truncated != !detected.truncated_dcs.empty() ||
      ctx.report.stats.num_truncated_dcs != detected.truncated_dcs.size()) {
    return "detect: truncation flags differ";
  }
  const NoisyCells& noisy = ctx.noisy;

  // Stats: the compile stage keeps none, so recompute them the way it
  // does and check them against the recount.
  const CooccurrenceStats cooc =
      CooccurrenceStats::BuildColumnar(table, ctx.attrs);
  diff = DiffCooccurrence(cooc, CountCooccurrence(table, ctx.attrs),
                          ctx.attrs);
  if (!diff.empty()) return "stats: " + diff;

  // Domains, over the query cells plus the evidence sample.
  if (ctx.query_cells != noisy.cells()) return "compile: query cells differ";
  std::vector<CellRef> evidence =
      EvidenceSample(table, ctx.attrs, noisy, config);
  if (ctx.evidence_cells != evidence) return "compile: evidence cells differ";
  std::vector<CellRef> cells = noisy.cells();
  cells.insert(cells.end(), evidence.begin(), evidence.end());
  DomainPruningOptions prune;
  prune.tau = config.tau;
  prune.max_candidates = config.max_candidates;
  if (!(PruneDomains(table, cells, ctx.attrs, cooc, prune).candidates ==
        ctx.domains.candidates)) {
    return "compile: candidate domains differ";
  }
  const bool partitioned = config.partitioning &&
                           (config.dc_mode == DcMode::kFactors ||
                            config.dc_mode == DcMode::kBoth);
  if (partitioned &&
      ctx.groups.groups_per_dc !=
          BuildTupleGroups(table.num_rows(), ctx.dcs->size(),
                           detected.violations)
              .groups_per_dc) {
    return "compile: tuple groups differ";
  }
  diff = DiffCondProbFeatures(ctx.graph, table, ctx.attrs, cooc);
  if (!diff.empty()) return "ground: " + diff;

  // Learn, infer, repair.
  WeightStore weights = LearnWeights(ctx);
  if (weights.raw() != ctx.weights.raw()) return "learn: weights differ";
  GibbsEnd end;
  Marginals marginals = InferMarginals(ctx, weights, &end);
  if (marginals.probs() != ctx.marginals.probs()) {
    return "infer: marginals differ";
  }
  if (!ctx.graph.dc_factors().empty()) {
    // Gibbs marginals are sample counts, and a small change in the factor
    // scores can leave every draw, and so every count, as it was. The
    // chains' final states are compared, and every query variable's
    // scores at that state, which any change in the scoring moves.
    std::shared_ptr<const CompiledGraph> compiled = ctx.compiled;
    if (compiled == nullptr) {
      CompiledGraphOptions copts;
      copts.violation_table_cap = config.dc_table_cap;
      copts.sim_threshold = config.sim_threshold;
      compiled = std::make_shared<const CompiledGraph>(
          CompiledGraph::Build(ctx.graph, table, *ctx.dcs, copts, ctx.pool));
    }
    GibbsSampler sampler(&ctx.graph, *compiled, &table, ctx.dcs,
                         &ctx.weights, InferGibbsOptions(ctx));
    sampler.Run();
    if (sampler.assignment() != end.assignment) {
      return "infer: Gibbs chains end in different states";
    }
    for (int32_t v : ctx.graph.query_vars()) {
      if (sampler.ConditionalScores(v) !=
          end.conditionals[static_cast<size_t>(v)]) {
        return "infer: conditional scores of variable " + std::to_string(v) +
               " differ";
      }
    }
  }
  std::vector<Repair> repairs;
  std::vector<CellPosterior> posteriors;
  ExtractRepairs(ctx, marginals, &repairs, &posteriors);
  if (repairs.size() != ctx.report.repairs.size() ||
      posteriors.size() != ctx.report.posteriors.size()) {
    return "repair: counts differ";
  }
  for (size_t i = 0; i < repairs.size(); ++i) {
    const Repair& x = ctx.report.repairs[i];
    const Repair& y = repairs[i];
    if (!(x.cell == y.cell) || x.old_value != y.old_value ||
        x.new_value != y.new_value || x.probability != y.probability) {
      return "repair: repair " + std::to_string(i) + " differs";
    }
  }
  for (size_t i = 0; i < posteriors.size(); ++i) {
    const CellPosterior& x = ctx.report.posteriors[i];
    const CellPosterior& y = posteriors[i];
    if (!(x.cell == y.cell) || x.old_value != y.old_value ||
        x.map_value != y.map_value || x.map_prob != y.map_prob) {
      return "repair: posterior " + std::to_string(i) + " differs";
    }
  }
  return "";
}

}  // namespace oracle
}  // namespace holoclean
