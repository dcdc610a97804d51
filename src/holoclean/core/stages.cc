#include "holoclean/core/stage.h"

#include <algorithm>

#include "holoclean/infer/gibbs.h"
#include "holoclean/infer/learner.h"
#include "holoclean/model/weight_initializer.h"
#include "holoclean/stats/cooccurrence.h"
#include "holoclean/util/rng.h"

namespace holoclean {

const char* StageName(StageId id) {
  switch (id) {
    case StageId::kDetect:
      return "detect";
    case StageId::kCompile:
      return "compile";
    case StageId::kLearn:
      return "learn";
    case StageId::kInfer:
      return "infer";
    case StageId::kRepair:
      return "repair";
  }
  return "unknown";
}

Result<StageId> ParseStageName(const std::string& name) {
  for (int i = 0; i < kNumStages; ++i) {
    StageId id = static_cast<StageId>(i);
    if (name == StageName(id)) return id;
  }
  return Status::InvalidArgument(
      "unknown stage: " + name +
      " (expected detect|compile|learn|infer|repair)");
}

namespace {

/// Builds the DDlog program mirroring the configured model, for the report.
Program BuildProgram(const HoloCleanConfig& config,
                     const std::vector<DenialConstraint>& dcs,
                     size_t num_dicts) {
  Program program;
  InferenceRule random_var;
  random_var.kind = RuleKind::kRandomVariable;
  program.rules.push_back(random_var);
  InferenceRule feature;
  feature.kind = RuleKind::kFeature;
  feature.weight_is_learned = true;
  program.rules.push_back(feature);
  InferenceRule prior;
  prior.kind = RuleKind::kMinimalityPrior;
  prior.fixed_weight = config.minimality_weight;
  program.rules.push_back(prior);
  for (size_t k = 0; k < num_dicts; ++k) {
    InferenceRule rule;
    rule.kind = RuleKind::kExtDictMatch;
    rule.dict_id = static_cast<int>(k);
    rule.weight_is_learned = true;
    program.rules.push_back(rule);
  }
  bool factors =
      config.dc_mode == DcMode::kFactors || config.dc_mode == DcMode::kBoth;
  bool features =
      config.dc_mode == DcMode::kFeatures || config.dc_mode == DcMode::kBoth;
  for (size_t s = 0; s < dcs.size(); ++s) {
    if (factors) {
      InferenceRule rule;
      rule.kind = RuleKind::kDcFactor;
      rule.dc_index = static_cast<int>(s);
      rule.fixed_weight = config.dc_factor_weight;
      program.rules.push_back(rule);
    }
    if (features) {
      for (const DcHeadSlot& slot : EnumerateHeadSlots(dcs[s])) {
        InferenceRule rule;
        rule.kind = RuleKind::kDcRelaxedFeature;
        rule.dc_index = static_cast<int>(s);
        rule.head = slot;
        rule.weight_is_learned = true;
        program.rules.push_back(rule);
      }
    }
  }
  return program;
}

/// Phase 1 — error detection: DC violations plus any extra detectors union
/// into the noisy set Dn.
class DetectStage : public PipelineStage {
 public:
  StageId id() const override { return StageId::kDetect; }

  Status Run(PipelineContext* ctx) override {
    ctx->attrs = ctx->dataset->RepairableAttrs();
    ctx->InstallDetect(ctx->Detect());
    return Status::OK();
  }
};

/// Phase 2 — compilation: co-occurrence statistics, external-data matching,
/// evidence sampling, domain pruning (Algorithm 2), DDlog program
/// generation, tuple partitioning (Algorithm 3), and grounding.
class CompileStage : public PipelineStage {
 public:
  StageId id() const override { return StageId::kCompile; }

  Status Run(PipelineContext* ctx) override {
    const HoloCleanConfig& config = ctx->config;
    Table& table = ctx->dataset->dirty();
    const std::vector<AttrId>& attrs = ctx->attrs;

    // Own a stable copy of the query cells; feedback pins may have shrunk
    // the noisy set since detection ran.
    ctx->query_cells = ctx->noisy.cells();
    ctx->report.stats.num_noisy_cells = ctx->query_cells.size();

    // Compilation rebuilds the graph from scratch, so a pending lazily
    // restored graph section is dead weight — drop it (and its file
    // mapping) instead of materializing it. The compiled runtime view of
    // the old graph is stale for the same reason.
    ctx->deferred_graph.reset();
    ctx->compiled.reset();

    // Only pruning and grounding below read the statistics, so they live
    // no longer than this stage.
    const CooccurrenceStats cooc =
        CooccurrenceStats::BuildColumnar(table, attrs, ctx->pool);

    // External data: evaluate matching dependencies, intern suggested
    // values so they can enter candidate domains.
    ctx->matches.clear();
    if (ctx->dicts != nullptr && ctx->mds != nullptr && !ctx->dicts->empty()) {
      Matcher matcher(&table, ctx->dicts);
      HOLO_ASSIGN_OR_RETURN(matched, matcher.MatchAll(*ctx->mds));
      ctx->matches = std::move(matched);
      for (const MatchedEntry& m : ctx->matches) table.dict().Intern(m.value);
    }

    // Evidence sample: clean, non-null cells, capped for training cost.
    ctx->evidence_cells.clear();
    for (size_t t = 0; t < table.num_rows(); ++t) {
      for (AttrId a : attrs) {
        CellRef c{static_cast<TupleId>(t), a};
        if (ctx->noisy.Contains(c)) continue;
        if (table.Get(c) == Dictionary::kNull) continue;
        ctx->evidence_cells.push_back(c);
      }
    }
    if (ctx->evidence_cells.size() > config.max_training_cells) {
      Rng rng(config.seed);
      rng.Shuffle(&ctx->evidence_cells);
      ctx->evidence_cells.resize(config.max_training_cells);
      std::sort(ctx->evidence_cells.begin(), ctx->evidence_cells.end());
    }

    // Domain pruning (Algorithm 2) over query and evidence cells alike.
    DomainPruningOptions prune_options;
    prune_options.tau = config.tau;
    prune_options.max_candidates = config.max_candidates;
    std::vector<CellRef> all_cells = ctx->query_cells;
    all_cells.insert(all_cells.end(), ctx->evidence_cells.begin(),
                     ctx->evidence_cells.end());
    ctx->domains = PruneDomainsColumnar(table, all_cells, attrs, cooc,
                                        prune_options, ctx->pool);

    // Candidates suggested by external dictionaries join the domain of the
    // matched (noisy) cells.
    for (const MatchedEntry& m : ctx->matches) {
      if (!ctx->noisy.Contains(m.cell)) continue;
      auto it = ctx->domains.candidates.find(m.cell);
      if (it == ctx->domains.candidates.end()) continue;
      ValueId v = table.dict().Lookup(m.value);
      if (v < 0) continue;
      if (std::find(it->second.begin(), it->second.end(), v) ==
          it->second.end()) {
        it->second.push_back(v);
      }
    }
    ctx->report.stats.num_candidates = ctx->domains.TotalCandidates();

    ctx->program = BuildProgram(
        config, *ctx->dcs, ctx->dicts == nullptr ? 0 : ctx->dicts->size());
    ctx->report.ddlog = ctx->program.ToDDlog(table.schema(), *ctx->dcs);

    bool dc_factors =
        config.dc_mode == DcMode::kFactors || config.dc_mode == DcMode::kBoth;
    bool partitioned = dc_factors && config.partitioning;
    ctx->groups = partitioned
                      ? BuildTupleGroups(table.num_rows(), ctx->dcs->size(),
                                         ctx->violations)
                      : TupleGroups();

    GroundingInput input;
    input.table = &table;
    input.dcs = ctx->dcs;
    input.attrs = &ctx->attrs;
    input.cooc = &cooc;
    input.query_cells = &ctx->query_cells;
    input.evidence_cells = &ctx->evidence_cells;
    input.domains = &ctx->domains;
    input.matches = ctx->matches.empty() ? nullptr : &ctx->matches;
    input.violations = &ctx->violations;
    input.groups = partitioned ? &ctx->groups : nullptr;
    input.source_attr = ctx->dataset->source_attr();

    GroundingOptions options = config.ToGroundingOptions();
    options.pool = ctx->pool;
    Grounder grounder(input, options);
    HOLO_ASSIGN_OR_RETURN(graph, grounder.Ground());
    ctx->graph = std::move(graph);
    ctx->grounder_stats = grounder.stats();
    ++ctx->ground_runs;
    ctx->report.stats.num_query_vars = grounder.stats().num_query_vars;
    ctx->report.stats.num_evidence_vars = grounder.stats().num_evidence_vars;
    ctx->report.stats.num_dc_factors = grounder.stats().num_dc_factors;
    ctx->report.stats.num_grounded_factors = ctx->graph.NumGroundedFactors();
    return Status::OK();
  }
};

/// Phase 3a — learning: prior weights seeded by the WeightInitializer,
/// refined by SGD on the evidence variables.
class LearnStage : public PipelineStage {
 public:
  StageId id() const override { return StageId::kLearn; }

  Status Run(PipelineContext* ctx) override {
    HOLO_RETURN_NOT_OK(ctx->EnsureGraph());
    const HoloCleanConfig& config = ctx->config;
    WeightInitInput input;
    input.table = &ctx->dataset->dirty();
    input.attrs = &ctx->attrs;
    input.dcs = ctx->dcs;
    input.num_dicts = ctx->dicts == nullptr ? 0 : ctx->dicts->size();
    input.source_attr =
        ctx->dataset->has_source_attr() ? ctx->dataset->source_attr() : -1;
    WeightInitializer initializer(config.ToWeightInitOptions());
    ctx->weights = initializer.Initialize(input);

    LearnerOptions options;
    options.epochs = config.epochs;
    options.learning_rate = config.learning_rate;
    options.lr_decay = config.lr_decay;
    options.l2 = config.l2;
    options.seed = config.seed ^ 0x5851F42D4C957F2DULL;
    HOLO_RETURN_NOT_OK(ctx->EnsureCompiled());
    SgdLearner(options).Train(*ctx->compiled, &ctx->weights);
    return Status::OK();
  }
};

/// Phase 3b — inference: exact marginals for the relaxed (factor-free)
/// model, Gibbs sampling otherwise. The sampler runs one chain per
/// factor-graph component: a chain whose sweep holds at least 2^16 factor
/// slots spreads each sweep over the pool (a variable samples after its
/// earlier-ordered neighbours), the rest run whole, one per worker.
class InferStage : public PipelineStage {
 public:
  StageId id() const override { return StageId::kInfer; }

  Status Run(PipelineContext* ctx) override {
    HOLO_RETURN_NOT_OK(ctx->EnsureCompiled());
    const HoloCleanConfig& config = ctx->config;
    if (ctx->graph.dc_factors().empty()) {
      ctx->marginals = ExactIndependentMarginals(*ctx->compiled, ctx->weights);
    } else {
      GibbsOptions options;
      options.burn_in = config.gibbs_burn_in;
      options.samples = config.gibbs_samples;
      options.seed = config.seed ^ 0x2545F4914F6CDD1DULL;
      options.pool = ctx->pool;
      GibbsSampler sampler(&ctx->graph, *ctx->compiled,
                           &ctx->dataset->dirty(), ctx->dcs, &ctx->weights,
                           options);
      ctx->marginals = sampler.Run();
    }
    return Status::OK();
  }
};

/// Phase 4 — repair extraction: MAP assignment per query variable, repairs
/// where it differs from the observed value.
class RepairStage : public PipelineStage {
 public:
  StageId id() const override { return StageId::kRepair; }

  Status Run(PipelineContext* ctx) override {
    HOLO_RETURN_NOT_OK(ctx->EnsureGraph());
    const Table& table = ctx->dataset->dirty();
    Report& report = ctx->report;
    report.repairs.clear();
    report.posteriors.clear();
    for (int32_t var_id : ctx->graph.query_vars()) {
      const Variable& var = ctx->graph.variable(var_id);
      int map_index = ctx->marginals.MapIndex(var_id);
      double map_prob = ctx->marginals.MapProb(var_id);
      ValueId old_value = table.Get(var.cell);
      ValueId new_value = var.domain[static_cast<size_t>(map_index)];
      report.posteriors.push_back(
          {var.cell, old_value, new_value, map_prob});
      if (new_value != old_value) {
        report.repairs.push_back({var.cell, old_value, new_value, map_prob});
      }
    }
    std::sort(
        report.repairs.begin(), report.repairs.end(),
        [](const Repair& a, const Repair& b) { return a.cell < b.cell; });
    return Status::OK();
  }
};

}  // namespace

std::vector<std::unique_ptr<PipelineStage>> MakeDefaultStages() {
  std::vector<std::unique_ptr<PipelineStage>> stages;
  stages.push_back(std::make_unique<DetectStage>());
  stages.push_back(std::make_unique<CompileStage>());
  stages.push_back(std::make_unique<LearnStage>());
  stages.push_back(std::make_unique<InferStage>());
  stages.push_back(std::make_unique<RepairStage>());
  return stages;
}

}  // namespace holoclean
