#include <gtest/gtest.h>

#include <tuple>
#include <utility>

#include "holoclean/constraints/parser.h"
#include "holoclean/detect/violation_detector.h"
#include "holoclean/model/compiled_graph.h"
#include "holoclean/model/domain_pruning.h"
#include "holoclean/model/feature_registry.h"
#include "holoclean/model/grounding.h"
#include "holoclean/model/partitioning.h"
#include "holoclean/model/weight_store.h"
#include "oracle/oracle.h"

namespace holoclean {
namespace {

// ---------- WeightKeyCodec ----------

TEST(WeightKeyCodec, PackUnpackRoundTrip) {
  uint64_t key = WeightKeyCodec::Pack(FeatureKind::kCooccurrence, 7, 13,
                                      123456, 654321);
  EXPECT_EQ(WeightKeyCodec::Kind(key), FeatureKind::kCooccurrence);
  EXPECT_EQ(WeightKeyCodec::P1(key), 7u);
  EXPECT_EQ(WeightKeyCodec::P2(key), 13u);
  EXPECT_EQ(WeightKeyCodec::Ctx(key), 123456u);
  EXPECT_EQ(WeightKeyCodec::Value(key), 654321u);
}

TEST(WeightKeyCodec, DistinctFeaturesDistinctKeys) {
  uint64_t a = WeightKeyCodec::Pack(FeatureKind::kCooccurrence, 1, 2, 3, 4);
  uint64_t b = WeightKeyCodec::Pack(FeatureKind::kCooccurrence, 1, 2, 4, 3);
  uint64_t c = WeightKeyCodec::Pack(FeatureKind::kDcViolation, 1, 2, 3, 4);
  EXPECT_NE(a, b);
  EXPECT_NE(a, c);
}

TEST(WeightKeyCodec, DescribeMentionsAttributeNames) {
  Schema schema({"City", "Zip"});
  Dictionary dict;
  ValueId chicago = dict.Intern("Chicago");
  ValueId z = dict.Intern("60608");
  uint64_t key = WeightKeyCodec::Pack(
      FeatureKind::kCooccurrence, 0, 1, static_cast<uint32_t>(z),
      static_cast<uint32_t>(chicago));
  std::string text = WeightKeyCodec::Describe(key, schema, dict);
  EXPECT_NE(text.find("City"), std::string::npos);
  EXPECT_NE(text.find("Chicago"), std::string::npos);
  EXPECT_NE(text.find("60608"), std::string::npos);
}

// ---------- WeightStore ----------

TEST(WeightStore, DefaultZeroAndUpdates) {
  WeightStore w;
  EXPECT_DOUBLE_EQ(w.Get(1), 0.0);
  w.Set(1, 2.0);
  w.Add(1, 0.5);
  EXPECT_DOUBLE_EQ(w.Get(1), 2.5);
  EXPECT_EQ(w.size(), 1u);
}

TEST(WeightStore, ShrinkAll) {
  WeightStore w;
  w.Set(1, 2.0);
  w.Set(2, -4.0);
  w.ShrinkAll(0.5);
  EXPECT_DOUBLE_EQ(w.Get(1), 1.0);
  EXPECT_DOUBLE_EQ(w.Get(2), -2.0);
}

TEST(WeightStore, TopByMagnitude) {
  WeightStore w;
  w.Set(1, 0.5);
  w.Set(2, -3.0);
  w.Set(3, 1.5);
  auto top = w.TopByMagnitude(2);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].first, 2u);
  EXPECT_EQ(top[1].first, 3u);
}

TEST(WeightStore, TopByMagnitudeDeterministicAcrossInsertionOrders) {
  // Many equal-magnitude entries (including opposite signs) inserted in
  // opposite orders: the ranking must tie-break on the packed key, never
  // on the unordered_map's iteration order.
  WeightStore forward, backward;
  for (uint64_t k = 0; k < 64; ++k) {
    forward.Set(k, k % 2 == 0 ? 1.5 : -1.5);
  }
  for (uint64_t k = 64; k-- > 0;) {
    backward.Set(k, k % 2 == 0 ? 1.5 : -1.5);
  }
  auto top_fwd = forward.TopByMagnitude(10);
  auto top_bwd = backward.TopByMagnitude(10);
  ASSERT_EQ(top_fwd.size(), 10u);
  ASSERT_EQ(top_fwd, top_bwd);
  for (size_t i = 0; i < top_fwd.size(); ++i) {
    EXPECT_EQ(top_fwd[i].first, i);  // Keys ascending within the tie.
  }
}

// ---------- Domain pruning (Algorithm 2) ----------

struct PruningFixture {
  PruningFixture() : table(Schema({"City", "Zip"}),
                           std::make_shared<Dictionary>()) {
    for (int i = 0; i < 8; ++i) table.AppendRow({"Chicago", "60608"});
    for (int i = 0; i < 2; ++i) table.AppendRow({"Evanston", "60608"});
    table.AppendRow({"Cicago", "60608"});  // The noisy cell (t10, City).
    attrs = {0, 1};
    cooc = CooccurrenceStats::BuildColumnar(table, attrs);
  }
  Table table;
  std::vector<AttrId> attrs;
  CooccurrenceStats cooc;
};

TEST(DomainPruning, ThresholdSelectsCooccurringValues) {
  PruningFixture f;
  DomainPruningOptions options;
  options.tau = 0.5;
  PrunedDomains domains = PruneDomainsColumnar(
      f.table, {{10, 0}}, f.attrs, f.cooc, options);
  const auto& cand = domains.For({10, 0});
  // Init value always first, then Chicago (8/11 >= 0.5).
  ASSERT_GE(cand.size(), 2u);
  EXPECT_EQ(f.table.dict().GetString(cand[0]), "Cicago");
  EXPECT_EQ(f.table.dict().GetString(cand[1]), "Chicago");
  // Evanston (2/11) is pruned at tau=0.5.
  for (ValueId v : cand) {
    EXPECT_NE(f.table.dict().GetString(v), "Evanston");
  }
}

TEST(DomainPruning, LowerTauGivesSupersetProperty) {
  // Property (Algorithm 2): candidates at higher tau are a subset of
  // candidates at lower tau.
  PruningFixture f;
  std::vector<CellRef> cells = {{10, 0}, {0, 1}, {9, 0}};
  for (double hi : {0.5, 0.7, 0.9}) {
    DomainPruningOptions low_options;
    low_options.tau = 0.3;
    DomainPruningOptions high_options;
    high_options.tau = hi;
    PrunedDomains low =
        PruneDomainsColumnar(f.table, cells, f.attrs, f.cooc, low_options);
    PrunedDomains high =
        PruneDomainsColumnar(f.table, cells, f.attrs, f.cooc, high_options);
    for (const CellRef& c : cells) {
      for (ValueId v : high.For(c)) {
        const auto& low_cand = low.For(c);
        EXPECT_NE(std::find(low_cand.begin(), low_cand.end(), v),
                  low_cand.end())
            << "tau=" << hi;
      }
    }
  }
}

TEST(DomainPruning, InitValueAlwaysIncluded) {
  PruningFixture f;
  DomainPruningOptions options;
  options.tau = 0.99;  // Prunes almost everything.
  PrunedDomains domains =
      PruneDomainsColumnar(f.table, {{10, 0}}, f.attrs, f.cooc, options);
  const auto& cand = domains.For({10, 0});
  ASSERT_FALSE(cand.empty());
  EXPECT_EQ(cand[0], f.table.Get(10, 0));
}

TEST(DomainPruning, MaxCandidatesCap) {
  Table t(Schema({"A", "B"}), std::make_shared<Dictionary>());
  for (int i = 0; i < 50; ++i) {
    t.AppendRow({"a" + std::to_string(i), "ctx"});
  }
  CooccurrenceStats cooc = CooccurrenceStats::BuildColumnar(t, {0, 1});
  DomainPruningOptions options;
  options.tau = 0.0;
  options.max_candidates = 5;
  PrunedDomains domains =
      PruneDomainsColumnar(t, {{0, 0}}, {0, 1}, cooc, options);
  EXPECT_LE(domains.For({0, 0}).size(), 6u);  // Cap + init value.
}

TEST(DomainPruning, TotalCandidatesSums) {
  PruningFixture f;
  DomainPruningOptions options;
  PrunedDomains domains = PruneDomainsColumnar(
      f.table, {{10, 0}, {0, 0}}, f.attrs, f.cooc, options);
  EXPECT_EQ(domains.TotalCandidates(),
            domains.For({10, 0}).size() + domains.For({0, 0}).size());
}

// ---------- Partitioning (Algorithm 3) ----------

/// A violation set whose constraints keep the given pairs.
ViolationSet PairsOnly(
    size_t num_dcs,
    const std::vector<std::tuple<int, TupleId, TupleId>>& pairs) {
  ViolationSet set;
  set.per_dc.resize(num_dcs);
  for (const auto& [dc, t1, t2] : pairs) {
    set.per_dc[static_cast<size_t>(dc)].pairs.emplace_back(t1, t2);
    ++set.per_dc[static_cast<size_t>(dc)].count;
  }
  return set;
}

TEST(Partitioning, ConnectedComponentsPerConstraint) {
  ViolationSet violations =
      PairsOnly(2, {{0, 0, 1}, {0, 1, 2}, {0, 5, 6}, {1, 0, 9}});
  TupleGroups groups = BuildTupleGroups(10, 2, violations);
  ASSERT_EQ(groups.groups_per_dc.size(), 2u);
  // DC 0: {0,1,2} and {5,6}.
  ASSERT_EQ(groups.groups_per_dc[0].size(), 2u);
  EXPECT_EQ(groups.groups_per_dc[0][0],
            (std::vector<TupleId>{0, 1, 2}));
  EXPECT_EQ(groups.groups_per_dc[0][1], (std::vector<TupleId>{5, 6}));
  // DC 1: {0,9}.
  ASSERT_EQ(groups.groups_per_dc[1].size(), 1u);
  EXPECT_EQ(groups.groups_per_dc[1][0], (std::vector<TupleId>{0, 9}));
  // Pairs: C(3,2) + C(2,2) + C(2,2) = 3 + 1 + 1.
  EXPECT_EQ(groups.TotalPairs(), 5u);
}

TEST(Partitioning, ConflictBlocksAreGroupsAsTheyStand) {
  ViolationSet violations;
  violations.per_dc.resize(1);
  violations.per_dc[0].blocks = {{1, 4, 7}, {2, 3}};
  TupleGroups groups = BuildTupleGroups(10, 1, violations);
  EXPECT_EQ(groups.groups_per_dc[0], violations.per_dc[0].blocks);
}

TEST(Partitioning, ViolatingPairsStayInSameGroupProperty) {
  // Property: every violating pair ends up in some group of its constraint.
  std::vector<std::tuple<int, TupleId, TupleId>> pairs;
  for (int i = 0; i < 20; i += 2) pairs.emplace_back(0, i, i + 1);
  ViolationSet violations = PairsOnly(1, pairs);
  TupleGroups groups = BuildTupleGroups(20, 1, violations);
  for (const auto& [t1, t2] : violations.per_dc[0].pairs) {
    bool together = false;
    for (const auto& g : groups.groups_per_dc[0]) {
      bool has1 = std::find(g.begin(), g.end(), t1) != g.end();
      bool has2 = std::find(g.begin(), g.end(), t2) != g.end();
      if (has1 && has2) together = true;
      EXPECT_EQ(has1, has2);  // Never split a violating pair.
    }
    EXPECT_TRUE(together);
  }
}

TEST(Partitioning, EmptyViolationsEmptyGroups) {
  TupleGroups groups = BuildTupleGroups(10, 3, ViolationSet());
  for (const auto& g : groups.groups_per_dc) EXPECT_TRUE(g.empty());
  EXPECT_EQ(groups.TotalPairs(), 0u);
}

// ---------- Grounding ----------

struct GroundingFixture {
  GroundingFixture()
      : table(Schema({"Name", "Zip", "City"}),
              std::make_shared<Dictionary>()) {
    table.AppendRow({"a", "60608", "Chicago"});
    table.AppendRow({"a", "60609", "Chicago"});
    table.AppendRow({"b", "60608", "Chicago"});
    table.AppendRow({"b", "60608", "Cicago"});
    table.AppendRow({"c", "60610", "Evanston"});
    attrs = {0, 1, 2};
    auto parsed = ParseDenialConstraints(
        "t1&t2&EQ(t1.Name,t2.Name)&IQ(t1.Zip,t2.Zip)\n"
        "t1&t2&EQ(t1.Zip,t2.Zip)&IQ(t1.City,t2.City)\n",
        table.schema());
    EXPECT_TRUE(parsed.ok());
    dcs = parsed.value();
    cooc = CooccurrenceStats::BuildColumnar(table, attrs);
    DetectArtifacts detected = ViolationDetector(&table, &dcs).DetectSet();
    violations = std::move(detected.violations);
    noisy = std::move(detected.noisy);
    for (size_t t = 0; t < table.num_rows(); ++t) {
      for (AttrId a : attrs) {
        CellRef c{static_cast<TupleId>(t), a};
        if (!noisy.Contains(c)) evidence.push_back(c);
      }
    }
    DomainPruningOptions prune;
    prune.tau = 0.2;
    std::vector<CellRef> all = noisy.cells();
    all.insert(all.end(), evidence.begin(), evidence.end());
    domains = PruneDomainsColumnar(table, all, attrs, cooc, prune);

    input.table = &table;
    input.dcs = &dcs;
    input.attrs = &attrs;
    input.query_cells = &noisy.cells();
    input.evidence_cells = &evidence;
    input.domains = &domains;
    input.cooc = &cooc;
    input.violations = &violations;
  }

  Table table;
  std::vector<AttrId> attrs;
  std::vector<DenialConstraint> dcs;
  CooccurrenceStats cooc;
  ViolationSet violations;
  NoisyCells noisy;
  std::vector<CellRef> evidence;
  PrunedDomains domains;
  GroundingInput input;
};

TEST(Grounding, RelaxedModeHasNoDcFactors) {
  GroundingFixture f;
  GroundingOptions options;
  options.dc_mode = DcMode::kFeatures;
  Grounder grounder(f.input, options);
  auto graph = grounder.Ground();
  ASSERT_TRUE(graph.ok());
  EXPECT_TRUE(graph.value().dc_factors().empty());
  EXPECT_EQ(graph.value().query_vars().size(), f.noisy.size());
  EXPECT_GT(graph.value().evidence_vars().size(), 0u);
}

TEST(Grounding, FactorModeGroundsPairFactors) {
  GroundingFixture f;
  GroundingOptions options;
  options.dc_mode = DcMode::kFactors;
  Grounder grounder(f.input, options);
  auto graph = grounder.Ground();
  ASSERT_TRUE(graph.ok());
  EXPECT_GT(graph.value().dc_factors().size(), 0u);
  for (const DcFactor& factor : graph.value().dc_factors()) {
    EXPECT_FALSE(factor.var_ids.empty());
    EXPECT_DOUBLE_EQ(factor.weight, options.dc_factor_weight);
    for (int32_t v : factor.var_ids) {
      EXPECT_FALSE(graph.value().variable(v).is_evidence);
    }
  }
}

TEST(Grounding, PartitioningNeverIncreasesFactors) {
  GroundingFixture f;
  GroundingOptions options;
  options.dc_mode = DcMode::kFactors;
  options.use_partitioning = false;
  Grounder without(f.input, options);
  auto graph_without = without.Ground();
  ASSERT_TRUE(graph_without.ok());
  options.use_partitioning = true;
  Grounder with(f.input, options);
  auto graph_with = with.Ground();
  ASSERT_TRUE(graph_with.ok());
  EXPECT_LE(graph_with.value().dc_factors().size(),
            graph_without.value().dc_factors().size());
}

TEST(Grounding, MinimalityPriorOnInitValue) {
  GroundingFixture f;
  GroundingOptions options;
  options.minimality_weight = 1.5;
  Grounder grounder(f.input, options);
  auto graph = grounder.Ground();
  ASSERT_TRUE(graph.ok());
  for (const Variable& var : graph.value().variables()) {
    ASSERT_GE(var.init_index, 0);
    for (size_t k = 0; k < var.NumCandidates(); ++k) {
      double expected = static_cast<int>(k) == var.init_index ? 1.5 : 0.0;
      EXPECT_DOUBLE_EQ(var.prior_bias[k], expected);
    }
  }
}

TEST(Grounding, ViolationFeatureDiscriminatesCandidates) {
  GroundingFixture f;
  GroundingOptions options;
  options.dc_mode = DcMode::kFeatures;
  Grounder grounder(f.input, options);
  auto graph = grounder.Ground();
  ASSERT_TRUE(graph.ok());
  // Variable for t3.City ("Cicago"): candidate "Chicago" resolves the
  // zip->city violation, so keeping "Cicago" must carry a DC-violation
  // feature while "Chicago" must not.
  int var_id = graph.value().VarOfCell({3, 2});
  ASSERT_GE(var_id, 0);
  const Variable& var = graph.value().variable(var_id);
  ValueId cicago = f.table.dict().Lookup("Cicago");
  ValueId chicago = f.table.dict().Lookup("Chicago");
  auto violation_weight = [&](ValueId value) {
    float total = 0.0f;
    for (size_t k = 0; k < var.NumCandidates(); ++k) {
      if (var.domain[k] != value) continue;
      for (int32_t i = var.feat_begin[k]; i < var.feat_begin[k + 1]; ++i) {
        if (WeightKeyCodec::Kind(var.features[i].weight_key) ==
            FeatureKind::kDcViolation) {
          total += var.features[i].activation;
        }
      }
    }
    return total;
  };
  EXPECT_GT(violation_weight(cicago), 0.0f);
  EXPECT_EQ(violation_weight(chicago), 0.0f);
}

TEST(Grounding, UnaryScoreUsesWeights) {
  GroundingFixture f;
  GroundingOptions options;
  Grounder grounder(f.input, options);
  auto graph = grounder.Ground();
  ASSERT_TRUE(graph.ok());
  const FactorGraph& g = graph.value();
  ASSERT_GT(g.num_variables(), 0u);
  CompiledGraph compiled = CompiledGraph::Build(g, f.table, f.dcs);
  WeightStore weights;
  // With all-zero weights the score equals the prior bias.
  const Variable& var = g.variable(0);
  EXPECT_DOUBLE_EQ(
      compiled.UnaryScore(0, var.init_index, compiled.GatherWeights(weights)),
      var.prior_bias[static_cast<size_t>(var.init_index)]);
  // Raising a feature weight raises the score of candidates carrying it.
  if (var.feat_begin[1] > 0) {
    uint64_t key = var.features[0].weight_key;
    weights.Set(key, 1.0);
    EXPECT_GT(compiled.UnaryScore(0, 0, compiled.GatherWeights(weights)),
              var.prior_bias[0] - 1e-12);
  }
}

TEST(Grounding, CondProbActivationsMatchStatistics) {
  // Every emitted kCondProb activation is (float)CondProb over the tuple's
  // non-null context cells, and only contexts with a positive probability
  // emit one — in every DC mode, at any pool size.
  GroundingFixture f;
  for (DcMode mode : {DcMode::kFeatures, DcMode::kFactors, DcMode::kBoth}) {
    for (size_t threads : {size_t{1}, size_t{4}}) {
      ThreadPool pool(threads);
      GroundingOptions options;
      options.dc_mode = mode;
      options.pool = &pool;
      auto graph = Grounder(f.input, options).Ground();
      ASSERT_TRUE(graph.ok());
      size_t cond_prob = 0;
      for (const Variable& var : graph.value().variables()) {
        for (const FeatureInstance& feat : var.features) {
          if (WeightKeyCodec::Kind(feat.weight_key) == FeatureKind::kCondProb) {
            ++cond_prob;
          }
        }
      }
      EXPECT_GT(cond_prob, 0u);
      EXPECT_EQ(oracle::DiffCondProbFeatures(graph.value(), f.table, f.attrs,
                                             f.cooc),
                "");
    }
  }
}

TEST(Grounding, StatsAreConsistent) {
  GroundingFixture f;
  GroundingOptions options;
  options.dc_mode = DcMode::kBoth;
  Grounder grounder(f.input, options);
  auto graph = grounder.Ground();
  ASSERT_TRUE(graph.ok());
  const Grounder::Stats& stats = grounder.stats();
  EXPECT_EQ(stats.num_query_vars, graph.value().query_vars().size());
  EXPECT_EQ(stats.num_evidence_vars, graph.value().evidence_vars().size());
  EXPECT_EQ(stats.num_dc_factors, graph.value().dc_factors().size());
  EXPECT_GT(graph.value().NumGroundedFactors(), stats.num_dc_factors);
}

}  // namespace
}  // namespace holoclean
