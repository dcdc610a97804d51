#include <gtest/gtest.h>

#include <cmath>

#include "holoclean/infer/gibbs.h"
#include "holoclean/infer/learner.h"
#include "holoclean/infer/marginals.h"
#include "holoclean/model/compiled_graph.h"
#include "holoclean/model/feature_registry.h"

namespace holoclean {
namespace {

/// Compiles a graph whose factors (if any) are constraints over `table`.
CompiledGraph Compile(const FactorGraph& graph, const Table& table,
                      const std::vector<DenialConstraint>& dcs) {
  return CompiledGraph::Build(graph, table, dcs);
}

/// Compiles a unary-only graph.
CompiledGraph Compile(const FactorGraph& graph) {
  Table table(Schema({"A"}), std::make_shared<Dictionary>());
  return Compile(graph, table, {});
}

// ---------- Softmax ----------

TEST(Softmax, SumsToOne) {
  auto p = Softmax({1.0, 2.0, 3.0});
  EXPECT_NEAR(p[0] + p[1] + p[2], 1.0, 1e-12);
  EXPECT_LT(p[0], p[1]);
  EXPECT_LT(p[1], p[2]);
}

TEST(Softmax, NumericallyStableForLargeScores) {
  auto p = Softmax({1000.0, 1001.0});
  EXPECT_NEAR(p[0] + p[1], 1.0, 1e-12);
  EXPECT_GT(p[1], p[0]);
  EXPECT_FALSE(std::isnan(p[0]));
}

TEST(Softmax, UniformForEqualScores) {
  auto p = Softmax({0.5, 0.5, 0.5, 0.5});
  for (double v : p) EXPECT_NEAR(v, 0.25, 1e-12);
}

TEST(Softmax, EmptyInputYieldsEmptyOutput) {
  // Guarded: *std::max_element on an empty range would be UB.
  EXPECT_TRUE(Softmax({}).empty());
  std::vector<double> scores;
  SoftmaxInPlace(&scores);
  EXPECT_TRUE(scores.empty());
}

TEST(Softmax, InPlaceVariantMatchesBitForBit) {
  std::vector<double> scores = {-3.5, 0.0, 1.25, 1000.0, 999.5};
  std::vector<double> expected = Softmax(scores);
  SoftmaxInPlace(&scores);
  ASSERT_EQ(scores.size(), expected.size());
  for (size_t i = 0; i < scores.size(); ++i) {
    EXPECT_EQ(scores[i], expected[i]);
  }
}

// A tiny hand-built graph:
//   feature keys: 1 ("f1"), 2 ("f2").
//   Evidence variables expose a learnable pattern: label candidate carries
//   f1, the other candidate carries f2.
Variable MakeVar(CellRef cell, bool evidence, int init_index,
                 std::vector<std::vector<FeatureInstance>> per_candidate) {
  Variable var;
  var.cell = cell;
  var.is_evidence = evidence;
  var.init_index = init_index;
  var.domain.resize(per_candidate.size());
  for (size_t i = 0; i < per_candidate.size(); ++i) {
    var.domain[i] = static_cast<ValueId>(100 + i);
  }
  var.prior_bias.assign(per_candidate.size(), 0.0);
  var.feat_begin.push_back(0);
  for (const auto& feats : per_candidate) {
    for (const auto& f : feats) var.features.push_back(f);
    var.feat_begin.push_back(static_cast<int32_t>(var.features.size()));
  }
  return var;
}

TEST(SgdLearner, LearnsSeparableWeights) {
  FactorGraph graph;
  for (int i = 0; i < 50; ++i) {
    graph.AddVariable(MakeVar({i, 0}, /*evidence=*/true, /*init=*/0,
                              {{{1, 1.0f}}, {{2, 1.0f}}}));
  }
  // A query variable with the same feature pattern.
  graph.AddVariable(MakeVar({99, 0}, /*evidence=*/false, 1,
                            {{{1, 1.0f}}, {{2, 1.0f}}}));

  WeightStore weights;
  LearnerOptions options;
  options.epochs = 30;
  CompiledGraph compiled = Compile(graph);
  auto nll = SgdLearner(options).Train(compiled, &weights);
  ASSERT_EQ(nll.size(), 30u);
  // NLL decreases and w(f1) > w(f2).
  EXPECT_LT(nll.back(), nll.front());
  EXPECT_GT(weights.Get(1), weights.Get(2));

  // The query variable now prefers candidate 0.
  Marginals marginals = ExactIndependentMarginals(compiled, weights);
  int query = graph.query_vars()[0];
  EXPECT_EQ(marginals.MapIndex(query), 0);
  EXPECT_GT(marginals.MapProb(query), 0.5);
}

TEST(SgdLearner, NoEvidenceNoCrash) {
  FactorGraph graph;
  graph.AddVariable(MakeVar({0, 0}, false, 0, {{{1, 1.0f}}, {{2, 1.0f}}}));
  WeightStore weights;
  EXPECT_TRUE(
      SgdLearner(LearnerOptions()).Train(Compile(graph), &weights).empty());
}

TEST(SgdLearner, L2ShrinksWeights) {
  FactorGraph graph;
  for (int i = 0; i < 20; ++i) {
    graph.AddVariable(MakeVar({i, 0}, true, 0,
                              {{{1, 1.0f}}, {{2, 1.0f}}}));
  }
  LearnerOptions strong;
  strong.epochs = 20;
  strong.l2 = 0.5;
  LearnerOptions weak;
  weak.epochs = 20;
  weak.l2 = 0.0;
  WeightStore w_strong;
  WeightStore w_weak;
  CompiledGraph compiled = Compile(graph);
  SgdLearner(strong).Train(compiled, &w_strong);
  SgdLearner(weak).Train(compiled, &w_weak);
  EXPECT_LT(std::abs(w_strong.Get(1)), std::abs(w_weak.Get(1)));
}

TEST(ExactMarginals, EvidenceIsPointMass) {
  FactorGraph graph;
  graph.AddVariable(MakeVar({0, 0}, true, 1, {{{1, 1.0f}}, {{2, 1.0f}}}));
  WeightStore weights;
  Marginals m = ExactIndependentMarginals(Compile(graph), weights);
  EXPECT_DOUBLE_EQ(m.Of(0)[0], 0.0);
  EXPECT_DOUBLE_EQ(m.Of(0)[1], 1.0);
  EXPECT_EQ(m.MapIndex(0), 1);
}

TEST(ExactMarginals, MatchesSoftmaxOfScores) {
  FactorGraph graph;
  Variable var = MakeVar({0, 0}, false, 0, {{{1, 1.0f}}, {{2, 1.0f}}});
  var.prior_bias = {0.5, 0.0};
  graph.AddVariable(var);
  WeightStore weights;
  weights.Set(1, 1.0);
  weights.Set(2, 0.25);
  Marginals m = ExactIndependentMarginals(Compile(graph), weights);
  auto expected = Softmax({1.5, 0.25});
  EXPECT_NEAR(m.Of(0)[0], expected[0], 1e-12);
  EXPECT_NEAR(m.Of(0)[1], expected[1], 1e-12);
}

// ---------- Gibbs ----------

// Without factors the Gibbs marginals must converge to the independent
// softmax marginals.
TEST(Gibbs, MatchesExactMarginalsWithoutFactors) {
  FactorGraph graph;
  Variable var = MakeVar({0, 0}, false, 0, {{{1, 1.0f}}, {{2, 1.0f}}});
  graph.AddVariable(var);
  Table table(Schema({"A"}), std::make_shared<Dictionary>());
  table.AppendRow({"x"});
  std::vector<DenialConstraint> dcs;
  WeightStore weights;
  weights.Set(1, 1.0);

  GibbsOptions options;
  options.burn_in = 50;
  options.samples = 4000;
  CompiledGraph compiled = Compile(graph, table, dcs);
  GibbsSampler sampler(&graph, compiled, &table, &dcs, &weights, options);
  Marginals gibbs = sampler.Run();
  Marginals exact = ExactIndependentMarginals(compiled, weights);
  EXPECT_NEAR(gibbs.Of(0)[0], exact.Of(0)[0], 0.03);
}

// A two-variable graph with a pairwise constraint factor: compare Gibbs
// marginals against brute-force enumeration of the joint distribution.
TEST(Gibbs, MatchesBruteForceWithFactor) {
  Table table(Schema({"V"}), std::make_shared<Dictionary>());
  table.AppendRow({"a"});
  table.AppendRow({"b"});
  ValueId a = table.dict().Lookup("a");
  ValueId b = table.dict().Lookup("b");

  // Constraint: the two cells must not differ (violated when unequal).
  Schema schema = table.schema();
  DenialConstraint dc;
  dc.name = "equal";
  Predicate p;
  p.lhs_tuple = 0;
  p.lhs_attr = 0;
  p.op = Op::kNeq;
  p.rhs_tuple = 1;
  p.rhs_attr = 0;
  dc.preds.push_back(p);
  std::vector<DenialConstraint> dcs = {dc};

  FactorGraph graph;
  for (int t = 0; t < 2; ++t) {
    Variable var;
    var.cell = {t, 0};
    var.domain = {a, b};
    var.init_index = t;  // Observed: t0="a", t1="b" (conflicting).
    var.is_evidence = false;
    var.prior_bias = {0.0, 0.0};
    var.feat_begin = {0, 0, 0};
    graph.AddVariable(var);
  }
  double w = 1.2;
  graph.AddDcFactor({0, 0, 1, w, {0, 1}});

  WeightStore weights;
  GibbsOptions options;
  options.burn_in = 200;
  options.samples = 30000;
  options.seed = 9;
  CompiledGraph compiled = Compile(graph, table, dcs);
  GibbsSampler sampler(&graph, compiled, &table, &dcs, &weights, options);
  Marginals gibbs = sampler.Run();

  // Brute force: states (i, j) with energy -w when i != j.
  double z = 0.0;
  double p0_a = 0.0;
  for (int i = 0; i < 2; ++i) {
    for (int j = 0; j < 2; ++j) {
      double score = i != j ? -w : 0.0;
      double mass = std::exp(score);
      z += mass;
      if (i == 0) p0_a += mass;
    }
  }
  EXPECT_NEAR(gibbs.Of(0)[0], p0_a / z, 0.02);
}

TEST(Gibbs, DeterministicForSeed) {
  FactorGraph graph;
  graph.AddVariable(MakeVar({0, 0}, false, 0, {{{1, 1.0f}}, {{2, 1.0f}}}));
  Table table(Schema({"A"}), std::make_shared<Dictionary>());
  table.AppendRow({"x"});
  std::vector<DenialConstraint> dcs;
  WeightStore weights;
  GibbsOptions options;
  options.samples = 100;
  CompiledGraph compiled = Compile(graph, table, dcs);
  GibbsSampler s1(&graph, compiled, &table, &dcs, &weights, options);
  GibbsSampler s2(&graph, compiled, &table, &dcs, &weights, options);
  EXPECT_EQ(s1.Run().Of(0), s2.Run().Of(0));
}

TEST(Gibbs, MarginalsSumToOne) {
  FactorGraph graph;
  graph.AddVariable(
      MakeVar({0, 0}, false, 0,
              {{{1, 1.0f}}, {{2, 1.0f}}, {{1, 0.5f}, {2, 0.5f}}}));
  Table table(Schema({"A"}), std::make_shared<Dictionary>());
  table.AppendRow({"x"});
  std::vector<DenialConstraint> dcs;
  WeightStore weights;
  GibbsOptions options;
  CompiledGraph compiled = Compile(graph, table, dcs);
  GibbsSampler sampler(&graph, compiled, &table, &dcs, &weights, options);
  Marginals m = sampler.Run();
  double sum = 0.0;
  for (double p : m.Of(0)) sum += p;
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

}  // namespace
}  // namespace holoclean
