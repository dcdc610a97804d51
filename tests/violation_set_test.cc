// Tests for the pipeline's violation set (ViolationDetector::DetectSet):
// FD-shaped constraints detected as conflict blocks, every other shape as
// stored pairs. The contract is equality with the materialized pair list —
// per-constraint counts, pairs, truncation, tuple groups, and the noisy
// cells in order — checked against the row-at-a-time oracle on randomized
// tables and constraint mixes.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "holoclean/constraints/parser.h"
#include "holoclean/data/food.h"
#include "holoclean/detect/violation_detector.h"
#include "holoclean/model/partitioning.h"
#include "holoclean/util/logging.h"
#include "holoclean/util/rng.h"
#include "holoclean/util/thread_pool.h"
#include "oracle/oracle.h"

namespace holoclean {
namespace {

/// t1.a op t2.b (b defaults to a); `flip` writes it as t2.a op t1.b.
Predicate Cross(AttrId a, Op op, bool flip = false, AttrId b = -1) {
  Predicate p;
  p.lhs_tuple = flip ? 1 : 0;
  p.lhs_attr = a;
  p.op = op;
  p.rhs_tuple = flip ? 0 : 1;
  p.rhs_attr = b < 0 ? a : b;
  return p;
}

/// t<role>.a op "constant".
Predicate Const(int role, AttrId a, Op op, std::string constant) {
  Predicate p;
  p.lhs_tuple = role;
  p.lhs_attr = a;
  p.op = op;
  p.rhs_is_constant = true;
  p.constant = std::move(constant);
  return p;
}

/// Small numeric domains, so blocks conflict often and ordered predicates
/// compare; ~10% NULL cells.
Table RandomTable(Rng* rng, size_t rows, size_t attrs) {
  std::vector<std::string> names;
  for (size_t a = 0; a < attrs; ++a) names.push_back("A" + std::to_string(a));
  Table t{Schema(names), std::make_shared<Dictionary>()};
  std::vector<uint64_t> domain(attrs);
  for (uint64_t& d : domain) d = 1 + rng->Below(5);
  for (size_t r = 0; r < rows; ++r) {
    std::vector<std::string> row;
    for (size_t a = 0; a < attrs; ++a) {
      row.push_back(rng->Below(10) == 0
                        ? ""
                        : std::to_string(rng->Below(domain[a])));
    }
    t.AppendRow(row);
  }
  return t;
}

/// One random constraint: FD-shaped (1–3 key attributes, shuffled
/// predicate order, flipped roles, sometimes a repeated predicate or a key
/// that is also the target) or one of the shapes the block path must leave
/// to the pair scan.
DenialConstraint RandomDc(Rng* rng, size_t attrs) {
  auto attr = [&] { return static_cast<AttrId>(rng->Below(attrs)); };
  auto flip = [&] { return rng->Below(2) == 0; };
  auto value = [&] { return std::to_string(rng->Below(4)); };
  DenialConstraint dc;
  const uint64_t kind = rng->Below(10);
  if (kind < 5) {
    // FD-shaped, possibly with a twist that makes it another shape.
    std::vector<AttrId> order;
    for (size_t a = 0; a < attrs; ++a) order.push_back(static_cast<AttrId>(a));
    rng->Shuffle(&order);
    const size_t keys = 1 + rng->Below(std::min<size_t>(3, attrs - 1));
    for (size_t k = 0; k < keys; ++k) {
      dc.preds.push_back(Cross(order[k], Op::kEq, flip()));
    }
    const AttrId target = rng->Below(8) == 0 ? order[0] : order[keys];
    dc.preds.push_back(Cross(target, Op::kNeq, flip()));
    if (rng->Below(6) == 0) dc.preds.push_back(dc.preds[0]);
    switch (rng->Below(8)) {
      case 0:  // A constant predicate: masks, pair scan.
        dc.preds.push_back(Const(static_cast<int>(rng->Below(2)), attr(),
                                 rng->Below(2) ? Op::kEq : Op::kNeq,
                                 value()));
        break;
      case 1:  // A second ≠: pair scan.
        dc.preds.push_back(Cross(attr(), Op::kNeq, flip()));
        break;
      case 2:  // A cross-attribute equality: pair scan.
        dc.preds.push_back(Cross(attr(), Op::kEq, flip(), attr()));
        break;
      default:
        break;
    }
    std::vector<Predicate> preds = dc.preds;
    rng->Shuffle(&preds);
    dc.preds = preds;
  } else if (kind < 7) {
    // Ordered: a blocking equality plus an ordered comparison.
    dc.preds.push_back(Cross(attr(), Op::kEq, flip()));
    const Op ops[] = {Op::kLt, Op::kGt, Op::kLeq, Op::kGeq, Op::kSim};
    dc.preds.push_back(Cross(attr(), ops[rng->Below(5)], flip(), attr()));
  } else if (kind < 9) {
    // Equality-free: the budgeted full scan.
    dc.preds.push_back(Cross(attr(), Op::kNeq, flip()));
    if (flip()) dc.preds.push_back(Cross(attr(), Op::kLt, flip(), attr()));
  } else {
    // Single-tuple.
    dc.preds.push_back(Const(0, attr(), Op::kEq, value()));
    if (flip()) {
      dc.preds.push_back(Cross(attr(), Op::kNeq, false, attr()));
      dc.preds.back().rhs_tuple = 0;
    }
  }
  dc.name = "dc" + std::to_string(kind);
  return dc;
}

/// Holds the log level at kError for its scope (truncation warnings are
/// expected by the test that sets it).
struct QuietLogs {
  LogLevel saved = GetLogLevel();
  QuietLogs() { SetLogLevel(LogLevel::kError); }
  ~QuietLogs() { SetLogLevel(saved); }
};

TEST(ViolationSet, MatchesPairListOnRandomTables) {
  QuietLogs quiet;
  ThreadPool pool(2);
  size_t blocked_dcs = 0;
  size_t pair_dcs = 0;
  size_t truncated = 0;
  constexpr uint64_t kTables = 600;
  for (uint64_t seed = 0; seed < kTables; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(0x5EED0000 + seed);
    const size_t attrs = 2 + rng.Below(4);
    Table table = RandomTable(&rng, rng.Below(70), attrs);
    std::vector<DenialConstraint> dcs;
    for (uint64_t k = 1 + rng.Below(4); k > 0; --k) {
      dcs.push_back(RandomDc(&rng, attrs));
    }
    ViolationDetector::Options options;
    options.max_fallback_pairs = rng.Below(3) == 0 ? 40 + rng.Below(400)
                                                   : 4'000'000;
    options.pool = seed % 2 == 0 ? &pool : nullptr;
    DetectArtifacts got = ViolationDetector(&table, &dcs, options).DetectSet();
    DetectResult expected = oracle::DetectViolations(
        table, dcs, options.sim_threshold, options.max_fallback_pairs);
    ASSERT_EQ(oracle::DiffViolationSet(got.violations, got.noisy, expected,
                                       table.num_rows()),
              "");
    ASSERT_EQ(got.violations.TruncatedDcs(), expected.truncated_dcs);
    ASSERT_EQ(got.violations.size(), expected.violations.size());
    // The pair list production still materializes for its other callers.
    ASSERT_EQ(oracle::DiffViolations(
                  ViolationDetector(&table, &dcs, options).DetectAll()
                      .violations,
                  expected.violations),
              "");
    for (const DcViolations& dc : got.violations.per_dc) {
      blocked_dcs += dc.blocks.empty() ? 0 : 1;
      pair_dcs += dc.pairs.empty() ? 0 : 1;
    }
    truncated += got.violations.TruncatedDcs().size();
  }
  // Every path is exercised.
  EXPECT_GT(blocked_dcs, 200u);
  EXPECT_GT(pair_dcs, 200u);
  EXPECT_GT(truncated, 10u);
}

TEST(ViolationSet, FdConstraintsKeepBlocksNotPairs) {
  GeneratedData data = MakeFood({2000, 0.08, 3});
  const Table& table = data.dataset.dirty();
  DetectArtifacts got = ViolationDetector(&table, &data.dcs).DetectSet();
  DetectResult expected = oracle::DetectViolations(table, data.dcs);
  ASSERT_EQ(oracle::DiffViolationSet(got.violations, got.noisy, expected,
                                     table.num_rows()),
            "");
  size_t blocks = 0;
  for (size_t d = 0; d < data.dcs.size(); ++d) {
    ASSERT_GE(data.dcs[d].FdTargetAttr(), 0) << data.dcs[d].name;
    EXPECT_TRUE(got.violations.per_dc[d].pairs.empty());
    blocks += got.violations.per_dc[d].blocks.size();
  }
  EXPECT_GT(blocks, 0u);
  EXPECT_GT(got.violations.size(), 0u);
}

TEST(ViolationSet, BlockCountsEveryCrossValuePair) {
  // One key, values a a b a c (and a NULL that never violates): pairs with
  // different values are 5·5 − (3² + 1² + 1²) = 14, halved to 7.
  Table t(Schema({"K", "V"}), std::make_shared<Dictionary>());
  for (const char* v : {"a", "a", "b", "", "a", "c"}) t.AppendRow({"k", v});
  t.AppendRow({"other", "z"});
  auto dcs = ParseDenialConstraints("t1&t2&EQ(t1.K,t2.K)&IQ(t1.V,t2.V)",
                                    t.schema());
  ASSERT_TRUE(dcs.ok());
  DetectArtifacts got = ViolationDetector(&t, &dcs.value()).DetectSet();
  const DcViolations& dc = got.violations.per_dc[0];
  EXPECT_EQ(dc.count, 7u);
  EXPECT_EQ(dc.blocks, (std::vector<std::vector<TupleId>>{{0, 1, 2, 4, 5}}));
  TupleGroups groups = BuildTupleGroups(t.num_rows(), 1, got.violations);
  EXPECT_EQ(groups.groups_per_dc[0], dc.blocks);
  EXPECT_EQ(oracle::DiffViolationSet(got.violations, got.noisy,
                                     oracle::DetectViolations(t, dcs.value()),
                                     t.num_rows()),
            "");
  // The NULL-valued tuple and the lone key contribute no cells.
  EXPECT_FALSE(got.noisy.Contains({3, 0}));
  EXPECT_FALSE(got.noisy.Contains({6, 0}));
}

}  // namespace
}  // namespace holoclean
