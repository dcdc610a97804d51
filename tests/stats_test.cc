#include <gtest/gtest.h>

#include <cmath>

#include "holoclean/stats/cooccurrence.h"
#include "holoclean/stats/frequency.h"
#include "holoclean/stats/numeric.h"
#include "holoclean/stats/source_reliability.h"
#include "holoclean/util/rng.h"

namespace holoclean {
namespace {

Table CityZipTable() {
  Table t(Schema({"City", "Zip"}), std::make_shared<Dictionary>());
  t.AppendRow({"Chicago", "60608"});
  t.AppendRow({"Chicago", "60608"});
  t.AppendRow({"Chicago", "60609"});
  t.AppendRow({"Evanston", "60201"});
  t.AppendRow({"", "60201"});  // NULL city.
  return t;
}

std::vector<AttrId> Attrs(const Table& t) {
  std::vector<AttrId> out;
  for (size_t a = 0; a < t.schema().num_attrs(); ++a) {
    out.push_back(static_cast<AttrId>(a));
  }
  return out;
}

// ---------- FrequencyStats ----------

TEST(FrequencyStats, CountsAndProbabilities) {
  Table t = CityZipTable();
  FrequencyStats freq = FrequencyStats::Build(t);
  ValueId chicago = t.dict().Lookup("Chicago");
  EXPECT_EQ(freq.Count(0, chicago), 3);
  EXPECT_DOUBLE_EQ(freq.Probability(0, chicago), 3.0 / 5.0);
  EXPECT_EQ(freq.Count(0, t.dict().Lookup("Evanston")), 1);
  EXPECT_EQ(freq.Mode(0), chicago);
}

TEST(FrequencyStats, SortedCountsDescending) {
  Table t = CityZipTable();
  FrequencyStats freq = FrequencyStats::Build(t);
  auto sorted = freq.SortedCounts(1);
  for (size_t i = 0; i + 1 < sorted.size(); ++i) {
    EXPECT_GE(sorted[i].second, sorted[i + 1].second);
  }
}

// ---------- CooccurrenceStats ----------

TEST(Cooccurrence, PairCountsSkipNulls) {
  Table t = CityZipTable();
  CooccurrenceStats cooc = CooccurrenceStats::BuildColumnar(t, Attrs(t));
  ValueId chicago = t.dict().Lookup("Chicago");
  ValueId z608 = t.dict().Lookup("60608");
  ValueId z201 = t.dict().Lookup("60201");
  EXPECT_EQ(cooc.PairCount(0, chicago, 1, z608), 2);
  // The NULL-city row does not contribute a (city, zip) pair.
  EXPECT_EQ(cooc.PairCount(1, z201, 0, Dictionary::kNull), 0);
  // Count() of the context side also skips nothing else.
  EXPECT_EQ(cooc.Count(1, z201), 2);
}

TEST(Cooccurrence, CondProbDefinition) {
  Table t = CityZipTable();
  CooccurrenceStats cooc = CooccurrenceStats::BuildColumnar(t, Attrs(t));
  ValueId chicago = t.dict().Lookup("Chicago");
  ValueId z608 = t.dict().Lookup("60608");
  // Pr[City=Chicago | Zip=60608] = 2/2.
  EXPECT_DOUBLE_EQ(cooc.CondProb(0, chicago, 1, z608), 1.0);
  // Pr[Zip=60608 | City=Chicago] = 2/3.
  EXPECT_DOUBLE_EQ(cooc.CondProb(1, z608, 0, chicago), 2.0 / 3.0);
  // Unseen context yields probability 0.
  EXPECT_DOUBLE_EQ(cooc.CondProb(0, chicago, 1, 9999), 0.0);
}

TEST(Cooccurrence, CooccurringValuesMatchesPairCounts) {
  Table t = CityZipTable();
  CooccurrenceStats cooc = CooccurrenceStats::BuildColumnar(t, Attrs(t));
  ValueId chicago = t.dict().Lookup("Chicago");
  auto values = cooc.CooccurringValues(1, 0, chicago);
  ASSERT_EQ(values.size(), 2u);
  int total = 0;
  for (const auto& [v, n] : values) {
    EXPECT_EQ(n, cooc.PairCount(1, v, 0, chicago));
    total += n;
  }
  EXPECT_EQ(total, 3);
}

TEST(Cooccurrence, ConditionalSumsToOneProperty) {
  // Property: for any context value, Σ_v Pr[v | ctx] == 1 over non-null
  // rows of the target attribute.
  Rng rng(99);
  Table t(Schema({"A", "B"}), std::make_shared<Dictionary>());
  for (int i = 0; i < 200; ++i) {
    t.AppendRow({"a" + std::to_string(rng.Below(5)),
                 "b" + std::to_string(rng.Below(3))});
  }
  CooccurrenceStats cooc = CooccurrenceStats::BuildColumnar(t, {0, 1});
  for (ValueId b : cooc.Domain(1)) {
    double sum = 0.0;
    for (ValueId a : cooc.Domain(0)) sum += cooc.CondProb(0, a, 1, b);
    EXPECT_NEAR(sum, 1.0, 1e-9);
  }
}

TEST(Cooccurrence, DomainIsSortedDistinct) {
  Table t = CityZipTable();
  CooccurrenceStats cooc = CooccurrenceStats::BuildColumnar(t, Attrs(t));
  const auto& domain = cooc.Domain(0);
  EXPECT_EQ(domain.size(), 2u);
  EXPECT_TRUE(std::is_sorted(domain.begin(), domain.end()));
}

// ---------- SourceReliability ----------

Table FusionTable(int num_entities, double good_acc, double bad_acc,
                  uint64_t seed) {
  Rng rng(seed);
  Table t(Schema({"Key", "Value", "Source"}), std::make_shared<Dictionary>());
  for (int e = 0; e < num_entities; ++e) {
    std::string key = "k" + std::to_string(e);
    std::string truth = "v" + std::to_string(e);
    std::string wrong = "w" + std::to_string(e);
    for (int s = 0; s < 6; ++s) {
      double acc = s < 3 ? good_acc : bad_acc;
      t.AppendRow({key, rng.Chance(acc) ? truth : wrong,
                   "src" + std::to_string(s)});
    }
  }
  return t;
}

TEST(SourceReliability, SeparatesGoodFromBadSources) {
  Table t = FusionTable(200, 0.95, 0.3, 42);
  SourceReliability r = SourceReliability::Estimate(t, 0, 2);
  for (int s = 0; s < 3; ++s) {
    ValueId good = t.dict().Lookup("src" + std::to_string(s));
    ValueId bad = t.dict().Lookup("src" + std::to_string(s + 3));
    EXPECT_GT(r.Get(good), 0.8) << "good source " << s;
    EXPECT_LT(r.Get(bad), 0.55) << "bad source " << s;
  }
}

TEST(SourceReliability, UnknownSourceIsUninformative) {
  Table t = FusionTable(10, 0.9, 0.4, 1);
  SourceReliability r = SourceReliability::Estimate(t, 0, 2);
  EXPECT_DOUBLE_EQ(r.Get(99999), 0.5);
}

TEST(SourceReliability, AllReturnsSorted) {
  Table t = FusionTable(20, 0.9, 0.4, 2);
  SourceReliability r = SourceReliability::Estimate(t, 0, 2);
  auto all = r.All();
  EXPECT_EQ(all.size(), 6u);
  for (size_t i = 0; i + 1 < all.size(); ++i) {
    EXPECT_LT(all[i].first, all[i + 1].first);
  }
}


// ---------- NumericProfile ----------

TEST(NumericProfile, BasicStatistics) {
  Table t(Schema({"Score"}), std::make_shared<Dictionary>());
  for (const char* v : {"1", "2", "3", "4", "5"}) t.AppendRow({v});
  NumericProfile p = ProfileNumeric(t, 0);
  EXPECT_EQ(p.numeric_count, 5u);
  EXPECT_TRUE(p.IsNumericAttribute());
  EXPECT_DOUBLE_EQ(p.mean, 3.0);
  EXPECT_DOUBLE_EQ(p.median, 3.0);
  EXPECT_NEAR(p.stddev, std::sqrt(2.0), 1e-9);
  EXPECT_NEAR(p.mad, 1.4826, 1e-9);
}

TEST(NumericProfile, MixedColumnIsNotNumeric) {
  Table t(Schema({"A"}), std::make_shared<Dictionary>());
  t.AppendRow({"1"});
  t.AppendRow({"hello"});
  t.AppendRow({"world"});
  NumericProfile p = ProfileNumeric(t, 0);
  EXPECT_FALSE(p.IsNumericAttribute());
  EXPECT_EQ(p.non_numeric_count, 2u);
}

TEST(NumericProfile, RobustZIdentifiesOutliers) {
  Table t(Schema({"A"}), std::make_shared<Dictionary>());
  for (int i = 0; i < 50; ++i) t.AppendRow({std::to_string(100 + i % 5)});
  NumericProfile p = ProfileNumeric(t, 0);
  EXPECT_LT(p.RobustZ(103.0), 3.0);
  EXPECT_GT(p.RobustZ(9999.0), 5.0);
}

TEST(NumericProfile, EmptyAndNullColumns) {
  Table t(Schema({"A"}), std::make_shared<Dictionary>());
  t.AppendRow({""});
  NumericProfile p = ProfileNumeric(t, 0);
  EXPECT_EQ(p.numeric_count, 0u);
  EXPECT_FALSE(p.IsNumericAttribute());
  EXPECT_DOUBLE_EQ(p.RobustZ(1.0), 0.0);
}

}  // namespace
}  // namespace holoclean
