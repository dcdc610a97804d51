#include "holoclean/model/partitioning.h"

#include <algorithm>
#include <unordered_map>

#include "holoclean/util/union_find.h"

namespace holoclean {

size_t TupleGroups::TotalPairs() const {
  size_t total = 0;
  for (const auto& groups : groups_per_dc) {
    for (const auto& g : groups) {
      total += g.size() * (g.size() - 1) / 2;
    }
  }
  return total;
}

TupleGroups BuildTupleGroups(size_t num_tuples, size_t num_dcs,
                             const ViolationSet& violations) {
  TupleGroups out;
  out.groups_per_dc.resize(num_dcs);
  for (size_t dc = 0; dc < num_dcs && dc < violations.per_dc.size(); ++dc) {
    const DcViolations& found = violations.per_dc[dc];
    auto& groups = out.groups_per_dc[dc];
    groups = found.blocks;
    if (found.pairs.empty()) continue;
    UnionFind uf(num_tuples);
    std::vector<bool> touched(num_tuples, false);
    for (const auto& [t1, t2] : found.pairs) {
      touched[static_cast<size_t>(t1)] = true;
      touched[static_cast<size_t>(t2)] = true;
      uf.Union(static_cast<size_t>(t1), static_cast<size_t>(t2));
    }
    std::unordered_map<size_t, std::vector<TupleId>> components;
    for (size_t t = 0; t < num_tuples; ++t) {
      if (!touched[t]) continue;
      components[uf.Find(t)].push_back(static_cast<TupleId>(t));
    }
    for (auto& [root, members] : components) {
      if (members.size() < 2) continue;
      std::sort(members.begin(), members.end());
      groups.push_back(std::move(members));
    }
    // Deterministic ordering across runs.
    std::sort(groups.begin(), groups.end());
  }
  return out;
}

}  // namespace holoclean
