#include "holoclean/infer/marginals.h"

#include <algorithm>

#include "holoclean/infer/learner.h"

namespace holoclean {

int Marginals::MapIndex(int var_id) const {
  const auto& p = probs_[static_cast<size_t>(var_id)];
  return static_cast<int>(
      std::max_element(p.begin(), p.end()) - p.begin());
}

double Marginals::MapProb(int var_id) const {
  const auto& p = probs_[static_cast<size_t>(var_id)];
  return *std::max_element(p.begin(), p.end());
}

Marginals ExactIndependentMarginals(const CompiledGraph& compiled,
                                    const WeightStore& weights) {
  std::vector<double> dense = compiled.GatherWeights(weights);
  Marginals out(compiled.num_variables());
  for (size_t v = 0; v < compiled.num_variables(); ++v) {
    size_t num_cand =
        static_cast<size_t>(compiled.NumCandidates(static_cast<int>(v)));
    auto& probs = out.probs()[v];
    probs.assign(num_cand, 0.0);
    if (compiled.IsEvidence(static_cast<int>(v))) {
      probs[static_cast<size_t>(compiled.InitIndex(static_cast<int>(v)))] =
          1.0;
      continue;
    }
    for (size_t k = 0; k < num_cand; ++k) {
      probs[k] = compiled.UnaryScore(static_cast<int>(v),
                                     static_cast<int>(k), dense);
    }
    SoftmaxInPlace(&probs);  // Scores softmax into the marginals in place.
  }
  return out;
}

}  // namespace holoclean
