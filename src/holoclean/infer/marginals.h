#ifndef HOLOCLEAN_INFER_MARGINALS_H_
#define HOLOCLEAN_INFER_MARGINALS_H_

#include <vector>

#include "holoclean/model/compiled_graph.h"

namespace holoclean {

/// Posterior marginals per variable: probs[var][k] is the marginal
/// probability of candidate k. Evidence variables get a point mass on
/// their observed value.
class Marginals {
 public:
  explicit Marginals(size_t num_vars) : probs_(num_vars) {}

  std::vector<std::vector<double>>& probs() { return probs_; }
  const std::vector<std::vector<double>>& probs() const { return probs_; }
  const std::vector<double>& Of(int var_id) const {
    return probs_[static_cast<size_t>(var_id)];
  }

  /// Index of the maximum-a-posteriori candidate.
  int MapIndex(int var_id) const;
  /// Marginal probability of the MAP candidate.
  double MapProb(int var_id) const;

 private:
  std::vector<std::vector<double>> probs_;
};

/// Closed-form marginals for the relaxed model (paper §5.2): with no DC
/// factors the variables are independent, so each query variable's marginal
/// is the softmax of its unary scores. Evidence variables are point masses.
/// Candidates are scored through the dense weight vector and CSR feature
/// arenas: no hash lookup per activation, no per-variable allocation.
Marginals ExactIndependentMarginals(const CompiledGraph& compiled,
                                    const WeightStore& weights);

}  // namespace holoclean

#endif  // HOLOCLEAN_INFER_MARGINALS_H_
