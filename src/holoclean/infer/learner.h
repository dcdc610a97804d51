#ifndef HOLOCLEAN_INFER_LEARNER_H_
#define HOLOCLEAN_INFER_LEARNER_H_

#include <vector>

#include "holoclean/model/compiled_graph.h"

namespace holoclean {

/// SGD hyper-parameters for weight learning.
struct LearnerOptions {
  int epochs = 20;
  double learning_rate = 0.05;
  /// Multiplicative decay applied to the learning rate per epoch.
  double lr_decay = 0.95;
  /// L2 regularization strength (applied lazily to touched weights).
  double l2 = 1e-5;
  uint64_t seed = 17;
};

/// Numerically stable softmax. Empty input yields an empty result.
std::vector<double> Softmax(const std::vector<double>& scores);

/// In-place variant: replaces `scores` with its softmax, allocation-free.
/// Produces exactly the values Softmax would; the learn/infer hot loops
/// (SGD, Gibbs sweeps, marginal estimation) use this on reused scratch
/// buffers. No-op on empty input.
void SoftmaxInPlace(std::vector<double>* scores);

/// Empirical-risk minimization over the evidence variables (paper §2.2):
/// each evidence cell is a multinomial logistic example whose label is its
/// observed value; SGD maximizes the conditional log-likelihood. Because
/// the relaxed model's variables are independent, this objective is convex
/// (paper §5.2).
///
/// SGD runs over a CompiledGraph: the store is gathered into a dense
/// parameter vector, every update reads the CSR feature arenas, and the
/// touched weights are scattered back — no hash lookup per feature
/// activation. The results (per-epoch NLL, the store's entry set, every
/// value) are bit-identical to the FactorGraph interpreter kept as the
/// reference in tests/oracle/.
class SgdLearner {
 public:
  explicit SgdLearner(LearnerOptions options);

  /// Trains `weights` in place over every evidence variable of `compiled`
  /// (ascending ids, the graph's evidence order); returns the average
  /// negative log-likelihood per epoch (for convergence monitoring/tests).
  std::vector<double> Train(const CompiledGraph& compiled,
                            WeightStore* weights) const;

 private:
  LearnerOptions options_;
};

}  // namespace holoclean

#endif  // HOLOCLEAN_INFER_LEARNER_H_
