#ifndef HOLOCLEAN_CONSTRAINTS_DENIAL_CONSTRAINT_H_
#define HOLOCLEAN_CONSTRAINTS_DENIAL_CONSTRAINT_H_

#include <string>
#include <vector>

#include "holoclean/storage/table.h"

namespace holoclean {

/// Comparison operators of denial-constraint predicates (paper Section 3.1).
/// kSim is the ≈ similarity operator.
enum class Op {
  kEq,
  kNeq,
  kLt,
  kGt,
  kLeq,
  kGeq,
  kSim,
};

/// Short mnemonic used by the textual DC format ("EQ", "IQ", ...).
const char* OpName(Op op);

/// A single predicate of a denial constraint. The left side is always a
/// cell reference (tuple role + attribute); the right side is either a cell
/// reference or a string constant.
struct Predicate {
  int lhs_tuple = 0;   ///< 0 = t1, 1 = t2.
  AttrId lhs_attr = 0;
  Op op = Op::kEq;
  bool rhs_is_constant = false;
  int rhs_tuple = 0;
  AttrId rhs_attr = 0;
  std::string constant;

  /// True when the predicate mentions both tuple roles.
  bool SpansTuples() const {
    return !rhs_is_constant && lhs_tuple != rhs_tuple;
  }
};

/// A denial constraint σ: ∀ t1, t2 ∈ D : ¬(P1 ∧ ... ∧ PK).
/// A pair (or single tuple) *violates* σ when all predicates hold.
struct DenialConstraint {
  std::string name;
  std::vector<Predicate> preds;

  /// True when any predicate references the t2 role (pairwise constraint).
  bool IsTwoTuple() const;

  /// Attributes referenced for a given tuple role (0 = t1, 1 = t2),
  /// deduplicated, sorted.
  std::vector<AttrId> AttrsOfRole(int role) const;

  /// All referenced attributes over both roles, deduplicated, sorted.
  std::vector<AttrId> AllAttrs() const;

  /// Equality predicates spanning both tuples — the blocking keys used by
  /// the violation detector to avoid the quadratic pair scan.
  std::vector<const Predicate*> CrossEqualities() const;

  /// The attribute of the single ≠ predicate when the constraint is
  /// FD-shaped — every predicate compares one attribute of t1 with the
  /// same attribute of t2, all with = except exactly one ≠ (the form
  /// FdToDenialConstraints emits) — and -1 otherwise.
  AttrId FdTargetAttr() const;

  /// Textual form in the parser's format, e.g.
  /// "t1&t2&EQ(t1.Zip,t2.Zip)&IQ(t1.City,t2.City)".
  std::string ToString(const Schema& schema) const;
};

/// Expands the functional dependency lhs -> rhs into one two-tuple denial
/// constraint per rhs attribute (paper Example 2). Attribute names must
/// exist in `schema`.
Result<std::vector<DenialConstraint>> FdToDenialConstraints(
    const Schema& schema, const std::vector<std::string>& lhs,
    const std::vector<std::string>& rhs);

}  // namespace holoclean

#endif  // HOLOCLEAN_CONSTRAINTS_DENIAL_CONSTRAINT_H_
