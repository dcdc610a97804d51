#include "holoclean/constraints/denial_constraint.h"

#include <algorithm>
#include <set>
#include <sstream>

namespace holoclean {

const char* OpName(Op op) {
  switch (op) {
    case Op::kEq:
      return "EQ";
    case Op::kNeq:
      return "IQ";
    case Op::kLt:
      return "LT";
    case Op::kGt:
      return "GT";
    case Op::kLeq:
      return "LTE";
    case Op::kGeq:
      return "GTE";
    case Op::kSim:
      return "SIM";
  }
  return "?";
}

bool DenialConstraint::IsTwoTuple() const {
  for (const Predicate& p : preds) {
    if (p.lhs_tuple == 1) return true;
    if (!p.rhs_is_constant && p.rhs_tuple == 1) return true;
  }
  return false;
}

std::vector<AttrId> DenialConstraint::AttrsOfRole(int role) const {
  std::set<AttrId> attrs;
  for (const Predicate& p : preds) {
    if (p.lhs_tuple == role) attrs.insert(p.lhs_attr);
    if (!p.rhs_is_constant && p.rhs_tuple == role) attrs.insert(p.rhs_attr);
  }
  return {attrs.begin(), attrs.end()};
}

std::vector<AttrId> DenialConstraint::AllAttrs() const {
  std::set<AttrId> attrs;
  for (int role : {0, 1}) {
    for (AttrId a : AttrsOfRole(role)) attrs.insert(a);
  }
  return {attrs.begin(), attrs.end()};
}

std::vector<const Predicate*> DenialConstraint::CrossEqualities() const {
  std::vector<const Predicate*> out;
  for (const Predicate& p : preds) {
    if (p.op == Op::kEq && p.SpansTuples()) out.push_back(&p);
  }
  return out;
}

AttrId DenialConstraint::FdTargetAttr() const {
  AttrId target = -1;
  for (const Predicate& p : preds) {
    if (p.rhs_is_constant || p.lhs_tuple == p.rhs_tuple ||
        p.lhs_attr != p.rhs_attr) {
      return -1;
    }
    if (p.op == Op::kNeq) {
      if (target >= 0) return -1;
      target = p.lhs_attr;
    } else if (p.op != Op::kEq) {
      return -1;
    }
  }
  return target;
}

std::string DenialConstraint::ToString(const Schema& schema) const {
  std::ostringstream os;
  os << "t1";
  if (IsTwoTuple()) os << "&t2";
  for (const Predicate& p : preds) {
    os << "&" << OpName(p.op) << "(t" << (p.lhs_tuple + 1) << "."
       << schema.name(p.lhs_attr) << ",";
    if (p.rhs_is_constant) {
      os << "\"" << p.constant << "\"";
    } else {
      os << "t" << (p.rhs_tuple + 1) << "." << schema.name(p.rhs_attr);
    }
    os << ")";
  }
  return os.str();
}

Result<std::vector<DenialConstraint>> FdToDenialConstraints(
    const Schema& schema, const std::vector<std::string>& lhs,
    const std::vector<std::string>& rhs) {
  std::vector<AttrId> lhs_ids;
  for (const std::string& name : lhs) {
    AttrId a = schema.IndexOf(name);
    if (a < 0) return Status::NotFound("unknown attribute: " + name);
    lhs_ids.push_back(a);
  }
  std::vector<DenialConstraint> out;
  for (const std::string& name : rhs) {
    AttrId r = schema.IndexOf(name);
    if (r < 0) return Status::NotFound("unknown attribute: " + name);
    DenialConstraint dc;
    std::string lhs_desc;
    for (size_t i = 0; i < lhs.size(); ++i) {
      if (i > 0) lhs_desc += ",";
      lhs_desc += lhs[i];
    }
    dc.name = "FD(" + lhs_desc + "->" + name + ")";
    for (AttrId l : lhs_ids) {
      Predicate p;
      p.lhs_tuple = 0;
      p.lhs_attr = l;
      p.op = Op::kEq;
      p.rhs_tuple = 1;
      p.rhs_attr = l;
      dc.preds.push_back(p);
    }
    Predicate neq;
    neq.lhs_tuple = 0;
    neq.lhs_attr = r;
    neq.op = Op::kNeq;
    neq.rhs_tuple = 1;
    neq.rhs_attr = r;
    dc.preds.push_back(neq);
    out.push_back(std::move(dc));
  }
  return out;
}

}  // namespace holoclean
