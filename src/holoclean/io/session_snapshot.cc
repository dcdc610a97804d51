#include "holoclean/io/session_snapshot.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string_view>

#include "holoclean/util/failpoint.h"
#include <unordered_set>
#include <utility>

#include "holoclean/core/stage.h"
#include "holoclean/io/mmap_file.h"
#include "holoclean/model/feature_registry.h"
#include "holoclean/util/hash.h"

namespace holoclean {

namespace {

constexpr char kMagic[4] = {'H', 'C', 'S', 'S'};
/// Magic (4) + format version (u32) + one u64: the payload size in v1, the
/// section-directory offset in the sectioned layout (v2, v3).
constexpr size_t kHeaderBytes = 16;
/// Trailing FNV-1a checksum (u64): over the payload in v1, over the
/// section directory in v2/v3 (sections carry their own checksums there).
constexpr size_t kChecksumBytes = 8;

/// v2/v3 section identifiers, in file order. Which sections a snapshot
/// carries is a function of its valid_through (mirroring the v1 payload's
/// conditional trailing blocks).
enum class SectionId : uint32_t {
  kMeta = 0,
  kDictionary = 1,
  kTable = 2,
  kDetect = 3,
  kCompile = 4,
  kGraph = 5,
  kWeights = 6,
  kMarginals = 7,
  kReport = 8,
  /// Per-column dictionary arrays + sorted prefixes of the ColumnStore,
  /// so restores install codes wholesale instead of re-encoding cell by
  /// cell. Always written by current saves; optional on load (v2 files
  /// predating the section restore through the per-cell path).
  kColumnStore = 9,
};

/// id (u32) + codec (u32) + offset (u64) + size (u64) + checksum (u64).
constexpr size_t kDirEntryBytes = 32;

uint64_t DoubleBits(double v) {
  uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

/// Checked narrowing for values decoded from u64 streams: a packed stream
/// can carry any u64, so every value destined for an int32 field must be
/// range-checked before the cast (a silent wrap would corrupt ids).
bool CastI32(uint64_t v, int32_t* out) {
  if (v > static_cast<uint64_t>(INT32_MAX)) return false;
  *out = static_cast<int32_t>(v);
  return true;
}

// --- Small-piece raw codecs (the v1 wire forms) ----------------------------

void WriteCellRef(BinaryWriter* out, const CellRef& c) {
  out->WriteI32(c.tid);
  out->WriteI32(c.attr);
}

Status ReadCellRef(BinaryReader* in, CellRef* c) {
  HOLO_RETURN_NOT_OK(in->ReadI32(&c->tid));
  HOLO_RETURN_NOT_OK(in->ReadI32(&c->attr));
  return Status::OK();
}

void WriteCellVec(BinaryWriter* out, const std::vector<CellRef>& cells) {
  out->WriteU64(cells.size());
  for (const CellRef& c : cells) WriteCellRef(out, c);
}

Status ReadCellVec(BinaryReader* in, std::vector<CellRef>* cells) {
  size_t n = 0;
  HOLO_RETURN_NOT_OK(in->ReadCount(8, &n));
  cells->resize(n);
  for (CellRef& c : *cells) HOLO_RETURN_NOT_OK(ReadCellRef(in, &c));
  return Status::OK();
}

void WriteI32Vec(BinaryWriter* out, const std::vector<int32_t>& v) {
  out->WriteU64(v.size());
  for (int32_t x : v) out->WriteI32(x);
}

Status ReadI32Vec(BinaryReader* in, std::vector<int32_t>* v) {
  size_t n = 0;
  HOLO_RETURN_NOT_OK(in->ReadCount(4, &n));
  v->resize(n);
  for (int32_t& x : *v) HOLO_RETURN_NOT_OK(in->ReadI32(&x));
  return Status::OK();
}

void WriteF64Vec(BinaryWriter* out, const std::vector<double>& v) {
  out->WriteU64(v.size());
  for (double x : v) out->WriteF64(x);
}

Status ReadF64Vec(BinaryReader* in, std::vector<double>* v) {
  size_t n = 0;
  HOLO_RETURN_NOT_OK(in->ReadCount(8, &n));
  v->resize(n);
  for (double& x : *v) HOLO_RETURN_NOT_OK(in->ReadF64(&x));
  return Status::OK();
}

Status ReadValueIdVec(BinaryReader* in, size_t dict_size,
                      std::vector<ValueId>* v) {
  HOLO_RETURN_NOT_OK(ReadI32Vec(in, v));
  for (ValueId id : *v) {
    if (id < 0 || static_cast<size_t>(id) >= dict_size) {
      return Status::ParseError("snapshot value id out of range");
    }
  }
  return Status::OK();
}

// --- Small-piece packed codecs ---------------------------------------------
// Cell vectors transpose into a tid stream and an attr stream: both are
// sorted or block-repetitive in practice, which the delta/RLE choosers
// exploit. Sizes must agree on read; every value is checked against the
// int32 range before narrowing.

void WritePackedCellVec(BinaryWriter* out, const std::vector<CellRef>& cells) {
  std::vector<uint64_t> tids(cells.size());
  std::vector<uint64_t> attrs(cells.size());
  for (size_t i = 0; i < cells.size(); ++i) {
    tids[i] = static_cast<uint64_t>(cells[i].tid);
    attrs[i] = static_cast<uint64_t>(cells[i].attr);
  }
  WriteU64Stream(out, tids);
  WriteU64Stream(out, attrs);
}

Status ReadPackedCellVec(BinaryReader* in, std::vector<CellRef>* cells) {
  std::vector<uint64_t> tids;
  std::vector<uint64_t> attrs;
  HOLO_RETURN_NOT_OK(ReadU64Stream(in, &tids));
  HOLO_RETURN_NOT_OK(ReadU64Stream(in, &attrs));
  if (tids.size() != attrs.size()) {
    return Status::ParseError("snapshot cell streams disagree");
  }
  cells->resize(tids.size());
  for (size_t i = 0; i < tids.size(); ++i) {
    if (!CastI32(tids[i], &(*cells)[i].tid) ||
        !CastI32(attrs[i], &(*cells)[i].attr)) {
      return Status::ParseError("snapshot cell out of range");
    }
  }
  return Status::OK();
}

}  // namespace

uint64_t ConfigFingerprint(const HoloCleanConfig& c) {
  // Every result-affecting knob must be mixed in below — a knob the
  // fingerprint misses would let a snapshot restore under a config that
  // produces different results, breaking the bit-identical guarantee.
  // This assert trips when HoloCleanConfig gains (or loses) a field, as a
  // reminder to update the fingerprint and bump kSnapshotFormatVersion if
  // the default changed behavior. (x86-64/AArch64 SysV layout.)
  //
  // dc_table_cap is deliberately NOT mixed in: factors above the cap fall
  // back to evaluator scoring with bit-identical results (enforced by the
  // differential tests), so snapshots interchange freely across caps.
  static_assert(sizeof(HoloCleanConfig) == 168,
                "HoloCleanConfig changed: update ConfigFingerprint");
  uint64_t h = HashBytes("holoclean-config-v1");
  auto mix_u = [&h](uint64_t v) { h = HashCombine(h, v); };
  auto mix_d = [&](double v) { mix_u(DoubleBits(v)); };
  mix_d(c.tau);
  mix_u(c.max_candidates);
  mix_u(static_cast<uint64_t>(c.dc_mode));
  mix_u(c.partitioning ? 1 : 0);
  mix_d(c.dc_factor_weight);
  mix_d(c.minimality_weight);
  mix_d(c.sim_threshold);
  mix_d(c.source_trust_scale);
  mix_d(c.stats_prior_weight);
  mix_d(c.freq_prior_weight);
  mix_d(c.dc_violation_init);
  mix_d(c.ext_dict_init);
  mix_d(c.support_prior);
  mix_u(static_cast<uint64_t>(c.epochs));
  mix_d(c.learning_rate);
  mix_d(c.lr_decay);
  mix_d(c.l2);
  mix_u(c.max_training_cells);
  mix_u(static_cast<uint64_t>(c.gibbs_burn_in));
  mix_u(static_cast<uint64_t>(c.gibbs_samples));
  mix_u(c.seed);
  return h;
}

uint64_t DcsFingerprint(const std::vector<DenialConstraint>& dcs,
                        const Schema& schema) {
  uint64_t h = HashBytes("holoclean-dcs-v1");
  for (const DenialConstraint& dc : dcs) {
    h = HashCombine(h, HashBytes(dc.ToString(schema)));
  }
  return h;
}

namespace {

uint64_t TableContentFingerprint(const Table& table) {
  uint64_t h = HashBytes("holoclean-table-v1");
  for (const std::string& name : table.schema().names()) {
    h = HashCombine(h, HashBytes(name));
  }
  h = HashCombine(h, table.num_rows());
  for (size_t t = 0; t < table.num_rows(); ++t) {
    for (size_t a = 0; a < table.schema().num_attrs(); ++a) {
      h = HashCombine(h, HashBytes(table.GetString(static_cast<TupleId>(t),
                                                   static_cast<AttrId>(a))));
    }
  }
  return h;
}

}  // namespace

uint64_t ExternalDataFingerprint(const ExtDictCollection* dicts,
                                 const std::vector<MatchingDependency>* mds,
                                 const DetectorSuite* extra_detectors) {
  uint64_t h = HashBytes("holoclean-extdata-v1");
  h = HashCombine(h, dicts == nullptr ? 0 : dicts->size());
  if (dicts != nullptr) {
    for (size_t k = 0; k < dicts->size(); ++k) {
      const ExtDict& dict = dicts->Get(static_cast<int>(k));
      h = HashCombine(h, HashBytes(dict.name()));
      h = HashCombine(h, TableContentFingerprint(dict.records()));
    }
  }
  h = HashCombine(h, mds == nullptr ? 0 : mds->size());
  if (mds != nullptr) {
    for (const MatchingDependency& md : *mds) {
      h = HashCombine(h, HashBytes(md.name));
      h = HashCombine(h, static_cast<uint64_t>(md.dict_id));
      h = HashCombine(h, md.conditions.size());
      for (const MatchClause& c : md.conditions) {
        h = HashCombine(h, HashBytes(c.data_attr));
        h = HashCombine(h, HashBytes(c.ext_attr));
        h = HashCombine(h, c.approximate ? 1 : 0);
        h = HashCombine(h, DoubleBits(c.sim_threshold));
      }
      h = HashCombine(h, HashBytes(md.target_data_attr));
      h = HashCombine(h, HashBytes(md.target_ext_attr));
    }
  }
  h = HashCombine(h, extra_detectors == nullptr ? 0 : extra_detectors->size());
  if (extra_detectors != nullptr) {
    for (const std::string& name : extra_detectors->names()) {
      h = HashCombine(h, HashBytes(name));
    }
  }
  return h;
}

// --- FactorGraph -----------------------------------------------------------

namespace {

void SerializeFactorGraphRaw(const FactorGraph& graph, BinaryWriter* out) {
  out->WriteU64(graph.num_variables());
  for (const Variable& var : graph.variables()) {
    WriteCellRef(out, var.cell);
    WriteI32Vec(out, var.domain);
    out->WriteI32(var.init_index);
    out->WriteU8(var.is_evidence ? 1 : 0);
    WriteF64Vec(out, var.prior_bias);
    WriteI32Vec(out, var.feat_begin);
    out->WriteU64(var.features.size());
    for (const FeatureInstance& f : var.features) {
      out->WriteU64(f.weight_key);
      out->WriteF32(f.activation);
    }
  }
  out->WriteU64(graph.dc_factors().size());
  for (const DcFactor& f : graph.dc_factors()) {
    out->WriteI32(f.dc_index);
    out->WriteI32(f.t1);
    out->WriteI32(f.t2);
    out->WriteF64(f.weight);
    WriteI32Vec(out, f.var_ids);
  }
}

/// The structural invariants AddVariable asserts (and UnaryScore indexes
/// by), validated so a corrupt payload reports a Status instead of
/// aborting. Shared by the raw and packed decoders.
Status ValidateVariable(const Variable& var) {
  if (var.domain.empty() || var.prior_bias.size() != var.domain.size() ||
      var.feat_begin.size() != var.domain.size() + 1 ||
      var.init_index < -1 ||
      var.init_index >= static_cast<int>(var.domain.size())) {
    return Status::ParseError("snapshot variable is malformed");
  }
  for (int32_t b : var.feat_begin) {
    if (b < 0 || static_cast<size_t>(b) > var.features.size()) {
      return Status::ParseError("snapshot variable is malformed");
    }
  }
  return Status::OK();
}

Status DeserializeFactorGraphRaw(BinaryReader* in, FactorGraph* graph,
                                 const FactorGraphBounds& bounds) {
  size_t num_vars = 0;
  HOLO_RETURN_NOT_OK(in->ReadCount(1, &num_vars));
  for (size_t i = 0; i < num_vars; ++i) {
    Variable var;
    HOLO_RETURN_NOT_OK(ReadCellRef(in, &var.cell));
    HOLO_RETURN_NOT_OK(ReadValueIdVec(in, bounds.dict_size, &var.domain));
    HOLO_RETURN_NOT_OK(in->ReadI32(&var.init_index));
    uint8_t is_evidence = 0;
    HOLO_RETURN_NOT_OK(in->ReadU8(&is_evidence));
    var.is_evidence = is_evidence != 0;
    HOLO_RETURN_NOT_OK(ReadF64Vec(in, &var.prior_bias));
    HOLO_RETURN_NOT_OK(ReadI32Vec(in, &var.feat_begin));
    size_t num_features = 0;
    HOLO_RETURN_NOT_OK(in->ReadCount(12, &num_features));
    var.features.resize(num_features);
    for (FeatureInstance& f : var.features) {
      HOLO_RETURN_NOT_OK(in->ReadU64(&f.weight_key));
      HOLO_RETURN_NOT_OK(in->ReadF32(&f.activation));
    }
    HOLO_RETURN_NOT_OK(ValidateVariable(var));
    graph->AddVariable(std::move(var));
  }
  size_t num_factors = 0;
  HOLO_RETURN_NOT_OK(in->ReadCount(1, &num_factors));
  for (size_t i = 0; i < num_factors; ++i) {
    DcFactor factor;
    HOLO_RETURN_NOT_OK(in->ReadI32(&factor.dc_index));
    if (factor.dc_index < 0 ||
        static_cast<size_t>(factor.dc_index) >= bounds.num_dcs) {
      return Status::ParseError(
          "snapshot factor references unknown constraint");
    }
    HOLO_RETURN_NOT_OK(in->ReadI32(&factor.t1));
    HOLO_RETURN_NOT_OK(in->ReadI32(&factor.t2));
    HOLO_RETURN_NOT_OK(in->ReadF64(&factor.weight));
    HOLO_RETURN_NOT_OK(ReadI32Vec(in, &factor.var_ids));
    for (int32_t v : factor.var_ids) {
      if (v < 0 || static_cast<size_t>(v) >= num_vars) {
        return Status::ParseError(
            "snapshot factor references unknown variable");
      }
    }
    graph->AddDcFactor(std::move(factor));
  }
  return Status::OK();
}

/// Packed graph layout: every per-variable and per-feature field becomes
/// its own adaptive stream (column transposition), because each column is
/// individually low-entropy where the interleaved rows are not. Feature
/// weight keys are decomposed into their WeightKeyCodec bit fields —
/// kind/p1/p2/ctx/value — which turns 8 high-entropy bytes per feature
/// into five streams of near-constant or small integers. The field split
/// covers all 64 bits (4+8+8+22+22), so repacking is lossless for any
/// key; decode validates each field fits its width so the repack cannot
/// silently mask corrupt values.
void SerializeFactorGraphPacked(const FactorGraph& graph, BinaryWriter* out) {
  const size_t n_vars = graph.num_variables();
  WriteVarint(out, n_vars);
  std::vector<uint64_t> tids(n_vars);
  std::vector<uint64_t> attrs(n_vars);
  std::vector<uint64_t> domain_counts(n_vars);
  std::vector<uint64_t> init_plus1(n_vars);
  std::vector<uint64_t> is_evidence(n_vars);
  std::vector<uint64_t> feat_counts(n_vars);
  std::vector<uint64_t> domain_flat;
  std::vector<double> bias_flat;
  std::vector<uint64_t> feat_begin_flat;
  size_t total_features = 0;
  for (size_t i = 0; i < n_vars; ++i) {
    const Variable& var = graph.variable(static_cast<int>(i));
    tids[i] = static_cast<uint64_t>(var.cell.tid);
    attrs[i] = static_cast<uint64_t>(var.cell.attr);
    domain_counts[i] = var.domain.size();
    init_plus1[i] = static_cast<uint64_t>(var.init_index + 1);
    is_evidence[i] = var.is_evidence ? 1 : 0;
    feat_counts[i] = var.features.size();
    total_features += var.features.size();
    for (ValueId v : var.domain) domain_flat.push_back(v);
    for (double b : var.prior_bias) bias_flat.push_back(b);
    for (int32_t b : var.feat_begin) feat_begin_flat.push_back(b);
  }
  WriteU64Stream(out, tids);
  WriteU64Stream(out, attrs);
  WriteU64Stream(out, domain_counts);
  WriteU64Stream(out, domain_flat);
  WriteU64Stream(out, init_plus1);
  WriteU64Stream(out, is_evidence);
  WriteF64Stream(out, bias_flat);
  WriteU64Stream(out, feat_begin_flat);
  WriteU64Stream(out, feat_counts);

  // The key's three small fields (kind, p1, p2) are fused into one 20-bit
  // "meta" value: they change together (e.g. the per-candidate alternation
  // of co-occurrence and cond-prob features over context attributes), and
  // the fused stream draws from a small set the dictionary encoding
  // collapses to mostly one-byte indexes.
  std::vector<uint64_t> metas(total_features);
  std::vector<uint64_t> ctxs(total_features);
  std::vector<uint64_t> vals(total_features);
  std::vector<float> acts(total_features);
  size_t k = 0;
  for (size_t i = 0; i < n_vars; ++i) {
    for (const FeatureInstance& f :
         graph.variable(static_cast<int>(i)).features) {
      metas[k] = ((f.weight_key >> 60) << 16) |
                 (((f.weight_key >> 52) & 0xFF) << 8) |
                 ((f.weight_key >> 44) & 0xFF);
      ctxs[k] = (f.weight_key >> WeightKeyCodec::kValueBits) &
                WeightKeyCodec::kValueMask;
      vals[k] = f.weight_key & WeightKeyCodec::kValueMask;
      acts[k] = f.activation;
      ++k;
    }
  }
  WriteU64Stream(out, metas);
  WriteU64Stream(out, ctxs);
  WriteU64Stream(out, vals);
  WriteF32Stream(out, acts);

  const auto& factors = graph.dc_factors();
  WriteVarint(out, factors.size());
  std::vector<uint64_t> f_dc(factors.size());
  std::vector<uint64_t> f_t1(factors.size());
  std::vector<uint64_t> f_t2(factors.size());
  std::vector<double> f_weights(factors.size());
  std::vector<uint64_t> f_var_counts(factors.size());
  std::vector<uint64_t> f_var_flat;
  // Var ids are stored as a zigzag delta chain: each factor's first id is
  // relative to the previous factor's first id and later ids to their
  // in-factor predecessor. Factors arrive roughly sorted by tuple, so the
  // deltas are small where the raw ids are not; the per-factor counts make
  // the transform reversible.
  int32_t prev_first = 0;
  for (size_t i = 0; i < factors.size(); ++i) {
    f_dc[i] = static_cast<uint64_t>(factors[i].dc_index);
    f_t1[i] = static_cast<uint64_t>(factors[i].t1);
    f_t2[i] = static_cast<uint64_t>(factors[i].t2);
    f_weights[i] = factors[i].weight;
    f_var_counts[i] = factors[i].var_ids.size();
    int32_t prev = prev_first;
    for (size_t j = 0; j < factors[i].var_ids.size(); ++j) {
      int32_t v = factors[i].var_ids[j];
      f_var_flat.push_back(ZigzagEncode(v - prev));
      prev = v;
      if (j == 0) prev_first = v;
    }
  }
  WriteU64Stream(out, f_dc);
  WriteU64Stream(out, f_t1);
  WriteU64Stream(out, f_t2);
  WriteF64Stream(out, f_weights);
  WriteU64Stream(out, f_var_counts);
  WriteU64Stream(out, f_var_flat);
}

Status DeserializeFactorGraphPacked(BinaryReader* in, FactorGraph* graph,
                                    const FactorGraphBounds& bounds) {
  Status malformed = Status::ParseError("snapshot variable is malformed");
  uint64_t n_vars = 0;
  HOLO_RETURN_NOT_OK(ReadVarint(in, &n_vars));
  std::vector<uint64_t> tids;
  std::vector<uint64_t> attrs;
  std::vector<uint64_t> domain_counts;
  std::vector<uint64_t> domain_flat;
  std::vector<uint64_t> init_plus1;
  std::vector<uint64_t> is_evidence;
  std::vector<double> bias_flat;
  std::vector<uint64_t> feat_begin_flat;
  std::vector<uint64_t> feat_counts;
  HOLO_RETURN_NOT_OK(ReadU64Stream(in, &tids));
  HOLO_RETURN_NOT_OK(ReadU64Stream(in, &attrs));
  HOLO_RETURN_NOT_OK(ReadU64Stream(in, &domain_counts));
  HOLO_RETURN_NOT_OK(ReadU64Stream(in, &domain_flat));
  HOLO_RETURN_NOT_OK(ReadU64Stream(in, &init_plus1));
  HOLO_RETURN_NOT_OK(ReadU64Stream(in, &is_evidence));
  HOLO_RETURN_NOT_OK(ReadF64Stream(in, &bias_flat));
  HOLO_RETURN_NOT_OK(ReadU64Stream(in, &feat_begin_flat));
  HOLO_RETURN_NOT_OK(ReadU64Stream(in, &feat_counts));
  if (tids.size() != n_vars || attrs.size() != n_vars ||
      domain_counts.size() != n_vars || init_plus1.size() != n_vars ||
      is_evidence.size() != n_vars || feat_counts.size() != n_vars) {
    return malformed;
  }
  size_t total_domain = 0;
  size_t total_features = 0;
  for (size_t i = 0; i < n_vars; ++i) {
    if (domain_counts[i] > domain_flat.size() ||
        feat_counts[i] > (uint64_t{1} << 32)) {
      return malformed;
    }
    total_domain += domain_counts[i];
    total_features += feat_counts[i];
  }
  if (domain_flat.size() != total_domain ||
      bias_flat.size() != total_domain ||
      feat_begin_flat.size() != total_domain + n_vars) {
    return malformed;
  }

  std::vector<uint64_t> metas;
  std::vector<uint64_t> ctxs;
  std::vector<uint64_t> vals;
  std::vector<float> acts;
  HOLO_RETURN_NOT_OK(ReadU64Stream(in, &metas));
  HOLO_RETURN_NOT_OK(ReadU64Stream(in, &ctxs));
  HOLO_RETURN_NOT_OK(ReadU64Stream(in, &vals));
  HOLO_RETURN_NOT_OK(ReadF32Stream(in, &acts));
  if (metas.size() != total_features || ctxs.size() != total_features ||
      vals.size() != total_features || acts.size() != total_features) {
    return malformed;
  }

  size_t d = 0;  // Cursor into the flattened domain/bias/feat_begin data.
  size_t fb = 0;
  size_t f = 0;  // Cursor into the feature streams.
  for (size_t i = 0; i < n_vars; ++i) {
    Variable var;
    if (!CastI32(tids[i], &var.cell.tid) ||
        !CastI32(attrs[i], &var.cell.attr)) {
      return malformed;
    }
    size_t dom = domain_counts[i];
    var.domain.resize(dom);
    var.prior_bias.resize(dom);
    for (size_t j = 0; j < dom; ++j) {
      if (!CastI32(domain_flat[d + j], &var.domain[j]) ||
          static_cast<size_t>(var.domain[j]) >= bounds.dict_size) {
        return Status::ParseError("snapshot value id out of range");
      }
      var.prior_bias[j] = bias_flat[d + j];
    }
    d += dom;
    if (init_plus1[i] > dom) return malformed;
    var.init_index = static_cast<int>(init_plus1[i]) - 1;
    var.is_evidence = is_evidence[i] != 0;
    var.feat_begin.resize(dom + 1);
    for (size_t j = 0; j <= dom; ++j) {
      if (!CastI32(feat_begin_flat[fb + j], &var.feat_begin[j])) {
        return malformed;
      }
    }
    fb += dom + 1;
    size_t nf = feat_counts[i];
    var.features.resize(nf);
    for (size_t j = 0; j < nf; ++j, ++f) {
      // Each field must fit its bit width: the repack below would silently
      // mask an out-of-range value and break the round trip.
      if (metas[f] > 0xFFFFF || ctxs[f] > WeightKeyCodec::kValueMask ||
          vals[f] > WeightKeyCodec::kValueMask) {
        return malformed;
      }
      var.features[j].weight_key =
          ((metas[f] >> 16) << 60) | (((metas[f] >> 8) & 0xFF) << 52) |
          ((metas[f] & 0xFF) << 44) |
          (ctxs[f] << WeightKeyCodec::kValueBits) | vals[f];
      var.features[j].activation = acts[f];
    }
    HOLO_RETURN_NOT_OK(ValidateVariable(var));
    graph->AddVariable(std::move(var));
  }

  uint64_t n_factors = 0;
  HOLO_RETURN_NOT_OK(ReadVarint(in, &n_factors));
  std::vector<uint64_t> f_dc;
  std::vector<uint64_t> f_t1;
  std::vector<uint64_t> f_t2;
  std::vector<double> f_weights;
  std::vector<uint64_t> f_var_counts;
  std::vector<uint64_t> f_var_flat;
  HOLO_RETURN_NOT_OK(ReadU64Stream(in, &f_dc));
  HOLO_RETURN_NOT_OK(ReadU64Stream(in, &f_t1));
  HOLO_RETURN_NOT_OK(ReadU64Stream(in, &f_t2));
  HOLO_RETURN_NOT_OK(ReadF64Stream(in, &f_weights));
  HOLO_RETURN_NOT_OK(ReadU64Stream(in, &f_var_counts));
  HOLO_RETURN_NOT_OK(ReadU64Stream(in, &f_var_flat));
  if (f_dc.size() != n_factors || f_t1.size() != n_factors ||
      f_t2.size() != n_factors || f_weights.size() != n_factors ||
      f_var_counts.size() != n_factors) {
    return Status::ParseError("snapshot factor streams disagree");
  }
  size_t v = 0;
  int64_t prev_first = 0;  // Reverses the writer's zigzag delta chain.
  for (size_t i = 0; i < n_factors; ++i) {
    DcFactor factor;
    if (!CastI32(f_dc[i], &factor.dc_index) ||
        static_cast<size_t>(factor.dc_index) >= bounds.num_dcs) {
      return Status::ParseError(
          "snapshot factor references unknown constraint");
    }
    if (!CastI32(f_t1[i], &factor.t1) || !CastI32(f_t2[i], &factor.t2)) {
      return Status::ParseError("snapshot factor streams disagree");
    }
    factor.weight = f_weights[i];
    uint64_t nv = f_var_counts[i];
    if (nv > f_var_flat.size() - v) {
      return Status::ParseError("snapshot factor streams disagree");
    }
    factor.var_ids.resize(nv);
    int64_t prev = prev_first;
    for (size_t j = 0; j < nv; ++j, ++v) {
      // Unsigned arithmetic: a corrupt delta must wrap deterministically
      // into the range check, not overflow into UB.
      int64_t id = static_cast<int64_t>(
          static_cast<uint64_t>(prev) +
          static_cast<uint64_t>(ZigzagDecode(f_var_flat[v])));
      if (id < 0 || static_cast<uint64_t>(id) >= n_vars) {
        return Status::ParseError(
            "snapshot factor references unknown variable");
      }
      factor.var_ids[j] = static_cast<int32_t>(id);
      prev = id;
      if (j == 0) prev_first = id;
    }
    graph->AddDcFactor(std::move(factor));
  }
  if (v != f_var_flat.size()) {
    return Status::ParseError("snapshot factor streams disagree");
  }
  return Status::OK();
}

}  // namespace

void SerializeFactorGraph(const FactorGraph& graph, SectionCodec codec,
                          BinaryWriter* out) {
  if (codec == SectionCodec::kPacked) {
    SerializeFactorGraphPacked(graph, out);
  } else {
    SerializeFactorGraphRaw(graph, out);
  }
}

Status DeserializeFactorGraph(BinaryReader* in, SectionCodec codec,
                              FactorGraph* graph,
                              const FactorGraphBounds& bounds) {
  *graph = FactorGraph();
  if (codec == SectionCodec::kPacked) {
    return DeserializeFactorGraphPacked(in, graph, bounds);
  }
  return DeserializeFactorGraphRaw(in, graph, bounds);
}

// --- WeightStore -----------------------------------------------------------

void SerializeWeightStore(const WeightStore& weights, SectionCodec codec,
                          BinaryWriter* out) {
  // Sorted by key: the snapshot bytes are deterministic even though the
  // store iterates in hash order. (Sorted keys are also what makes the
  // packed key stream delta-friendly.)
  std::vector<std::pair<uint64_t, double>> sorted(weights.raw().begin(),
                                                  weights.raw().end());
  std::sort(sorted.begin(), sorted.end());
  if (codec == SectionCodec::kPacked) {
    std::vector<uint64_t> keys(sorted.size());
    std::vector<double> values(sorted.size());
    for (size_t i = 0; i < sorted.size(); ++i) {
      keys[i] = sorted[i].first;
      values[i] = sorted[i].second;
    }
    WriteU64Stream(out, keys);
    WriteF64Stream(out, values);
    return;
  }
  out->WriteU64(sorted.size());
  for (const auto& [key, value] : sorted) {
    out->WriteU64(key);
    out->WriteF64(value);
  }
}

Status DeserializeWeightStore(BinaryReader* in, SectionCodec codec,
                              WeightStore* weights) {
  *weights = WeightStore();
  if (codec == SectionCodec::kPacked) {
    std::vector<uint64_t> keys;
    std::vector<double> values;
    HOLO_RETURN_NOT_OK(ReadU64Stream(in, &keys));
    HOLO_RETURN_NOT_OK(ReadF64Stream(in, &values));
    if (keys.size() != values.size()) {
      return Status::ParseError("snapshot weight streams disagree");
    }
    for (size_t i = 0; i < keys.size(); ++i) {
      weights->Set(keys[i], values[i]);
    }
    return Status::OK();
  }
  size_t n = 0;
  HOLO_RETURN_NOT_OK(in->ReadCount(16, &n));
  for (size_t i = 0; i < n; ++i) {
    uint64_t key = 0;
    double value = 0.0;
    HOLO_RETURN_NOT_OK(in->ReadU64(&key));
    HOLO_RETURN_NOT_OK(in->ReadF64(&value));
    weights->Set(key, value);
  }
  return Status::OK();
}

// --- Marginals -------------------------------------------------------------

void SerializeMarginals(const Marginals& marginals, SectionCodec codec,
                        BinaryWriter* out) {
  const auto& probs = marginals.probs();
  if (codec == SectionCodec::kPacked) {
    // Gibbs marginals are ratios of small sample counts (a few dozen
    // distinct doubles across tens of thousands of entries), so the
    // flattened stream's dictionary encoding collapses them.
    WriteVarint(out, probs.size());
    std::vector<uint64_t> counts(probs.size());
    std::vector<double> flat;
    for (size_t i = 0; i < probs.size(); ++i) {
      counts[i] = probs[i].size();
      flat.insert(flat.end(), probs[i].begin(), probs[i].end());
    }
    WriteU64Stream(out, counts);
    WriteF64Stream(out, flat);
    return;
  }
  out->WriteU64(probs.size());
  for (const std::vector<double>& p : probs) WriteF64Vec(out, p);
}

Status DeserializeMarginals(BinaryReader* in, SectionCodec codec,
                            Marginals* marginals) {
  if (codec == SectionCodec::kPacked) {
    uint64_t num_vars = 0;
    HOLO_RETURN_NOT_OK(ReadVarint(in, &num_vars));
    std::vector<uint64_t> counts;
    std::vector<double> flat;
    HOLO_RETURN_NOT_OK(ReadU64Stream(in, &counts));
    HOLO_RETURN_NOT_OK(ReadF64Stream(in, &flat));
    if (counts.size() != num_vars) {
      return Status::ParseError("snapshot marginal streams disagree");
    }
    Marginals loaded(num_vars);
    size_t k = 0;
    for (size_t i = 0; i < num_vars; ++i) {
      if (counts[i] > flat.size() - k) {
        return Status::ParseError("snapshot marginal streams disagree");
      }
      loaded.probs()[i].assign(flat.begin() + k, flat.begin() + k + counts[i]);
      k += counts[i];
    }
    if (k != flat.size()) {
      return Status::ParseError("snapshot marginal streams disagree");
    }
    *marginals = std::move(loaded);
    return Status::OK();
  }
  size_t num_vars = 0;
  HOLO_RETURN_NOT_OK(in->ReadCount(8, &num_vars));
  Marginals loaded(num_vars);
  for (size_t i = 0; i < num_vars; ++i) {
    HOLO_RETURN_NOT_OK(ReadF64Vec(in, &loaded.probs()[i]));
  }
  *marginals = std::move(loaded);
  return Status::OK();
}

// --- Remaining artifact codecs ---------------------------------------------

namespace {

/// Parses the violation pair list v1 and v2 snapshots carry in their
/// detect section. Current snapshots do not store it (restores re-detect),
/// so the list is only validated structurally and then dropped.
Status SkipViolations(BinaryReader* in, SectionCodec codec) {
  if (codec == SectionCodec::kPacked) {
    uint64_t n = 0;
    HOLO_RETURN_NOT_OK(ReadVarint(in, &n));
    std::vector<uint64_t> dcs;
    std::vector<uint64_t> t1s;
    std::vector<uint64_t> t2s;
    std::vector<uint64_t> cell_counts;
    std::vector<CellRef> cells_flat;
    HOLO_RETURN_NOT_OK(ReadU64Stream(in, &dcs));
    HOLO_RETURN_NOT_OK(ReadU64Stream(in, &t1s));
    HOLO_RETURN_NOT_OK(ReadU64Stream(in, &t2s));
    HOLO_RETURN_NOT_OK(ReadU64Stream(in, &cell_counts));
    HOLO_RETURN_NOT_OK(ReadPackedCellVec(in, &cells_flat));
    uint64_t cells = 0;
    for (uint64_t c : cell_counts) cells += c;
    if (dcs.size() != n || t1s.size() != n || t2s.size() != n ||
        cell_counts.size() != n || cells != cells_flat.size()) {
      return Status::ParseError("snapshot violation streams disagree");
    }
    return Status::OK();
  }
  size_t n = 0;
  HOLO_RETURN_NOT_OK(in->ReadCount(20, &n));
  for (size_t i = 0; i < n; ++i) {
    int32_t field = 0;
    for (int k = 0; k < 3; ++k) HOLO_RETURN_NOT_OK(in->ReadI32(&field));
    std::vector<CellRef> cells;
    HOLO_RETURN_NOT_OK(ReadCellVec(in, &cells));
  }
  return Status::OK();
}

void SerializeDomains(const PrunedDomains& domains, SectionCodec codec,
                      BinaryWriter* out) {
  // Sorted by cell for deterministic snapshot bytes (and delta-friendly
  // packed streams).
  std::vector<const std::pair<const CellRef, std::vector<ValueId>>*> entries;
  entries.reserve(domains.candidates.size());
  for (const auto& entry : domains.candidates) entries.push_back(&entry);
  std::sort(entries.begin(), entries.end(),
            [](const auto* a, const auto* b) { return a->first < b->first; });
  if (codec == SectionCodec::kPacked) {
    WriteVarint(out, entries.size());
    std::vector<CellRef> cells(entries.size());
    std::vector<uint64_t> counts(entries.size());
    std::vector<uint64_t> flat;
    for (size_t i = 0; i < entries.size(); ++i) {
      cells[i] = entries[i]->first;
      counts[i] = entries[i]->second.size();
      for (ValueId v : entries[i]->second) {
        flat.push_back(static_cast<uint64_t>(v));
      }
    }
    WritePackedCellVec(out, cells);
    WriteU64Stream(out, counts);
    WriteU64Stream(out, flat);
    return;
  }
  out->WriteU64(entries.size());
  for (const auto* entry : entries) {
    WriteCellRef(out, entry->first);
    WriteI32Vec(out, entry->second);
  }
}

Status DeserializeDomains(BinaryReader* in, SectionCodec codec,
                          size_t dict_size, PrunedDomains* domains) {
  domains->candidates.clear();
  if (codec == SectionCodec::kPacked) {
    uint64_t n = 0;
    HOLO_RETURN_NOT_OK(ReadVarint(in, &n));
    std::vector<CellRef> cells;
    std::vector<uint64_t> counts;
    std::vector<uint64_t> flat;
    HOLO_RETURN_NOT_OK(ReadPackedCellVec(in, &cells));
    HOLO_RETURN_NOT_OK(ReadU64Stream(in, &counts));
    HOLO_RETURN_NOT_OK(ReadU64Stream(in, &flat));
    if (cells.size() != n || counts.size() != n) {
      return Status::ParseError("snapshot domain streams disagree");
    }
    size_t k = 0;
    for (size_t i = 0; i < n; ++i) {
      if (counts[i] > flat.size() - k) {
        return Status::ParseError("snapshot domain streams disagree");
      }
      std::vector<ValueId> candidates(counts[i]);
      for (size_t j = 0; j < counts[i]; ++j, ++k) {
        if (!CastI32(flat[k], &candidates[j]) ||
            static_cast<size_t>(candidates[j]) >= dict_size) {
          return Status::ParseError("snapshot value id out of range");
        }
      }
      domains->candidates.emplace(cells[i], std::move(candidates));
    }
    if (k != flat.size()) {
      return Status::ParseError("snapshot domain streams disagree");
    }
    return Status::OK();
  }
  size_t n = 0;
  HOLO_RETURN_NOT_OK(in->ReadCount(16, &n));
  for (size_t i = 0; i < n; ++i) {
    CellRef cell;
    HOLO_RETURN_NOT_OK(ReadCellRef(in, &cell));
    std::vector<ValueId> candidates;
    HOLO_RETURN_NOT_OK(ReadValueIdVec(in, dict_size, &candidates));
    domains->candidates.emplace(cell, std::move(candidates));
  }
  return Status::OK();
}

// The program is a handful of rules; the raw form is used by both codecs.

void SerializeProgram(const Program& program, BinaryWriter* out) {
  out->WriteU64(program.rules.size());
  for (const InferenceRule& rule : program.rules) {
    out->WriteI32(static_cast<int32_t>(rule.kind));
    out->WriteI32(rule.dc_index);
    out->WriteI32(rule.head.role);
    out->WriteI32(rule.head.attr);
    out->WriteI32(rule.dict_id);
    out->WriteF64(rule.fixed_weight);
    out->WriteU8(rule.weight_is_learned ? 1 : 0);
  }
}

Status DeserializeProgram(BinaryReader* in, Program* program) {
  program->rules.clear();
  size_t n = 0;
  HOLO_RETURN_NOT_OK(in->ReadCount(29, &n));
  program->rules.resize(n);
  for (InferenceRule& rule : program->rules) {
    int32_t kind = 0;
    HOLO_RETURN_NOT_OK(in->ReadI32(&kind));
    if (kind < static_cast<int32_t>(RuleKind::kRandomVariable) ||
        kind > static_cast<int32_t>(RuleKind::kDcRelaxedFeature)) {
      return Status::ParseError("snapshot rule kind out of range");
    }
    rule.kind = static_cast<RuleKind>(kind);
    HOLO_RETURN_NOT_OK(in->ReadI32(&rule.dc_index));
    HOLO_RETURN_NOT_OK(in->ReadI32(&rule.head.role));
    HOLO_RETURN_NOT_OK(in->ReadI32(&rule.head.attr));
    HOLO_RETURN_NOT_OK(in->ReadI32(&rule.dict_id));
    HOLO_RETURN_NOT_OK(in->ReadF64(&rule.fixed_weight));
    uint8_t learned = 0;
    HOLO_RETURN_NOT_OK(in->ReadU8(&learned));
    rule.weight_is_learned = learned != 0;
  }
  return Status::OK();
}

void SerializeRepairs(const std::vector<Repair>& repairs, SectionCodec codec,
                      BinaryWriter* out) {
  if (codec == SectionCodec::kPacked) {
    std::vector<CellRef> cells(repairs.size());
    std::vector<uint64_t> old_vals(repairs.size());
    std::vector<uint64_t> new_vals(repairs.size());
    std::vector<double> probs(repairs.size());
    for (size_t i = 0; i < repairs.size(); ++i) {
      cells[i] = repairs[i].cell;
      old_vals[i] = static_cast<uint64_t>(repairs[i].old_value);
      new_vals[i] = static_cast<uint64_t>(repairs[i].new_value);
      probs[i] = repairs[i].probability;
    }
    WritePackedCellVec(out, cells);
    WriteU64Stream(out, old_vals);
    WriteU64Stream(out, new_vals);
    WriteF64Stream(out, probs);
    return;
  }
  out->WriteU64(repairs.size());
  for (const Repair& r : repairs) {
    WriteCellRef(out, r.cell);
    out->WriteI32(r.old_value);
    out->WriteI32(r.new_value);
    out->WriteF64(r.probability);
  }
}

Status DeserializeRepairs(BinaryReader* in, SectionCodec codec,
                          std::vector<Repair>* repairs) {
  if (codec == SectionCodec::kPacked) {
    std::vector<CellRef> cells;
    std::vector<uint64_t> old_vals;
    std::vector<uint64_t> new_vals;
    std::vector<double> probs;
    HOLO_RETURN_NOT_OK(ReadPackedCellVec(in, &cells));
    HOLO_RETURN_NOT_OK(ReadU64Stream(in, &old_vals));
    HOLO_RETURN_NOT_OK(ReadU64Stream(in, &new_vals));
    HOLO_RETURN_NOT_OK(ReadF64Stream(in, &probs));
    if (old_vals.size() != cells.size() || new_vals.size() != cells.size() ||
        probs.size() != cells.size()) {
      return Status::ParseError("snapshot repair streams disagree");
    }
    repairs->resize(cells.size());
    for (size_t i = 0; i < cells.size(); ++i) {
      Repair& r = (*repairs)[i];
      r.cell = cells[i];
      if (!CastI32(old_vals[i], &r.old_value) ||
          !CastI32(new_vals[i], &r.new_value)) {
        return Status::ParseError("snapshot repair streams disagree");
      }
      r.probability = probs[i];
    }
    return Status::OK();
  }
  size_t n = 0;
  HOLO_RETURN_NOT_OK(in->ReadCount(24, &n));
  repairs->resize(n);
  for (Repair& r : *repairs) {
    HOLO_RETURN_NOT_OK(ReadCellRef(in, &r.cell));
    HOLO_RETURN_NOT_OK(in->ReadI32(&r.old_value));
    HOLO_RETURN_NOT_OK(in->ReadI32(&r.new_value));
    HOLO_RETURN_NOT_OK(in->ReadF64(&r.probability));
  }
  return Status::OK();
}

void SerializePosteriors(const std::vector<CellPosterior>& posteriors,
                         SectionCodec codec, BinaryWriter* out) {
  if (codec == SectionCodec::kPacked) {
    std::vector<CellRef> cells(posteriors.size());
    std::vector<uint64_t> old_vals(posteriors.size());
    std::vector<uint64_t> map_vals(posteriors.size());
    std::vector<double> probs(posteriors.size());
    for (size_t i = 0; i < posteriors.size(); ++i) {
      cells[i] = posteriors[i].cell;
      old_vals[i] = static_cast<uint64_t>(posteriors[i].old_value);
      map_vals[i] = static_cast<uint64_t>(posteriors[i].map_value);
      probs[i] = posteriors[i].map_prob;
    }
    WritePackedCellVec(out, cells);
    WriteU64Stream(out, old_vals);
    WriteU64Stream(out, map_vals);
    WriteF64Stream(out, probs);
    return;
  }
  out->WriteU64(posteriors.size());
  for (const CellPosterior& p : posteriors) {
    WriteCellRef(out, p.cell);
    out->WriteI32(p.old_value);
    out->WriteI32(p.map_value);
    out->WriteF64(p.map_prob);
  }
}

Status DeserializePosteriors(BinaryReader* in, SectionCodec codec,
                             std::vector<CellPosterior>* posteriors) {
  if (codec == SectionCodec::kPacked) {
    std::vector<CellRef> cells;
    std::vector<uint64_t> old_vals;
    std::vector<uint64_t> map_vals;
    std::vector<double> probs;
    HOLO_RETURN_NOT_OK(ReadPackedCellVec(in, &cells));
    HOLO_RETURN_NOT_OK(ReadU64Stream(in, &old_vals));
    HOLO_RETURN_NOT_OK(ReadU64Stream(in, &map_vals));
    HOLO_RETURN_NOT_OK(ReadF64Stream(in, &probs));
    if (old_vals.size() != cells.size() || map_vals.size() != cells.size() ||
        probs.size() != cells.size()) {
      return Status::ParseError("snapshot posterior streams disagree");
    }
    posteriors->resize(cells.size());
    for (size_t i = 0; i < cells.size(); ++i) {
      CellPosterior& p = (*posteriors)[i];
      p.cell = cells[i];
      if (!CastI32(old_vals[i], &p.old_value) ||
          !CastI32(map_vals[i], &p.map_value)) {
        return Status::ParseError("snapshot posterior streams disagree");
      }
      p.map_prob = probs[i];
    }
    return Status::OK();
  }
  size_t n = 0;
  HOLO_RETURN_NOT_OK(in->ReadCount(24, &n));
  posteriors->resize(n);
  for (CellPosterior& p : *posteriors) {
    HOLO_RETURN_NOT_OK(ReadCellRef(in, &p.cell));
    HOLO_RETURN_NOT_OK(in->ReadI32(&p.old_value));
    HOLO_RETURN_NOT_OK(in->ReadI32(&p.map_value));
    HOLO_RETURN_NOT_OK(in->ReadF64(&p.map_prob));
  }
  return Status::OK();
}

Status WriteFileAtomic(const std::string& path,
                       const std::vector<std::string_view>& parts) {
  // Unique temp name per save: concurrent saves to the same path must not
  // interleave into one temp file — each writes its own and the last
  // rename wins with a complete snapshot.
  std::string tmp = path + ".tmp.XXXXXX";
  int fd = ::mkstemp(tmp.data());
  if (fd < 0) return Status::Internal("cannot open for writing: " + tmp);
  ::fchmod(fd, 0644);  // mkstemp creates 0600; snapshots are plain files.
  for (std::string_view part : parts) {
    size_t off = 0;
    while (off < part.size()) {
      ssize_t n = ::write(fd, part.data() + off, part.size() - off);
      if (n < 0) {
        ::close(fd);
        std::remove(tmp.c_str());
        return Status::Internal("write failed: " + tmp);
      }
      off += static_cast<size_t>(n);
    }
  }
  // The data must be durable before the rename publishes the name, or a
  // crash could leave a truncated file under the final path.
  if (::fsync(fd) != 0) {
    ::close(fd);
    std::remove(tmp.c_str());
    return Status::Internal("fsync failed: " + tmp);
  }
  ::close(fd);
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::Internal("cannot rename snapshot into place: " + path);
  }
  // Best-effort directory sync so the rename itself survives a crash.
  size_t slash = path.find_last_of('/');
  std::string dir =
      slash == std::string::npos ? "." : path.substr(0, slash + 1);
  int dir_fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dir_fd >= 0) {
    ::fsync(dir_fd);
    ::close(dir_fd);
  }
  return Status::OK();
}

// --- Staged load: parse everything, validate, then commit ------------------

/// Everything a snapshot carries, parsed into session-independent staging
/// storage. Both format loaders fill one of these; nothing in the context
/// or the dataset is touched until the staged state passed every
/// validation, so a malformed snapshot can never leave a half-restored
/// session behind.
struct StagedSnapshot {
  uint64_t config_fp = 0;
  std::vector<std::string> schema_names;
  uint64_t num_rows = 0;
  uint64_t dcs_fp = 0;
  uint64_t extdata_fp = 0;
  std::vector<std::string> dict_values;
  std::vector<std::vector<ValueId>> columns;
  int valid_through = 0;
  uint64_t counters[7] = {};
  /// Detection-truncation flags appended to kMeta by newer saves; absent
  /// (and defaulted) in older v2 files.
  bool detect_truncated = false;
  uint64_t num_truncated_dcs = 0;

  /// Decoded kColumnStore section (optional): per-column code→value-id
  /// dictionaries and their sorted prefixes. When present (and validated),
  /// CommitStaged installs the table columns wholesale.
  bool has_column_store = false;
  std::vector<std::vector<ValueId>> col_dicts;
  std::vector<uint64_t> sorted_prefixes;

  std::vector<AttrId> attrs;
  std::vector<CellRef> noisy_cells;

  std::vector<CellRef> query_cells;
  std::vector<CellRef> evidence_cells;
  PrunedDomains domains;
  Program program;
  FactorGraph graph;
  /// False when a lazy v2 load deferred the graph section: `graph` is
  /// empty and the graph-dependent validations run at materialization.
  bool graph_loaded = false;
  Grounder::Stats grounder_stats;
  uint64_t ground_runs = 0;
  std::string ddlog;

  WeightStore weights;
  Marginals marginals{0};
  std::vector<Repair> repairs;
  std::vector<CellPosterior> posteriors;

  size_t num_attrs() const { return schema_names.size(); }
  size_t dict_size() const { return dict_values.size(); }
};

/// The session-compatibility gate: fingerprints, schema, row count, and
/// dictionary alignment, in the same order v1 checked them. All failures
/// are InvalidArgument — the snapshot is well-formed, it just does not
/// belong to this session.
Status ValidateCompatibility(const StagedSnapshot& s,
                             const PipelineContext& ctx) {
  const Table& table = ctx.dataset->dirty();
  const Schema& schema = table.schema();
  if (s.config_fp != ConfigFingerprint(ctx.config)) {
    return Status::InvalidArgument(
        "snapshot config fingerprint mismatch: the snapshot was saved under "
        "a different configuration");
  }
  if (s.num_attrs() != schema.num_attrs()) {
    return Status::InvalidArgument("snapshot schema mismatch");
  }
  for (size_t a = 0; a < s.num_attrs(); ++a) {
    if (s.schema_names[a] != schema.name(static_cast<AttrId>(a))) {
      return Status::InvalidArgument("snapshot schema mismatch: attribute " +
                                     std::to_string(a) + " is '" +
                                     s.schema_names[a] + "', dataset has '" +
                                     schema.name(static_cast<AttrId>(a)) +
                                     "'");
    }
  }
  if (s.num_rows != table.num_rows()) {
    return Status::InvalidArgument("snapshot row count mismatch");
  }
  if (s.dcs_fp != DcsFingerprint(*ctx.dcs, schema)) {
    return Status::InvalidArgument("snapshot denial-constraint set mismatch");
  }
  if (s.extdata_fp !=
      ExternalDataFingerprint(ctx.dicts, ctx.mds, ctx.extra_detectors)) {
    return Status::InvalidArgument(
        "snapshot external-data/detector inputs mismatch");
  }

  // Dictionary alignment: the dataset's interned strings must agree with
  // the snapshot's on the shared prefix — this is what makes the persisted
  // value ids meaningful. Entries the save-time session interned on top
  // (e.g. dictionary-matched candidates) are re-interned on commit.
  const Dictionary& dict = table.dict();
  size_t shared = std::min(s.dict_size(), dict.size());
  for (size_t i = 0; i < shared; ++i) {
    if (dict.GetString(static_cast<ValueId>(i)) != s.dict_values[i]) {
      return Status::InvalidArgument(
          "dataset does not match snapshot: dictionary mismatch at value id " +
          std::to_string(i));
    }
  }
  // Entries past the shared prefix are re-interned on commit, and Intern
  // dedupes — a duplicate (against the prefix or within the tail) would
  // silently shift every id after it. A real dictionary never repeats, so
  // reject such snapshots outright.
  if (dict.size() < s.dict_size()) {
    std::unordered_set<std::string_view> tail;
    for (size_t i = dict.size(); i < s.dict_size(); ++i) {
      if (dict.Lookup(s.dict_values[i]) >= 0 ||
          !tail.insert(s.dict_values[i]).second) {
        return Status::ParseError("snapshot dictionary has duplicate entries");
      }
    }
  }
  return Status::OK();
}

/// Graph-side bounds shared by the eager loader and the deferred
/// materializer: every variable cell and factor tuple must fall inside the
/// session's table.
Status ValidateGraphBounds(const FactorGraph& graph, uint64_t num_rows,
                           size_t num_attrs) {
  Status inconsistent = Status::ParseError("snapshot artifacts out of range");
  for (const Variable& var : graph.variables()) {
    if (var.cell.tid < 0 ||
        static_cast<uint64_t>(var.cell.tid) >= num_rows ||
        var.cell.attr < 0 ||
        static_cast<size_t>(var.cell.attr) >= num_attrs) {
      return inconsistent;
    }
  }
  for (const DcFactor& factor : graph.dc_factors()) {
    if (factor.t1 < 0 || static_cast<uint64_t>(factor.t1) >= num_rows ||
        factor.t2 < 0 || static_cast<uint64_t>(factor.t2) >= num_rows) {
      return inconsistent;
    }
  }
  return Status::OK();
}

/// RepairStage indexes marginals by variable id and domains by the MAP
/// index, so the shapes must agree with the persisted graph.
Status ValidateMarginalsShape(const Marginals& marginals,
                              const FactorGraph& graph) {
  if (marginals.probs().size() != graph.num_variables()) {
    return Status::ParseError("snapshot artifacts out of range");
  }
  for (size_t v = 0; v < graph.num_variables(); ++v) {
    if (marginals.probs()[v].size() !=
        graph.variable(static_cast<int>(v)).NumCandidates()) {
      return Status::ParseError("snapshot artifacts out of range");
    }
  }
  return Status::OK();
}

/// The kColumnStore section feeds Table::InstallColumns, whose internal
/// HOLO_CHECKs would abort the process on malformed input — so everything
/// it assumes is validated here on the staging side: code 0 maps to NULL,
/// dictionary entries are distinct and inside the string dictionary,
/// sorted prefixes are in bounds, and every table cell's value id appears
/// in its column's dictionary.
Status ValidateColumnStoreSection(const StagedSnapshot& s) {
  Status bad = Status::ParseError("snapshot column store inconsistent");
  if (s.col_dicts.size() != s.num_attrs() ||
      s.sorted_prefixes.size() != s.num_attrs() ||
      s.columns.size() != s.num_attrs()) {
    return bad;
  }
  for (size_t a = 0; a < s.num_attrs(); ++a) {
    const std::vector<ValueId>& cdict = s.col_dicts[a];
    if (cdict.empty() || cdict[0] != Dictionary::kNull) return bad;
    if (s.sorted_prefixes[a] > cdict.size()) return bad;
    std::unordered_set<ValueId> members;
    for (ValueId v : cdict) {
      if (v < 0 || static_cast<size_t>(v) >= s.dict_size() ||
          !members.insert(v).second) {
        return bad;
      }
    }
    for (ValueId v : s.columns[a]) {
      if (members.find(v) == members.end()) return bad;
    }
  }
  return Status::OK();
}

/// Cross-artifact consistency: every attribute, cell, and value id the
/// staged artifacts carry must stay inside the snapshot's bounds, so a
/// checksum-valid but internally inconsistent snapshot can never make a
/// later stage index out of range. Graph-dependent checks are skipped for
/// a deferred graph — the materializer runs the identical checks.
Status ValidateArtifactBounds(const StagedSnapshot& s) {
  const uint64_t num_rows = s.num_rows;
  const size_t num_attrs = s.num_attrs();
  auto cell_ok = [&](const CellRef& c) {
    return c.tid >= 0 && static_cast<uint64_t>(c.tid) < num_rows &&
           c.attr >= 0 && static_cast<size_t>(c.attr) < num_attrs;
  };
  auto value_ok = [&](ValueId v) {
    return v >= 0 && static_cast<size_t>(v) < s.dict_size();
  };
  Status inconsistent = Status::ParseError("snapshot artifacts out of range");
  for (AttrId a : s.attrs) {
    if (a < 0 || static_cast<size_t>(a) >= num_attrs) return inconsistent;
  }
  for (const CellRef& c : s.noisy_cells) {
    if (!cell_ok(c)) return inconsistent;
  }
  for (const CellRef& c : s.query_cells) {
    if (!cell_ok(c)) return inconsistent;
  }
  for (const CellRef& c : s.evidence_cells) {
    if (!cell_ok(c)) return inconsistent;
  }
  for (const auto& [cell, candidates] : s.domains.candidates) {
    (void)candidates;
    if (!cell_ok(cell)) return inconsistent;
  }
  if (s.graph_loaded) {
    HOLO_RETURN_NOT_OK(ValidateGraphBounds(s.graph, num_rows, num_attrs));
    if (s.valid_through > static_cast<int>(StageId::kInfer)) {
      HOLO_RETURN_NOT_OK(ValidateMarginalsShape(s.marginals, s.graph));
    }
  }
  for (const Repair& r : s.repairs) {
    if (!cell_ok(r.cell) || !value_ok(r.old_value) ||
        !value_ok(r.new_value)) {
      return inconsistent;
    }
  }
  for (const CellPosterior& p : s.posteriors) {
    if (!cell_ok(p.cell) || !value_ok(p.old_value) ||
        !value_ok(p.map_value)) {
      return inconsistent;
    }
  }
  return Status::OK();
}

/// Installs the staged state into the context and the dataset. Only called
/// after every validation passed; never fails.
void CommitStaged(StagedSnapshot* s, PipelineContext* ctx) {
  Table& table = ctx->dataset->dirty();
  Dictionary& dict = table.dict();
  // A fresh restore supersedes any lazy state a previous restore left, and
  // invalidates any compiled view of the previous graph.
  ctx->deferred_graph.reset();
  ctx->compiled.reset();
  for (size_t i = dict.size(); i < s->dict_size(); ++i) {
    dict.Intern(s->dict_values[i]);
  }
  if (s->has_column_store) {
    // The section carries the per-column dictionaries, so the codes install
    // wholesale — no per-cell re-encoding. Validated at parse time.
    table.InstallColumns(std::move(s->columns), std::move(s->col_dicts),
                         s->sorted_prefixes);
  } else {
    for (size_t a = 0; a < s->num_attrs(); ++a) {
      for (size_t t = 0; t < s->num_rows; ++t) {
        table.Set(static_cast<TupleId>(t), static_cast<AttrId>(a),
                  s->columns[a][t]);
      }
    }
  }
  RunStats& stats = ctx->report.stats;
  stats.num_violations = s->counters[0];
  stats.num_noisy_cells = s->counters[1];
  stats.num_query_vars = s->counters[2];
  stats.num_evidence_vars = s->counters[3];
  stats.num_candidates = s->counters[4];
  stats.num_dc_factors = s->counters[5];
  stats.num_grounded_factors = s->counters[6];
  stats.detect_truncated = s->detect_truncated;
  stats.num_truncated_dcs = s->num_truncated_dcs;
  if (s->valid_through > static_cast<int>(StageId::kDetect)) {
    ctx->attrs = std::move(s->attrs);
    // Detection is linear in the restored table, so the violation set is
    // recomputed rather than stored. The noisy cells come from the file:
    // feedback pins removed cells from them.
    ctx->violations = ctx->Detector().DetectSet().violations;
    ctx->noisy = NoisyCells();
    for (const CellRef& c : s->noisy_cells) ctx->noisy.Add(c);
  }
  if (s->valid_through > static_cast<int>(StageId::kCompile)) {
    ctx->query_cells = std::move(s->query_cells);
    ctx->evidence_cells = std::move(s->evidence_cells);
    ctx->domains = std::move(s->domains);
    ctx->program = std::move(s->program);
    ctx->graph = std::move(s->graph);
    ctx->grounder_stats = s->grounder_stats;
    ctx->ground_runs = s->ground_runs;
    ctx->report.ddlog = std::move(s->ddlog);
  }
  if (s->valid_through > static_cast<int>(StageId::kLearn)) {
    ctx->weights = std::move(s->weights);
  }
  if (s->valid_through > static_cast<int>(StageId::kInfer)) {
    ctx->marginals = std::move(s->marginals);
  }
  if (s->valid_through == kNumStages) {
    ctx->report.repairs = std::move(s->repairs);
    ctx->report.posteriors = std::move(s->posteriors);
  }
}

// --- v1: monolithic payload (read only) -----------------------------------
// Byte-for-byte the PR 2 format; the golden fixture in tests/data/ pins it.

/// Parses a v1 payload (everything after the 16-byte header, checksum
/// already verified) into staging storage. `num_dcs` bounds the factor
/// dc_indexes (the session's constraint count).
Status ParseV1Payload(std::string_view body, size_t num_dcs,
                      StagedSnapshot* s) {
  BinaryReader reader(body);
  HOLO_RETURN_NOT_OK(reader.ReadU64(&s->config_fp));
  size_t num_attrs = 0;
  HOLO_RETURN_NOT_OK(reader.ReadCount(8, &num_attrs));
  s->schema_names.resize(num_attrs);
  for (std::string& name : s->schema_names) {
    HOLO_RETURN_NOT_OK(reader.ReadString(&name));
  }
  HOLO_RETURN_NOT_OK(reader.ReadU64(&s->num_rows));
  HOLO_RETURN_NOT_OK(reader.ReadU64(&s->dcs_fp));
  HOLO_RETURN_NOT_OK(reader.ReadU64(&s->extdata_fp));

  size_t dict_size = 0;
  HOLO_RETURN_NOT_OK(reader.ReadCount(8, &dict_size));
  s->dict_values.resize(dict_size);
  for (std::string& value : s->dict_values) {
    HOLO_RETURN_NOT_OK(reader.ReadString(&value));
  }
  // Bound the column allocations by the bytes actually present (4 per
  // cell): this parser runs before the session row count is compared, so
  // a corrupt huge num_rows must fail here, not in resize.
  if (num_attrs != 0 &&
      s->num_rows > reader.remaining() / (num_attrs * uint64_t{4})) {
    return Status::ParseError("snapshot truncated");
  }
  s->columns.resize(num_attrs);
  for (std::vector<ValueId>& column : s->columns) {
    column.resize(s->num_rows);
    for (ValueId& v : column) {
      HOLO_RETURN_NOT_OK(reader.ReadI32(&v));
      if (v < 0 || static_cast<size_t>(v) >= dict_size) {
        return Status::ParseError("snapshot value id out of range");
      }
    }
  }
  HOLO_RETURN_NOT_OK(reader.ReadI32(&s->valid_through));
  if (s->valid_through < 0 || s->valid_through > kNumStages) {
    return Status::ParseError("snapshot valid_through out of range");
  }
  for (uint64_t& c : s->counters) HOLO_RETURN_NOT_OK(reader.ReadU64(&c));

  if (s->valid_through > static_cast<int>(StageId::kDetect)) {
    HOLO_RETURN_NOT_OK(ReadI32Vec(&reader, &s->attrs));
    HOLO_RETURN_NOT_OK(SkipViolations(&reader, SectionCodec::kRaw));
    HOLO_RETURN_NOT_OK(ReadCellVec(&reader, &s->noisy_cells));
  }
  if (s->valid_through > static_cast<int>(StageId::kCompile)) {
    HOLO_RETURN_NOT_OK(ReadCellVec(&reader, &s->query_cells));
    HOLO_RETURN_NOT_OK(ReadCellVec(&reader, &s->evidence_cells));
    HOLO_RETURN_NOT_OK(DeserializeDomains(&reader, SectionCodec::kRaw,
                                          dict_size, &s->domains));
    HOLO_RETURN_NOT_OK(DeserializeProgram(&reader, &s->program));
    FactorGraphBounds bounds;
    bounds.dict_size = dict_size;
    bounds.num_dcs = num_dcs;
    HOLO_RETURN_NOT_OK(DeserializeFactorGraph(&reader, SectionCodec::kRaw,
                                              &s->graph, bounds));
    s->graph_loaded = true;
    HOLO_RETURN_NOT_OK(reader.ReadU64(&s->grounder_stats.num_query_vars));
    HOLO_RETURN_NOT_OK(reader.ReadU64(&s->grounder_stats.num_evidence_vars));
    HOLO_RETURN_NOT_OK(
        reader.ReadU64(&s->grounder_stats.num_feature_instances));
    HOLO_RETURN_NOT_OK(reader.ReadU64(&s->grounder_stats.num_dc_factors));
    HOLO_RETURN_NOT_OK(
        reader.ReadU64(&s->grounder_stats.num_dc_pairs_considered));
    HOLO_RETURN_NOT_OK(reader.ReadU64(&s->ground_runs));
    HOLO_RETURN_NOT_OK(reader.ReadString(&s->ddlog));
  }
  if (s->valid_through > static_cast<int>(StageId::kLearn)) {
    HOLO_RETURN_NOT_OK(
        DeserializeWeightStore(&reader, SectionCodec::kRaw, &s->weights));
  }
  if (s->valid_through > static_cast<int>(StageId::kInfer)) {
    HOLO_RETURN_NOT_OK(
        DeserializeMarginals(&reader, SectionCodec::kRaw, &s->marginals));
  }
  if (s->valid_through == kNumStages) {
    HOLO_RETURN_NOT_OK(
        DeserializeRepairs(&reader, SectionCodec::kRaw, &s->repairs));
    HOLO_RETURN_NOT_OK(
        DeserializePosteriors(&reader, SectionCodec::kRaw, &s->posteriors));
  }
  if (reader.remaining() != 0) {
    return Status::ParseError("snapshot has trailing bytes");
  }
  return Status::OK();
}

Result<int> LoadV1(std::string_view bytes, PipelineContext* ctx) {
  BinaryReader header(bytes.substr(4, kHeaderBytes - 4));
  uint32_t version = 0;
  uint64_t payload_size = 0;
  HOLO_RETURN_NOT_OK(header.ReadU32(&version));
  HOLO_RETURN_NOT_OK(header.ReadU64(&payload_size));
  if (bytes.size() != kHeaderBytes + payload_size + kChecksumBytes) {
    return Status::ParseError("snapshot truncated");
  }
  std::string_view body = bytes.substr(kHeaderBytes, payload_size);
  BinaryReader trailer(
      bytes.substr(kHeaderBytes + payload_size, kChecksumBytes));
  uint64_t stored_checksum = 0;
  HOLO_RETURN_NOT_OK(trailer.ReadU64(&stored_checksum));
  if (HashBytes(body) != stored_checksum) {
    return Status::ParseError("snapshot checksum mismatch (corrupt file)");
  }

  StagedSnapshot staged;
  HOLO_RETURN_NOT_OK(ParseV1Payload(body, ctx->dcs->size(), &staged));
  HOLO_RETURN_NOT_OK(ValidateCompatibility(staged, *ctx));
  HOLO_RETURN_NOT_OK(ValidateArtifactBounds(staged));
  int valid_through = staged.valid_through;
  CommitStaged(&staged, ctx);
  return valid_through;
}

// --- v2/v3: sectioned layout -----------------------------------------------
//
//   [magic][u32 version=3 (or 2)][u64 dir_offset]
//   [section 0 bytes][section 1 bytes]...      (contiguous, in id order)
//   [u64 count][count x {u32 id, u32 codec, u64 offset, u64 size,
//                        u64 checksum-of-section-bytes}]
//   [u64 checksum-of-directory]
//
// Sections must tile [header, dir_offset) exactly — gaps or overlaps are
// rejected — so no byte of the payload escapes a checksum. Which sections
// appear is a function of valid_through, mirroring v1's conditional
// payload blocks.

/// Section ids a snapshot with this valid_through must carry, in order.
std::vector<SectionId> ExpectedSections(int valid_through) {
  std::vector<SectionId> ids = {SectionId::kMeta, SectionId::kDictionary,
                                SectionId::kTable};
  if (valid_through > static_cast<int>(StageId::kDetect)) {
    ids.push_back(SectionId::kDetect);
  }
  if (valid_through > static_cast<int>(StageId::kCompile)) {
    ids.push_back(SectionId::kCompile);
    ids.push_back(SectionId::kGraph);
  }
  if (valid_through > static_cast<int>(StageId::kLearn)) {
    ids.push_back(SectionId::kWeights);
  }
  if (valid_through > static_cast<int>(StageId::kInfer)) {
    ids.push_back(SectionId::kMarginals);
  }
  if (valid_through == kNumStages) {
    ids.push_back(SectionId::kReport);
  }
  return ids;
}

struct SectionBlob {
  SectionId id;
  SectionCodec codec;
  std::string bytes;
};

/// True when every stream the packed codec would emit for this context
/// stays under the reader's kMaxStreamElements cap. The longest streams
/// are flattened per-element columns: table cells per attribute, feature
/// instances, factor var-ids, marginal entries.
bool PackedStreamsFit(const PipelineContext& ctx, int valid_through) {
  const Table& table = ctx.dataset->dirty();
  uint64_t longest = table.num_rows();
  auto grow = [&longest](uint64_t n) { longest = std::max(longest, n); };
  // kColumnStore streams one code→value array per column, each at most the
  // dictionary's size.
  grow(table.dict().size());
  if (valid_through > static_cast<int>(StageId::kDetect)) {
    grow(ctx.noisy.size());
  }
  if (valid_through > static_cast<int>(StageId::kCompile)) {
    grow(ctx.query_cells.size());
    grow(ctx.evidence_cells.size());
    uint64_t candidates = 0;
    for (const auto& [cell, cands] : ctx.domains.candidates) {
      (void)cell;
      candidates += cands.size();
    }
    grow(candidates);
    uint64_t features = 0;
    uint64_t domain = 0;
    for (const Variable& var : ctx.graph.variables()) {
      features += var.features.size();
      domain += var.domain.size();
    }
    grow(features);
    grow(domain + ctx.graph.num_variables());  // feat_begin stream.
    uint64_t var_ids = 0;
    for (const DcFactor& f : ctx.graph.dc_factors()) {
      var_ids += f.var_ids.size();
    }
    grow(ctx.graph.dc_factors().size());
    grow(var_ids);
  }
  if (valid_through > static_cast<int>(StageId::kLearn)) {
    grow(ctx.weights.size());
  }
  if (valid_through > static_cast<int>(StageId::kInfer)) {
    uint64_t probs = 0;
    for (const auto& p : ctx.marginals.probs()) probs += p.size();
    grow(probs);
  }
  if (valid_through == kNumStages) {
    grow(ctx.report.posteriors.size());
  }
  return longest <= kMaxStreamElements;
}

Status SaveSectioned(const PipelineContext& ctx, int valid_through,
                             const std::string& path, SectionCodec codec) {
  const Table& table = ctx.dataset->dirty();
  const Schema& schema = table.schema();
  // The reader caps packed stream lengths (allocation bound for corrupt
  // counts); a context past the cap saves raw instead, so Save never
  // produces a snapshot Load would reject.
  if (codec == SectionCodec::kPacked &&
      !PackedStreamsFit(ctx, valid_through)) {
    codec = SectionCodec::kRaw;
  }
  std::vector<SectionBlob> sections;
  auto add = [&sections](SectionId id, SectionCodec c, BinaryWriter* w) {
    sections.push_back({id, c, w->TakeBuffer()});
  };

  {
    BinaryWriter w;
    w.WriteU64(ConfigFingerprint(ctx.config));
    w.WriteU64(schema.num_attrs());
    for (const std::string& name : schema.names()) w.WriteString(name);
    w.WriteU64(table.num_rows());
    w.WriteU64(DcsFingerprint(*ctx.dcs, schema));
    w.WriteU64(
        ExternalDataFingerprint(ctx.dicts, ctx.mds, ctx.extra_detectors));
    w.WriteI32(valid_through);
    const RunStats& stats = ctx.report.stats;
    w.WriteU64(stats.num_violations);
    w.WriteU64(stats.num_noisy_cells);
    w.WriteU64(stats.num_query_vars);
    w.WriteU64(stats.num_evidence_vars);
    w.WriteU64(stats.num_candidates);
    w.WriteU64(stats.num_dc_factors);
    w.WriteU64(stats.num_grounded_factors);
    // Appended after the original seven counters; older readers that stop
    // at the counters reject the extra bytes, so this rides the same
    // format version as kColumnStore (newer readers tolerate absence).
    w.WriteU64(stats.detect_truncated ? 1 : 0);
    w.WriteU64(stats.num_truncated_dcs);
    add(SectionId::kMeta, SectionCodec::kRaw, &w);
  }
  {
    const Dictionary& dict = table.dict();
    BinaryWriter w;
    w.WriteU64(dict.size());
    for (size_t i = 0; i < dict.size(); ++i) {
      w.WriteString(dict.GetString(static_cast<ValueId>(i)));
    }
    add(SectionId::kDictionary, SectionCodec::kRaw, &w);
  }
  {
    BinaryWriter w;
    for (size_t a = 0; a < schema.num_attrs(); ++a) {
      const std::vector<ValueId>& column =
          table.Column(static_cast<AttrId>(a));
      if (codec == SectionCodec::kPacked) {
        std::vector<uint64_t> vals(column.begin(), column.end());
        WriteU64Stream(&w, vals);
      } else {
        for (ValueId v : column) w.WriteI32(v);
      }
    }
    add(SectionId::kTable, codec, &w);
  }
  if (valid_through > static_cast<int>(StageId::kDetect)) {
    BinaryWriter w;
    if (codec == SectionCodec::kPacked) {
      std::vector<uint64_t> attrs(ctx.attrs.begin(), ctx.attrs.end());
      WriteU64Stream(&w, attrs);
      WritePackedCellVec(&w, ctx.noisy.cells());
    } else {
      WriteI32Vec(&w, ctx.attrs);
      WriteCellVec(&w, ctx.noisy.cells());
    }
    add(SectionId::kDetect, codec, &w);
  }
  if (valid_through > static_cast<int>(StageId::kCompile)) {
    {
      BinaryWriter w;
      if (codec == SectionCodec::kPacked) {
        WritePackedCellVec(&w, ctx.query_cells);
        WritePackedCellVec(&w, ctx.evidence_cells);
      } else {
        WriteCellVec(&w, ctx.query_cells);
        WriteCellVec(&w, ctx.evidence_cells);
      }
      SerializeDomains(ctx.domains, codec, &w);
      SerializeProgram(ctx.program, &w);
      w.WriteU64(ctx.grounder_stats.num_query_vars);
      w.WriteU64(ctx.grounder_stats.num_evidence_vars);
      w.WriteU64(ctx.grounder_stats.num_feature_instances);
      w.WriteU64(ctx.grounder_stats.num_dc_factors);
      w.WriteU64(ctx.grounder_stats.num_dc_pairs_considered);
      w.WriteU64(ctx.ground_runs);
      w.WriteString(ctx.report.ddlog);
      add(SectionId::kCompile, codec, &w);
    }
    {
      BinaryWriter w;
      SerializeFactorGraph(ctx.graph, codec, &w);
      add(SectionId::kGraph, codec, &w);
    }
  }
  if (valid_through > static_cast<int>(StageId::kLearn)) {
    BinaryWriter w;
    SerializeWeightStore(ctx.weights, codec, &w);
    add(SectionId::kWeights, codec, &w);
  }
  if (valid_through > static_cast<int>(StageId::kInfer)) {
    BinaryWriter w;
    SerializeMarginals(ctx.marginals, codec, &w);
    add(SectionId::kMarginals, codec, &w);
  }
  if (valid_through == kNumStages) {
    BinaryWriter w;
    SerializeRepairs(ctx.report.repairs, codec, &w);
    SerializePosteriors(ctx.report.posteriors, codec, &w);
    add(SectionId::kReport, codec, &w);
  }
  {
    // ColumnStore dictionaries: per column, the code→value-id array and the
    // sorted prefix, so restores install the code arrays wholesale instead
    // of re-encoding every cell. Highest section id, hence always last.
    BinaryWriter w;
    for (size_t a = 0; a < schema.num_attrs(); ++a) {
      const ColumnStore::Column& col = table.store().column(a);
      if (codec == SectionCodec::kPacked) {
        std::vector<uint64_t> vals(col.code_to_value.begin(),
                                   col.code_to_value.end());
        WriteU64Stream(&w, vals);
      } else {
        WriteI32Vec(&w, col.code_to_value);
      }
      w.WriteU64(col.sorted_prefix);
    }
    add(SectionId::kColumnStore, codec, &w);
  }

  uint64_t offset = kHeaderBytes;
  BinaryWriter dir;
  dir.WriteU64(sections.size());
  for (const SectionBlob& s : sections) {
    dir.WriteU32(static_cast<uint32_t>(s.id));
    dir.WriteU32(static_cast<uint32_t>(s.codec));
    dir.WriteU64(offset);
    dir.WriteU64(s.bytes.size());
    dir.WriteU64(HashBytes(s.bytes));
    offset += s.bytes.size();
  }
  BinaryWriter header;
  header.WriteBytes(std::string_view(kMagic, sizeof(kMagic)));
  header.WriteU32(kSnapshotFormatVersion);
  header.WriteU64(offset);  // Directory starts where the sections end.
  BinaryWriter trailer;
  trailer.WriteU64(HashBytes(dir.buffer()));

  std::vector<std::string_view> parts;
  parts.push_back(header.buffer());
  for (const SectionBlob& s : sections) parts.push_back(s.bytes);
  parts.push_back(dir.buffer());
  parts.push_back(trailer.buffer());
  return WriteFileAtomic(path, parts);
}

/// Holds a still-encoded kGraph section of a lazily restored snapshot
/// (plus the mapping that keeps its bytes resident) and materializes it
/// on first access, running exactly the checks the eager path runs at
/// restore time: section checksum, structural decode, cell/tuple bounds,
/// and the marginals-shape agreement.
class LazyGraphSource : public DeferredGraphSource {
 public:
  LazyGraphSource(std::shared_ptr<MmapReader> mapping, std::string_view bytes,
                  SectionCodec codec, uint64_t checksum, size_t dict_size,
                  size_t num_dcs, uint64_t num_rows, size_t num_attrs,
                  int valid_through, std::string path)
      : mapping_(std::move(mapping)),
        bytes_(bytes),
        codec_(codec),
        checksum_(checksum),
        dict_size_(dict_size),
        num_dcs_(num_dcs),
        num_rows_(num_rows),
        num_attrs_(num_attrs),
        valid_through_(valid_through),
        path_(std::move(path)) {}

  Status Materialize(PipelineContext* ctx) override {
    if (HashBytes(bytes_) != checksum_) {
      return Status::ParseError(
          "snapshot checksum mismatch (corrupt file): " + path_);
    }
    BinaryReader in(bytes_);
    FactorGraph graph;
    FactorGraphBounds bounds;
    bounds.dict_size = dict_size_;
    bounds.num_dcs = num_dcs_;
    HOLO_RETURN_NOT_OK(DeserializeFactorGraph(&in, codec_, &graph, bounds));
    if (in.remaining() != 0) {
      return Status::ParseError("snapshot has trailing bytes");
    }
    HOLO_RETURN_NOT_OK(ValidateGraphBounds(graph, num_rows_, num_attrs_));
    if (valid_through_ > static_cast<int>(StageId::kInfer)) {
      HOLO_RETURN_NOT_OK(ValidateMarginalsShape(ctx->marginals, graph));
    }
    ctx->graph = std::move(graph);
    return Status::OK();
  }

 private:
  std::shared_ptr<MmapReader> mapping_;
  std::string_view bytes_;
  SectionCodec codec_;
  uint64_t checksum_;
  size_t dict_size_;
  size_t num_dcs_;
  uint64_t num_rows_;
  size_t num_attrs_;
  int valid_through_;
  std::string path_;
};

struct DirEntry {
  uint32_t id = 0;
  SectionCodec codec = SectionCodec::kRaw;
  std::string_view bytes;
  uint64_t checksum = 0;
};

/// Loads the sectioned layout: v3, or v2 with its violation list.
Result<int> LoadSectioned(std::string_view bytes, uint32_t version,
                          std::shared_ptr<MmapReader> mapping,
                          const std::string& path, PipelineContext* ctx,
                          const SnapshotLoadOptions& options) {
  BinaryReader header(bytes.substr(8, kHeaderBytes - 8));
  uint64_t dir_offset = 0;
  HOLO_RETURN_NOT_OK(header.ReadU64(&dir_offset));
  // Subtraction, not addition: a corrupt dir_offset near 2^64 must fail
  // this check, not wrap past it into an out-of-range substr. The caller
  // guaranteed bytes.size() >= header + checksum, so no underflow here.
  if (dir_offset < kHeaderBytes ||
      dir_offset > bytes.size() - 8 - kChecksumBytes) {
    return Status::ParseError("snapshot truncated");
  }
  std::string_view dir_bytes =
      bytes.substr(dir_offset, bytes.size() - dir_offset - kChecksumBytes);
  BinaryReader trailer(
      bytes.substr(bytes.size() - kChecksumBytes, kChecksumBytes));
  uint64_t stored_checksum = 0;
  HOLO_RETURN_NOT_OK(trailer.ReadU64(&stored_checksum));
  if (HashBytes(dir_bytes) != stored_checksum) {
    return Status::ParseError("snapshot checksum mismatch (corrupt file)");
  }

  BinaryReader dir(dir_bytes);
  uint64_t count = 0;
  HOLO_RETURN_NOT_OK(dir.ReadU64(&count));
  if (count > dir.remaining() / kDirEntryBytes ||
      dir.remaining() != count * kDirEntryBytes) {
    return Status::ParseError("snapshot truncated");
  }
  std::vector<DirEntry> entries(count);
  uint64_t expected_offset = kHeaderBytes;
  uint32_t prev_id = 0;
  for (size_t i = 0; i < count; ++i) {
    DirEntry& e = entries[i];
    uint32_t codec = 0;
    uint64_t offset = 0;
    uint64_t size = 0;
    HOLO_RETURN_NOT_OK(dir.ReadU32(&e.id));
    HOLO_RETURN_NOT_OK(dir.ReadU32(&codec));
    HOLO_RETURN_NOT_OK(dir.ReadU64(&offset));
    HOLO_RETURN_NOT_OK(dir.ReadU64(&size));
    HOLO_RETURN_NOT_OK(dir.ReadU64(&e.checksum));
    if (codec > kMaxSectionCodec ||
        e.id > static_cast<uint32_t>(SectionId::kColumnStore) ||
        (i > 0 && e.id <= prev_id)) {
      return Status::ParseError("snapshot section directory is malformed");
    }
    // Sections must tile [header, directory) exactly: no gaps a checksum
    // would not cover, no overlaps.
    if (offset != expected_offset || size > dir_offset - offset) {
      return Status::ParseError("snapshot section directory is malformed");
    }
    e.codec = static_cast<SectionCodec>(codec);
    e.bytes = bytes.substr(offset, size);
    expected_offset = offset + size;
    prev_id = e.id;
  }
  if (expected_offset != dir_offset) {
    return Status::ParseError("snapshot section directory is malformed");
  }

  // Meta first: it carries valid_through, which determines both the
  // expected section set and how to interpret the rest.
  StagedSnapshot staged;
  if (entries.empty() ||
      entries[0].id != static_cast<uint32_t>(SectionId::kMeta) ||
      entries[0].codec != SectionCodec::kRaw) {
    return Status::ParseError("snapshot sections inconsistent");
  }
  if (HashBytes(entries[0].bytes) != entries[0].checksum) {
    return Status::ParseError("snapshot checksum mismatch (corrupt file)");
  }
  {
    BinaryReader r(entries[0].bytes);
    HOLO_RETURN_NOT_OK(r.ReadU64(&staged.config_fp));
    size_t num_attrs = 0;
    HOLO_RETURN_NOT_OK(r.ReadCount(8, &num_attrs));
    staged.schema_names.resize(num_attrs);
    for (std::string& name : staged.schema_names) {
      HOLO_RETURN_NOT_OK(r.ReadString(&name));
    }
    HOLO_RETURN_NOT_OK(r.ReadU64(&staged.num_rows));
    HOLO_RETURN_NOT_OK(r.ReadU64(&staged.dcs_fp));
    HOLO_RETURN_NOT_OK(r.ReadU64(&staged.extdata_fp));
    HOLO_RETURN_NOT_OK(r.ReadI32(&staged.valid_through));
    if (staged.valid_through < 0 || staged.valid_through > kNumStages) {
      return Status::ParseError("snapshot valid_through out of range");
    }
    for (uint64_t& c : staged.counters) HOLO_RETURN_NOT_OK(r.ReadU64(&c));
    // Newer saves append the detection-truncation flags; older v2 files
    // end at the counters and keep the defaults.
    if (r.remaining() != 0) {
      uint64_t truncated = 0;
      HOLO_RETURN_NOT_OK(r.ReadU64(&truncated));
      if (truncated > 1) {
        return Status::ParseError("snapshot meta flags out of range");
      }
      staged.detect_truncated = truncated != 0;
      HOLO_RETURN_NOT_OK(r.ReadU64(&staged.num_truncated_dcs));
    }
    if (r.remaining() != 0) {
      return Status::ParseError("snapshot has trailing bytes");
    }
  }
  // kColumnStore (the highest id, hence always last) is optional: current
  // saves always append it, but v2 files written before it existed must
  // still restore — they just re-encode through the per-cell path.
  std::vector<SectionId> expected = ExpectedSections(staged.valid_through);
  size_t required = entries.size();
  if (required == expected.size() + 1 &&
      entries.back().id == static_cast<uint32_t>(SectionId::kColumnStore)) {
    required -= 1;
  }
  if (required != expected.size()) {
    return Status::ParseError("snapshot sections inconsistent");
  }
  for (size_t i = 0; i < expected.size(); ++i) {
    if (entries[i].id != static_cast<uint32_t>(expected[i])) {
      return Status::ParseError("snapshot sections inconsistent");
    }
  }

  // Dictionary next, then the compatibility gate: fingerprint and
  // alignment mismatches must be reported as InvalidArgument before any
  // artifact section is parsed — a snapshot from the wrong session is not
  // malformed, it just does not belong here (and e.g. its factor
  // dc_indexes would otherwise trip the wrong-constraint-count bound as a
  // ParseError first).
  {
    const DirEntry& e = entries[1];
    if (e.codec != SectionCodec::kRaw) {
      return Status::ParseError("snapshot sections inconsistent");
    }
    if (HashBytes(e.bytes) != e.checksum) {
      return Status::ParseError("snapshot checksum mismatch (corrupt file)");
    }
    BinaryReader r(e.bytes);
    size_t dict_size = 0;
    HOLO_RETURN_NOT_OK(r.ReadCount(8, &dict_size));
    staged.dict_values.resize(dict_size);
    for (std::string& value : staged.dict_values) {
      HOLO_RETURN_NOT_OK(r.ReadString(&value));
    }
    if (r.remaining() != 0) {
      return Status::ParseError("snapshot has trailing bytes");
    }
  }
  HOLO_RETURN_NOT_OK(ValidateCompatibility(staged, *ctx));

  const bool defer_graph =
      options.lazy_graph && mapping != nullptr &&
      staged.valid_through > static_cast<int>(StageId::kCompile);
  const DirEntry* graph_entry = nullptr;
  for (size_t i = 2; i < entries.size(); ++i) {
    const DirEntry& e = entries[i];
    SectionId id = static_cast<SectionId>(e.id);
    if (defer_graph && id == SectionId::kGraph) {
      // Deferred: checksum and decode run at materialization.
      graph_entry = &e;
      continue;
    }
    if (HashBytes(e.bytes) != e.checksum) {
      return Status::ParseError("snapshot checksum mismatch (corrupt file)");
    }
    BinaryReader r(e.bytes);
    switch (id) {
      case SectionId::kTable: {
        staged.columns.resize(staged.num_attrs());
        for (std::vector<ValueId>& column : staged.columns) {
          if (e.codec == SectionCodec::kPacked) {
            std::vector<uint64_t> vals;
            HOLO_RETURN_NOT_OK(ReadU64Stream(&r, &vals));
            if (vals.size() != staged.num_rows) {
              return Status::ParseError("snapshot table streams disagree");
            }
            column.resize(vals.size());
            for (size_t t = 0; t < vals.size(); ++t) {
              if (!CastI32(vals[t], &column[t]) ||
                  static_cast<size_t>(column[t]) >= staged.dict_size()) {
                return Status::ParseError("snapshot value id out of range");
              }
            }
          } else {
            column.resize(staged.num_rows);
            for (ValueId& v : column) {
              HOLO_RETURN_NOT_OK(r.ReadI32(&v));
              if (v < 0 || static_cast<size_t>(v) >= staged.dict_size()) {
                return Status::ParseError("snapshot value id out of range");
              }
            }
          }
        }
        break;
      }
      case SectionId::kDetect: {
        if (e.codec == SectionCodec::kPacked) {
          std::vector<uint64_t> attrs;
          HOLO_RETURN_NOT_OK(ReadU64Stream(&r, &attrs));
          staged.attrs.resize(attrs.size());
          for (size_t a = 0; a < attrs.size(); ++a) {
            if (!CastI32(attrs[a], &staged.attrs[a])) {
              return Status::ParseError("snapshot artifacts out of range");
            }
          }
          if (version == kSnapshotFormatV2) {
            HOLO_RETURN_NOT_OK(SkipViolations(&r, e.codec));
          }
          HOLO_RETURN_NOT_OK(ReadPackedCellVec(&r, &staged.noisy_cells));
        } else {
          HOLO_RETURN_NOT_OK(ReadI32Vec(&r, &staged.attrs));
          if (version == kSnapshotFormatV2) {
            HOLO_RETURN_NOT_OK(SkipViolations(&r, e.codec));
          }
          HOLO_RETURN_NOT_OK(ReadCellVec(&r, &staged.noisy_cells));
        }
        break;
      }
      case SectionId::kCompile: {
        if (e.codec == SectionCodec::kPacked) {
          HOLO_RETURN_NOT_OK(ReadPackedCellVec(&r, &staged.query_cells));
          HOLO_RETURN_NOT_OK(ReadPackedCellVec(&r, &staged.evidence_cells));
        } else {
          HOLO_RETURN_NOT_OK(ReadCellVec(&r, &staged.query_cells));
          HOLO_RETURN_NOT_OK(ReadCellVec(&r, &staged.evidence_cells));
        }
        HOLO_RETURN_NOT_OK(DeserializeDomains(&r, e.codec,
                                              staged.dict_size(),
                                              &staged.domains));
        HOLO_RETURN_NOT_OK(DeserializeProgram(&r, &staged.program));
        HOLO_RETURN_NOT_OK(
            r.ReadU64(&staged.grounder_stats.num_query_vars));
        HOLO_RETURN_NOT_OK(
            r.ReadU64(&staged.grounder_stats.num_evidence_vars));
        HOLO_RETURN_NOT_OK(
            r.ReadU64(&staged.grounder_stats.num_feature_instances));
        HOLO_RETURN_NOT_OK(
            r.ReadU64(&staged.grounder_stats.num_dc_factors));
        HOLO_RETURN_NOT_OK(
            r.ReadU64(&staged.grounder_stats.num_dc_pairs_considered));
        HOLO_RETURN_NOT_OK(r.ReadU64(&staged.ground_runs));
        HOLO_RETURN_NOT_OK(r.ReadString(&staged.ddlog));
        break;
      }
      case SectionId::kGraph: {
        FactorGraphBounds bounds;
        bounds.dict_size = staged.dict_size();
        bounds.num_dcs = ctx->dcs->size();
        HOLO_RETURN_NOT_OK(
            DeserializeFactorGraph(&r, e.codec, &staged.graph, bounds));
        staged.graph_loaded = true;
        break;
      }
      case SectionId::kWeights: {
        HOLO_RETURN_NOT_OK(
            DeserializeWeightStore(&r, e.codec, &staged.weights));
        break;
      }
      case SectionId::kMarginals: {
        HOLO_RETURN_NOT_OK(
            DeserializeMarginals(&r, e.codec, &staged.marginals));
        break;
      }
      case SectionId::kReport: {
        HOLO_RETURN_NOT_OK(
            DeserializeRepairs(&r, e.codec, &staged.repairs));
        HOLO_RETURN_NOT_OK(
            DeserializePosteriors(&r, e.codec, &staged.posteriors));
        break;
      }
      case SectionId::kColumnStore: {
        // Ordered after kTable by id, so staged.columns is already parsed
        // and the cross-check against the cell values can run here.
        staged.col_dicts.resize(staged.num_attrs());
        staged.sorted_prefixes.resize(staged.num_attrs());
        for (size_t a = 0; a < staged.num_attrs(); ++a) {
          std::vector<ValueId>& cdict = staged.col_dicts[a];
          if (e.codec == SectionCodec::kPacked) {
            std::vector<uint64_t> vals;
            HOLO_RETURN_NOT_OK(ReadU64Stream(&r, &vals));
            cdict.resize(vals.size());
            for (size_t k = 0; k < vals.size(); ++k) {
              if (!CastI32(vals[k], &cdict[k]) ||
                  static_cast<size_t>(cdict[k]) >= staged.dict_size()) {
                return Status::ParseError("snapshot value id out of range");
              }
            }
          } else {
            HOLO_RETURN_NOT_OK(
                ReadValueIdVec(&r, staged.dict_size(), &cdict));
          }
          HOLO_RETURN_NOT_OK(r.ReadU64(&staged.sorted_prefixes[a]));
        }
        HOLO_RETURN_NOT_OK(ValidateColumnStoreSection(staged));
        staged.has_column_store = true;
        break;
      }
      case SectionId::kMeta:
      case SectionId::kDictionary:
        // Parsed before this loop; appearing again means a malformed
        // directory (the expected-set check should have caught it).
        return Status::ParseError("snapshot sections inconsistent");
    }
    if (r.remaining() != 0) {
      return Status::ParseError("snapshot has trailing bytes");
    }
  }

  // Compatibility was already validated before the artifact sections
  // parsed; only the cross-artifact bounds remain.
  HOLO_RETURN_NOT_OK(ValidateArtifactBounds(staged));
  int valid_through = staged.valid_through;
  size_t dict_size = staged.dict_size();
  uint64_t num_rows = staged.num_rows;
  size_t num_attrs = staged.num_attrs();
  CommitStaged(&staged, ctx);
  if (defer_graph && graph_entry != nullptr) {
    ctx->deferred_graph = std::make_shared<LazyGraphSource>(
        std::move(mapping), graph_entry->bytes, graph_entry->codec,
        graph_entry->checksum, dict_size, ctx->dcs->size(), num_rows,
        num_attrs, valid_through, path);
  }
  return valid_through;
}

}  // namespace

// --- Public entry points ---------------------------------------------------

Status SaveSessionSnapshot(const PipelineContext& ctx, int valid_through,
                           const std::string& path,
                           const SnapshotSaveOptions& options) {
  // io.snapshot.save models the disk failing under any snapshot write —
  // spill-on-evict, drain persistence, explicit Save() calls alike.
  HOLO_RETURN_NOT_OK(HOLO_FAILPOINT("io.snapshot.save"));
  if (ctx.dataset == nullptr || ctx.dcs == nullptr) {
    return Status::InvalidArgument("snapshot requires an opened session");
  }
  if (valid_through < 0 || valid_through > kNumStages) {
    return Status::InvalidArgument("valid_through out of range");
  }
  if (ctx.deferred_graph != nullptr &&
      valid_through > static_cast<int>(StageId::kCompile)) {
    return Status::InvalidArgument(
        "cannot save a lazily restored session before its factor graph "
        "materializes (call PipelineContext::EnsureGraph)");
  }
  return SaveSectioned(ctx, valid_through, path, options.codec);
}

Result<int> LoadSessionSnapshot(const std::string& path, PipelineContext* ctx,
                                const SnapshotLoadOptions& options) {
  // io.snapshot.load models an unreadable/corrupt snapshot file; every
  // caller already treats a failed load as cold-start, never fatal.
  HOLO_RETURN_NOT_OK(HOLO_FAILPOINT("io.snapshot.load"));
  if (ctx == nullptr || ctx->dataset == nullptr || ctx->dcs == nullptr) {
    return Status::InvalidArgument("restore requires an opened session");
  }
  std::string owned;
  std::shared_ptr<MmapReader> mapping;
  std::string_view bytes;
  if (options.lazy_graph) {
    HOLO_ASSIGN_OR_RETURN(mapped, MmapReader::Map(path));
    mapping = std::move(mapped);
    bytes = mapping->data();
  } else {
    std::ifstream in(path, std::ios::binary | std::ios::ate);
    if (!in) return Status::NotFound("cannot open snapshot: " + path);
    // Size the buffer from the file length and read straight into it —
    // snapshots run to tens of MiB and a stringstream detour would hold
    // the bytes twice.
    std::streamoff size = in.tellg();
    if (size < 0) return Status::Internal("cannot stat snapshot: " + path);
    owned.resize(static_cast<size_t>(size));
    in.seekg(0);
    in.read(owned.data(), size);
    if (in.gcount() != size) {
      return Status::Internal("cannot read snapshot: " + path);
    }
    bytes = owned;
  }

  if (bytes.size() < kHeaderBytes + kChecksumBytes) {
    return Status::ParseError("snapshot truncated");
  }
  if (std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) != 0) {
    return Status::ParseError("not a SessionSnapshot file: " + path);
  }
  BinaryReader header(bytes.substr(4, 4));
  uint32_t version = 0;
  HOLO_RETURN_NOT_OK(header.ReadU32(&version));
  if (version == kSnapshotFormatV1) return LoadV1(bytes, ctx);
  if (version == kSnapshotFormatV2 || version == kSnapshotFormatVersion) {
    return LoadSectioned(bytes, version, std::move(mapping), path, ctx,
                         options);
  }
  return Status::InvalidArgument(
      "snapshot format version mismatch: file has v" +
      std::to_string(version) + ", this build reads v" +
      std::to_string(kSnapshotFormatVersion) + " (and v" +
      std::to_string(kSnapshotFormatV2) + ", v" +
      std::to_string(kSnapshotFormatV1) + ")");
}

}  // namespace holoclean
