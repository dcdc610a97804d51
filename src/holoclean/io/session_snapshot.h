#ifndef HOLOCLEAN_IO_SESSION_SNAPSHOT_H_
#define HOLOCLEAN_IO_SESSION_SNAPSHOT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "holoclean/core/pipeline_context.h"
#include "holoclean/io/binary_io.h"
#include "holoclean/io/codec.h"

namespace holoclean {

/// Current version of the SessionSnapshot binary format: the sectioned
/// layout (a section directory with per-section codecs and checksums, so
/// sections decode — and lazily materialize — independently) whose detect
/// section holds the repairable attributes and the noisy cells only. The
/// violation set is recomputed from the restored table. Snapshots written
/// by this build use it.
inline constexpr uint32_t kSnapshotFormatVersion = 3;

/// The same sectioned layout with the materialized violation pair list in
/// the detect section. Still readable (the list is parsed and discarded);
/// pinned by the golden fixture in tests/data/.
inline constexpr uint32_t kSnapshotFormatV2 = 2;

/// The original monolithic format. Still readable (its violation list is
/// parsed and discarded); pinned by the golden fixture in tests/data/.
inline constexpr uint32_t kSnapshotFormatV1 = 1;

struct SnapshotSaveOptions {
  /// Codec for the artifact sections (the meta and dictionary sections are
  /// always raw: they are tiny and every reader needs them first).
  SectionCodec codec = SectionCodec::kPacked;
};

struct SnapshotLoadOptions {
  /// Map the snapshot instead of reading it, and defer the factor-graph
  /// section — by far the largest — to first access: restore validates
  /// and commits everything else, installs a DeferredGraphSource, and the
  /// first stage that touches the graph (or Session::Save) materializes
  /// it via PipelineContext::EnsureGraph. A session restored at full
  /// completion never pays for the graph at all. Only v2 snapshots defer;
  /// v1 files load eagerly regardless.
  ///
  /// Trade-off: the deferred section's checksum and validation run at
  /// materialization time, so a corruption confined to the graph section
  /// surfaces as a Status from the first stage run instead of from the
  /// restore call.
  bool lazy_graph = false;
};

/// Fingerprint over every result-affecting configuration knob. Two configs
/// with equal fingerprints produce bit-identical pipelines on the same
/// inputs, so a snapshot is only loadable under a config whose fingerprint
/// matches the one it was saved with. `num_threads` is excluded: results
/// are thread-count invariant, so a snapshot saved on 1 thread restores
/// fine into a 16-thread session.
uint64_t ConfigFingerprint(const HoloCleanConfig& config);

/// Fingerprint over a denial-constraint set (its textual form under
/// `schema`). Order-sensitive: constraint indexes are baked into the
/// grounded factors.
uint64_t DcsFingerprint(const std::vector<DenialConstraint>& dcs,
                        const Schema& schema);

/// Fingerprint over the session's external-data and detector inputs:
/// dictionary names and record contents, the matching dependencies'
/// clauses and thresholds, and the extra detectors' names. Cached compile
/// and detect artifacts were derived from these, so a snapshot only
/// restores under matching inputs. (Detector *parameters* are opaque to
/// the engine and not covered; registering differently configured
/// detectors under the same names is on the caller.)
uint64_t ExternalDataFingerprint(const ExtDictCollection* dicts,
                                 const std::vector<MatchingDependency>* mds,
                                 const DetectorSuite* extra_detectors);

// --- Artifact codecs -------------------------------------------------------
// Each Serialize appends the artifact to the writer under the given
// SectionCodec; the matching Deserialize consumes it, validating every
// structural invariant the in-memory type asserts (so a corrupt payload
// fails with a Status instead of tripping a HOLO_CHECK). kRaw is the v1
// fixed-width wire form; kPacked is the stream-transposed varint/delta/RLE
// form (feature keys are decomposed into their WeightKeyCodec fields and
// each field encoded as its own adaptive stream).

/// Upper bounds the deserialized graph's ids are validated against:
/// domain value ids must fall inside the dictionary and factor dc_indexes
/// inside the constraint set. Defaults impose no bound (standalone codec
/// use); snapshot loading passes the session's real bounds.
struct FactorGraphBounds {
  size_t dict_size = SIZE_MAX;
  size_t num_dcs = SIZE_MAX;
};

void SerializeFactorGraph(const FactorGraph& graph, SectionCodec codec,
                          BinaryWriter* out);
Status DeserializeFactorGraph(BinaryReader* in, SectionCodec codec,
                              FactorGraph* graph,
                              const FactorGraphBounds& bounds = {});

void SerializeWeightStore(const WeightStore& weights, SectionCodec codec,
                          BinaryWriter* out);
Status DeserializeWeightStore(BinaryReader* in, SectionCodec codec,
                              WeightStore* weights);

void SerializeMarginals(const Marginals& marginals, SectionCodec codec,
                        BinaryWriter* out);
Status DeserializeMarginals(BinaryReader* in, SectionCodec codec,
                            Marginals* marginals);

// --- Whole-session snapshot ------------------------------------------------

/// Serializes the context's cached stage artifacts — everything stages
/// [0, valid_through) produced — into the versioned, checksummed
/// SessionSnapshot format and writes it to `path` (temp file + rename, so a
/// crash mid-save never leaves a half-written snapshot under `path`).
///
/// The snapshot carries the dirty table's cell values and the dictionary's
/// interned strings: feedback pins mutate the table and compilation interns
/// matched values, and the grounded graph references both by id.
/// Artifacts every compile execution rebuilds from scratch (co-occurrence
/// statistics, external-data matches, tuple groups) are not persisted, and
/// neither is the violation set, a pure function of the table.
///
/// A lazily restored context must materialize its graph before saving
/// (Session::Save does); a still-deferred graph is an InvalidArgument.
Status SaveSessionSnapshot(const PipelineContext& ctx, int valid_through,
                           const std::string& path,
                           const SnapshotSaveOptions& options = {});

/// Loads a snapshot into a freshly opened session's context. Validates,
/// in order: magic + format version, payload integrity (v1: whole-payload
/// checksum; v2: the section directory's checksum, the sections' exact
/// tiling of the payload, and each section's checksum), config
/// fingerprint, schema and row count, the DC set, the external-data and
/// detector inputs, and dictionary alignment (the dataset's interned
/// strings must be a prefix-compatible match of the snapshot's, which
/// pins value ids); then parses every artifact section into staging
/// storage. Only after everything parsed cleanly is anything committed —
/// on any error the context and the dataset are untouched.
///
/// Under options.lazy_graph the factor-graph section is exempt from the
/// eager checksum/parse pass: it stays mapped, and EnsureGraph runs the
/// identical validation on first access.
///
/// On success the context holds the persisted artifacts, the dirty table
/// holds the cell values from save time (re-applying any feedback pins),
/// and the returned value is the number of leading stages the snapshot
/// carries artifacts for (the session's new `valid_through`). When detect
/// is among them, the violation set is re-detected from the restored
/// table; the stored noisy cells stay as saved, since pins edit them.
Result<int> LoadSessionSnapshot(const std::string& path, PipelineContext* ctx,
                                const SnapshotLoadOptions& options = {});

}  // namespace holoclean

#endif  // HOLOCLEAN_IO_SESSION_SNAPSHOT_H_
