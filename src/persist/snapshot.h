#ifndef Q_PERSIST_SNAPSHOT_H_
#define Q_PERSIST_SNAPSHOT_H_

#include <string>
#include <string_view>
#include <vector>

#include "feedback/feedback_log.h"
#include "graph/feature.h"
#include "graph/search_graph.h"
#include "persist/format.h"
#include "relational/catalog.h"
#include "util/env.h"
#include "util/result.h"
#include "util/status.h"

namespace q::persist {

// Serialization of QSystem's durable core (docs/persistence.md): the
// catalog + schemas, the search graph with its association edges and
// revision, the learned weight vector with its revision, and the
// feedback log. One snapshot file, one checksummed
// section per structure, written atomically (temp file -> fsync ->
// rename -> dir fsync) through an injectable util::Env.
//
// This layer is mechanism only: encode, frame, verify, decode. The
// recovery *policy* — which sections to keep when others are damaged —
// is the caller's (QSystem::OpenFromSnapshot's recovery ladder).

// The snapshot file inside a snapshot directory.
std::string SnapshotFilePath(const std::string& dir);

// Borrowed pointers to the structures a save serializes. Caller
// guarantees quiescence (no concurrent mutation) for the duration.
struct SnapshotState {
  const relational::Catalog* catalog = nullptr;
  const graph::FeatureSpace* space = nullptr;
  const graph::SearchGraph* graph = nullptr;
  const graph::WeightVector* weights = nullptr;
  const feedback::FeedbackLog* log = nullptr;
};

// Writes a snapshot of `state` into `dir` atomically: stage every
// section into "<dir>/snapshot.qs.tmp", fsync it, rename over
// "<dir>/snapshot.qs", fsync the directory. A crash at any point leaves
// either the previous snapshot intact or (first save) no snapshot — the
// kill-point harness in tests/persist_fault_test.cc proves this over
// every operation of the sequence. `env` defaults to the real
// filesystem.
util::Status SaveSnapshot(const SnapshotState& state, const std::string& dir,
                          util::Env* env = nullptr);

// A snapshot file read into memory with its frames verified. Payload
// views point into `file`; keep the struct alive while decoding.
struct LoadedSnapshot {
  std::string file;
  ParseOutcome outcome;

  // The verified payload for `tag`, or nullptr when that section is
  // missing or failed its checksum.
  const ParsedSection* Find(SectionTag tag) const {
    for (const ParsedSection& s : outcome.sections) {
      if (s.tag == static_cast<std::uint32_t>(tag)) return &s;
    }
    return nullptr;
  }
};

// Reads and frame-verifies "<dir>/snapshot.qs". NotFound when no
// snapshot exists; InvalidArgument/OutOfRange/Unimplemented when the
// header is unusable (nothing salvageable). Individual damaged sections
// do NOT fail this call — they are reported in outcome.section_errors
// and skipped, so the caller can degrade per-section.
util::Status ReadSnapshotFile(const std::string& dir, util::Env* env,
                              LoadedSnapshot* out);

// --- per-structure encode/decode ----------------------------------------
// Decoders validate everything (kinds, index bounds, feature ids, counts)
// and return Status on any inconsistency: even a payload that passes its
// CRC by collision cannot crash or corrupt the process.

std::string EncodeCatalog(const relational::Catalog& catalog);
util::Status DecodeCatalog(std::string_view payload,
                           relational::Catalog* out);

std::string EncodeFeatureSpace(const graph::FeatureSpace& space);
// `space` must be freshly constructed (only the pre-interned "default"
// feature); persisted initial weights override config-derived ones.
util::Status DecodeFeatureSpace(std::string_view payload,
                                graph::FeatureSpace* space);

std::string EncodeGraph(const graph::SearchGraph& graph);
// `num_features` bounds the feature ids edges may reference (the decoded
// feature space's size). `out` must be empty.
util::Status DecodeGraph(std::string_view payload, std::size_t num_features,
                         graph::SearchGraph* out);

std::string EncodeWeights(const graph::WeightVector& weights);
util::Status DecodeWeights(std::string_view payload, std::size_t num_features,
                           graph::WeightVector* out);

std::string EncodeFeedback(const feedback::FeedbackLog& log);
util::Status DecodeFeedback(std::string_view payload,
                            feedback::FeedbackLog* out);

// --- load report ----------------------------------------------------------
// Per-section outcome of QSystem::OpenFromSnapshot, for callers that want
// to know how much state survived and log it.
struct SnapshotLoadReport {
  // True when every section decoded and was applied: the restored system
  // is bit-identical (at quiescence) to the one that saved.
  bool complete() const {
    return !cold_start && header.ok() && catalog.ok() && feature_space.ok() &&
           graph.ok() && weights.ok() && feedback.ok();
  }

  // The snapshot was unusable (or damaged beyond the catalog): the
  // system came up empty, as if newly constructed.
  bool cold_start = false;
  // Degraded weights path: values were rebuilt by replaying the
  // persisted feedback log instead of being restored directly.
  bool weights_replayed = false;

  util::Status header;
  util::Status catalog;
  util::Status feature_space;
  util::Status graph;
  util::Status weights;
  util::Status feedback;

  // Human-readable degradation notes ("associations lost; re-run
  // alignment", frame-level section errors, ...).
  std::vector<std::string> notes;

  // One-line-per-section summary for logs.
  std::string Summary() const;
};

}  // namespace q::persist

#endif  // Q_PERSIST_SNAPSHOT_H_
