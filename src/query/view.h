#ifndef Q_QUERY_VIEW_H_
#define Q_QUERY_VIEW_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "query/conjunctive_query.h"
#include "query/executor.h"
#include "query/query_graph.h"
#include "query/ranked_union.h"
#include "steiner/top_k.h"
#include "util/result.h"
#include "util/status.h"

namespace q::query {

struct ViewConfig {
  steiner::TopKConfig top_k;
  QueryGraphOptions query_graph;
  ExecutorOptions executor;
  // Similarity-edge cost threshold for output-schema unification (t of
  // Sec. 2.2).
  double union_similarity_threshold = 2.0;
};

// One search's complete observable output, published as an immutable unit
// (the async refresh contract's "no read ever mixes generations"):
// trees, the queries compiled from them, and the ranked rows — all from
// the same search, so rows' query_index values always index `queries`
// and `trees` consistently. `search_serial` is the view's monotone
// per-search counter, stamped at publication (0 in an unpublished or
// empty snapshot), letting readers assert publication monotonicity.
struct ViewSnapshot {
  std::vector<steiner::SteinerTree> trees;
  std::vector<ConjunctiveQuery> queries;
  RankedResults results;
  std::uint64_t search_serial = 0;
};

// An epoch-tagged read of a view (see core::AsyncRefreshScheduler):
// `state` is the last committed snapshot — held alive by the shared_ptr
// for as long as the reader keeps it, even across concurrent repairs —
// `generation` the staleness epoch the output was last validated at
// (repaired, or proven unchanged by a re-cost that moved nothing), and
// `stale` whether base state has moved past that epoch without the view
// having been revalidated yet.
struct ViewResult {
  std::shared_ptr<const ViewSnapshot> state;
  std::uint64_t generation = 0;
  bool stale = false;
};

// A persistent keyword-query view (Sec. 2.3): the user's ongoing
// information need. Holds the latest query graph, top-k trees, compiled
// queries, and ranked results; Refresh() recomputes everything against
// the current search graph and weights (called after feedback updates or
// new-source registration).
//
// Refresh() builds the query graph (BuildQueryGraph), then searches it
// (BuildSearchSnapshot: top-k Steiner search, tree compilation,
// execution and ranked union) and publishes the result whole
// (PublishSnapshot). The RefreshEngine runs the same steps beside the
// view, skipping the build when only weights changed (the query graph's
// shape does not depend on them), and installs the result whole
// (ReplaceQueryGraph, then PublishSnapshot); its refreshes produce
// bit-identical results (the determinism contract of
// docs/query_engine.md).
class TopKView {
 public:
  TopKView(std::vector<std::string> keywords, ViewConfig config)
      : keywords_(std::move(keywords)), config_(config) {}

  util::Status Refresh(const graph::SearchGraph& base,
                       const relational::Catalog& catalog,
                       const text::TextIndex& index,
                       graph::CostModel* model,
                       const graph::WeightVector& weights);

  // Makes `next` the view's query graph and returns the one it replaces,
  // so the caller chooses where that graph's teardown runs. Not safe
  // against a concurrent reader of query_graph().
  QueryGraph ReplaceQueryGraph(QueryGraph next);

  // Runs the search/compile/execute/union pipeline against `query_graph`
  // — the view's own query_graph(), or a graph staged for it that is not
  // installed yet — with this view's config, and returns the resulting
  // snapshot WITHOUT publishing it (state_ and the serial counter are
  // untouched; the returned snapshot carries search_serial 0). `shared_engine`, when non-null, must hold a CSR
  // snapshot of (query_graph.graph, weights), or `pin` must: when `pin` is
  // non-null the whole enumeration runs against that pinned snapshot (a
  // repair's re-costed copy, not installed yet). Reads only this view's
  // config and read-only shared state, so distinct views' searches may run
  // concurrently, but not concurrently with anything that mutates the
  // graph it searches.
  util::Result<ViewSnapshot> BuildSearchSnapshot(
      const QueryGraph& query_graph, const relational::Catalog& catalog,
      const graph::WeightVector& weights,
      steiner::FastSteinerEngine* shared_engine,
      const steiner::SnapshotPin* pin) const;

  // Stamps `built` with the next search serial and swaps it in as the
  // published snapshot in one critical section, and marks the view
  // refreshed. `built` must be a BuildSearchSnapshot result over the
  // view's current query graph.
  void PublishSnapshot(ViewSnapshot built);

  const std::vector<std::string>& keywords() const { return keywords_; }
  const ViewConfig& config() const { return config_; }
  const QueryGraph& query_graph() const { return query_graph_; }

  // The view's output state is double-buffered: a search builds the next
  // ViewSnapshot off to the side and PublishSnapshot swaps it in
  // atomically, so a reader holding Snapshot() keeps a complete,
  // internally consistent result set while a concurrent repair publishes
  // the next one. Snapshot() is the only accessor safe against a
  // concurrent publication; the reference accessors below read through
  // the current buffer and require external quiescence (no repair in
  // flight), which every synchronous path has.
  std::shared_ptr<const ViewSnapshot> Snapshot() const {
    std::lock_guard<std::mutex> lock(state_mu_);
    return state_;
  }
  const std::vector<steiner::SteinerTree>& trees() const {
    return state_->trees;
  }
  const std::vector<ConjunctiveQuery>& queries() const {
    return state_->queries;
  }
  const RankedResults& results() const { return state_->results; }
  bool refreshed() const { return refreshed_.load(std::memory_order_acquire); }

  // Cost of the k-th top-scoring answer: the alpha bound driving
  // Algorithm 2's neighborhood pruning. Infinity before the first refresh
  // or when fewer than k answers exist (any alignment could then enter
  // the top-k, so nothing may be pruned).
  double Alpha() const;

 private:
  std::vector<std::string> keywords_;
  ViewConfig config_;
  QueryGraph query_graph_;
  // Current published snapshot; swapped under state_mu_ by
  // PublishSnapshot. Starts non-null (empty) so the reference accessors
  // never dereference null before the first refresh. state_mu_ also
  // guards search_serial_:
  // PublishSnapshot stamps the serial and swaps the snapshot in ONE
  // critical section, so serial stamping can never be observed out of
  // step with snapshot publication.
  mutable std::mutex state_mu_;
  std::shared_ptr<const ViewSnapshot> state_ =
      std::make_shared<ViewSnapshot>();
  std::uint64_t search_serial_ = 0;
  std::atomic<bool> refreshed_{false};
};

}  // namespace q::query

#endif  // Q_QUERY_VIEW_H_
