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
// the same RunSearch, so rows' query_index values always index `queries`
// and `trees` consistently. `search_serial` is the view's monotone
// per-search counter (the same counter that stamps the relevance
// certificate), letting readers assert publication monotonicity.
struct ViewSnapshot {
  std::vector<steiner::SteinerTree> trees;
  std::vector<ConjunctiveQuery> queries;
  RankedResults results;
  // The relevance certificate of the search that produced this snapshot,
  // published as part of the same immutable unit so a reader can never
  // observe a certificate whose serial disagrees with search_serial
  // (certificate.serial == search_serial in every published snapshot; both
  // are 0 in an unpublished/empty one).
  steiner::RelevanceCertificate certificate;
  std::uint64_t search_serial = 0;
};

// An epoch-tagged read of a view (see core::AsyncRefreshScheduler):
// `state` is the last committed snapshot — held alive by the shared_ptr
// for as long as the reader keeps it, even across concurrent repairs —
// `generation` the staleness epoch the output was last validated at
// (repaired, or proven unchanged by the relevance gate), and `stale`
// whether base state has moved past that epoch without the view having
// been revalidated yet.
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
// A refresh has two phases, exposed separately so the batched
// RefreshEngine can skip or share work across views:
//   1. RebuildQueryGraph — re-expand the base search graph for this
//      view's keywords (graph copy + text-index matching). Skippable when
//      only weights changed and the query-graph topology is
//      weight-independent (see refresh_engine.h).
//   2. RunSearch — top-k Steiner search over the current query graph,
//      tree compilation, execution, and ranked union. Optionally served
//      from a caller-owned CSR snapshot.
// Refresh() runs both phases; batched and independent refreshes produce
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

  // Phase 1: rebuilds query_graph() from the base search graph. Mutates
  // `model`'s feature space (keyword-match feature interning), so batched
  // callers must run this phase serially across views.
  util::Status RebuildQueryGraph(const graph::SearchGraph& base,
                                 const text::TextIndex& index,
                                 graph::CostModel* model,
                                 const graph::WeightVector& weights);

  // Phase 2: recomputes trees/queries/results against the current query
  // graph. When `shared_engine` is non-null it must hold a CSR snapshot of
  // exactly (query_graph().graph, weights); its warm subproblem memo
  // never changes the output. Touches only this view and read-only shared
  // state, so distinct views' RunSearch calls may run concurrently.
  util::Status RunSearch(const relational::Catalog& catalog,
                         const graph::WeightVector& weights,
                         steiner::FastSteinerEngine* shared_engine = nullptr);

  // The read-only body of RunSearch: runs the search/compile/execute/union
  // pipeline against the current query graph and returns the resulting
  // snapshot WITHOUT publishing it (state_, certificate_, and the serial
  // counter are untouched; the returned snapshot carries serial 0 in both
  // certificate.serial and search_serial, a consistent pair). When `pin`
  // is non-null it must come from `shared_engine` and the whole
  // enumeration runs against that pinned CSR generation — this is the
  // concurrent serving path (core::RefreshEngine::SearchView), which may
  // run any number of BuildSearchSnapshot calls on one view concurrently
  // with each other and with pinned engine re-costs, but NOT concurrently
  // with RebuildQueryGraph/PropagateBaseEdges (those mutate query_graph_;
  // the serving gate upstream excludes them).
  util::Result<ViewSnapshot> BuildSearchSnapshot(
      const relational::Catalog& catalog, const graph::WeightVector& weights,
      steiner::FastSteinerEngine* shared_engine,
      const steiner::SnapshotPin* pin) const;

  // Delta alternative to phase 1 for in-place base-edge mutations (the
  // kEdgeMutated structural journal records): copies each listed base
  // edge over the cached query graph's copy of it. Sound because a query
  // graph built with the default infinite association_cost_threshold
  // copies every base edge id-for-id (keyword/value additions only append
  // after them), and keyword matching never reads edge state — so the
  // patched cached graph is bit-identical to what RebuildQueryGraph would
  // produce. Verifies before mutating and returns false — with the cached
  // graph untouched — when any edge cannot be propagated in place (no
  // cached graph yet, id out of range, or endpoints/kind/fixed_zero
  // drift); the caller must then fall back to a full rebuild.
  bool PropagateBaseEdges(const graph::SearchGraph& base,
                          const std::vector<graph::EdgeId>& edges);

  const std::vector<std::string>& keywords() const { return keywords_; }
  const ViewConfig& config() const { return config_; }
  const QueryGraph& query_graph() const { return query_graph_; }

  // The view's output state is double-buffered: RunSearch builds the next
  // ViewSnapshot off to the side and swaps it in atomically, so a reader
  // holding Snapshot() keeps a complete, internally consistent result set
  // while a concurrent repair publishes the next one. Snapshot() is the
  // only accessor safe against a concurrent RunSearch; the reference
  // accessors below read through the current buffer and require external
  // quiescence (no repair in flight), which every synchronous path has.
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

  // Relevance certificate of the last successful RunSearch, augmented
  // with every edge the ranked union's schema-unification reads (the
  // association edges incident to each compiled query's select-list
  // attributes), so it covers *all* weight-sensitive reads behind
  // trees()/queries()/results(). `certificate().serial` identifies the
  // search it describes; the RefreshEngine compares it against the serial
  // it committed to detect certificates from out-of-band refreshes.
  // Invalid until the first search and after every query-graph rebuild.
  const steiner::RelevanceCertificate& certificate() const {
    return certificate_;
  }

  // Cost of the k-th top-scoring answer: the alpha bound driving
  // Algorithm 2's neighborhood pruning. Infinity before the first refresh
  // or when fewer than k answers exist (any alignment could then enter
  // the top-k, so nothing may be pruned).
  double Alpha() const;

 private:
  std::vector<std::string> keywords_;
  ViewConfig config_;
  QueryGraph query_graph_;
  // Current published snapshot; swapped under state_mu_ by RunSearch.
  // Starts non-null (empty) so the reference accessors never dereference
  // null before the first refresh. state_mu_ also guards certificate_ and
  // certificate_serial_: RunSearch stamps the serial and publishes the
  // certificate and the snapshot in ONE critical section, so serial
  // stamping can never be observed out of step with snapshot publication.
  mutable std::mutex state_mu_;
  std::shared_ptr<const ViewSnapshot> state_ =
      std::make_shared<ViewSnapshot>();
  steiner::RelevanceCertificate certificate_;
  std::uint64_t certificate_serial_ = 0;
  std::atomic<bool> refreshed_{false};
};

}  // namespace q::query

#endif  // Q_QUERY_VIEW_H_
