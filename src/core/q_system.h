#ifndef Q_CORE_Q_SYSTEM_H_
#define Q_CORE_Q_SYSTEM_H_

#include <chrono>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <vector>

#include "align/aligner.h"
#include "align/view_context.h"
#include "core/async_refresh.h"
#include "core/refresh_engine.h"
#include "feedback/feedback_log.h"
#include "feedback/simulated_user.h"
#include "graph/cost_model.h"
#include "graph/graph_builder.h"
#include "graph/search_graph.h"
#include "learn/mira.h"
#include "match/mad_matcher.h"
#include "match/matcher.h"
#include "match/metadata_matcher.h"
#include "match/value_overlap.h"
#include "persist/snapshot.h"
#include "query/view.h"
#include "relational/catalog.h"
#include "text/text_index.h"
#include "util/env.h"
#include "util/result.h"
#include "util/shared_mutex.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace q::core {

enum class AlignStrategy { kExhaustive, kViewBased, kPreferential };

struct QSystemConfig {
  graph::CostModelConfig cost;
  query::ViewConfig view;
  learn::MiraConfig mira;
  match::MetadataMatcherConfig metadata;
  match::MadMatcherConfig mad;
  // Candidate alignments requested per attribute (the paper's Y).
  int top_y = 2;
  // Which matchers participate in alignment.
  bool use_metadata_matcher = true;
  bool use_mad_matcher = true;
  // Alignment-search strategy for new-source registration.
  AlignStrategy strategy = AlignStrategy::kViewBased;
  // PreferentialAligner budget (existing relations tried, 0 = all).
  std::size_t preferential_budget = 6;
  // When no view exists yet, fall back to exhaustive alignment on
  // registration (otherwise the source is added without associations).
  bool align_without_views = true;
  // Keep a value-overlap content index and use it as a pair filter.
  bool use_value_overlap_filter = false;
  std::size_t value_overlap_min = 1;
  // Worker threads for the query fast path (parallel Lawler expansion in
  // every view's top-k search): 0 = match the hardware, negative =
  // sequential. The pool never changes results, only latency (see
  // docs/query_engine.md).
  int steiner_threads = 0;
  // Sharded terminal-local search for every view's top-k (see
  // steiner::ShardedSearchConfig and docs/architecture.md, "Memory layout
  // and sharding"): each Lawler subproblem touches only the shards within
  // a proven radius of the view's keyword nodes, with verified escalation
  // keeping the output bit-identical to the unsharded solve. Never
  // changes results, only per-query memory traffic; worthwhile from
  // ~10^5 graph nodes up.
  bool sharded_search = false;
  // Relevance-scoped view refresh (alpha-neighborhood gating): let the
  // RefreshEngine skip views whose relevance certificate proves a weight
  // delta cannot change their output. Never changes results (see
  // docs/query_engine.md, "Relevance-scoped refresh"), only refresh
  // cost; off is the PR 3 delta-recost behavior.
  bool relevance_gating = true;
  // Async view refresh behind the feedback loop (docs/query_engine.md,
  // "Async refresh contract"): ApplyFeedback* returns once the weight
  // journals are appended and the relevance gate has classified views;
  // affected views are repaired in the background while reads keep
  // serving the last committed, epoch-tagged results (ReadView /
  // WaitViewFresh / DrainRefreshes below). At quiescence, results are
  // bit-identical to the synchronous mode. Off (default) keeps the
  // fully synchronous behavior: feedback returns only after every view
  // is repaired.
  bool async_refresh = false;
  // Worker threads for async repair tasks: 0 shares the steiner pool
  // (with a 1-thread fallback when that pool does not exist), > 0 gives
  // the scheduler a dedicated pool of that size.
  int async_repair_threads = 0;
};

// The Q system facade (Fig. 1): owns the catalog, text index, search
// graph, feature space/weights, matchers, aligners, learner, and views.
//
// Typical lifecycle:
//   QSystem q;
//   q.RegisterSource(src1); q.RegisterSource(src2);   // initial sources
//   q.RunInitialAlignment();                          // matcher bootstrap
//   auto view = q.CreateView({"plasma membrane", "pub title"});
//   q.RegisterAndAlignSource(new_src);                // maintenance mode
//   q.ApplyFeedback(*view, endorsed_tree);            // learning
class QSystem {
 public:
  explicit QSystem(QSystemConfig config = QSystemConfig());

  // --- sources ------------------------------------------------------------
  // Adds a source to the catalog, index, and search graph without running
  // any alignment (startup-time registration, Sec. 2.1).
  util::Status RegisterSource(std::shared_ptr<relational::DataSource> source);

  // Maintenance-mode registration (Sec. 3): adds the source, searches for
  // associations against live views using the configured strategy and
  // matchers, installs surviving alignments as association edges, and
  // refreshes all views. Returns aligner stats. In async mode it returns
  // once every view the source reaches is rebuilt, searched and
  // installed, so its ack leaves those views fresh; readers keep
  // answering from each view's committed snapshot until its install
  // (AsyncRefreshScheduler::NotifyStructuralChange).
  util::Result<align::AlignerStats> RegisterAndAlignSource(
      std::shared_ptr<relational::DataSource> source);

  // Runs the enabled matchers globally over the current catalog and
  // installs top-Y alignments (the Sec. 5.2 bootstrap).
  util::Status RunInitialAlignment();

  // Installs externally computed candidates as association edges.
  util::Status AddAssociations(
      const std::vector<match::AlignmentCandidate>& candidates);

  // --- views ----------------------------------------------------------------
  // Creates and refreshes a persistent top-k view for a keyword query.
  util::Result<std::size_t> CreateView(std::vector<std::string> keywords);

  // The view `id` names; aborts with a message when it names none
  // (QueryView returns InvalidArgument instead).
  query::TopKView& view(std::size_t id) {
    Q_CHECK_MSG(id < views_.size(), "no such view: " << id);
    return *views_[id];
  }
  const query::TopKView& view(std::size_t id) const {
    Q_CHECK_MSG(id < views_.size(), "no such view: " << id);
    return *views_[id];
  }
  std::size_t num_views() const { return views_.size(); }

  // Refreshes every view through the batched RefreshEngine: one CSR
  // snapshot reconciliation per view per generation (weight-only updates
  // re-cost in place), searches fanned out across the steiner pool.
  // Output is bit-identical to refreshing each view independently. In
  // async mode this is the sync barrier: it quiesces in-flight repairs
  // first and validates every view at a fresh epoch (retrying any view
  // whose background repair failed).
  util::Status RefreshAllViews();

  // Epoch-tagged, never-blocking read of a view's last committed output
  // (the async serving path; also valid in sync mode, where results are
  // never stale). The returned snapshot stays alive and internally
  // consistent for as long as the caller holds it, even across
  // concurrent repairs.
  query::ViewResult ReadView(std::size_t id) const;

  // Answers view `id`'s keyword query at its current serving pair and
  // returns the result — the concurrent query front end. While the pair
  // is the one the view's committed snapshot was searched at, the answer
  // is a copy of that snapshot; otherwise (a repair has re-costed the
  // view, or a rebuild's search has not landed) it runs a search against
  // the pair. Any number of QueryView calls may run in parallel with each
  // other AND with feedback (ApplyFeedback* / async repairs): each one
  // captures the atomic {pinned CSR, frozen weight copy} pair from the
  // view's refresh slot (RefreshEngine::SearchView), so it never reads the
  // live weight vector and never observes a half-repriced snapshot.
  // Structural operations (RegisterSource*, AddAssociations, CreateView,
  // RefreshAllViews) take the serving gate exclusively and briefly block
  // queries while they change what queries read. An async registration's
  // view rebuilds do not hold it: each view is rebuilt and searched
  // beside its slot, and only its keyword expansion (which interns
  // features) and its install hold the gate, briefly. Sync-mode
  // registrations, CreateView and RefreshAllViews still hold it across
  // their rebuilds and searches.
  //
  // The returned snapshot's trees/queries/results are bit-identical to a
  // search at the captured pair, and so to the view's published output at
  // quiescence (its serials are 0 — the result is this caller's, not a
  // published state). Under concurrent feedback the result is always
  // *some* consistent point in the repair timeline: baseline-before or
  // repaired-after, never a mix.
  util::Result<query::ViewSnapshot> QueryView(std::size_t id) const;

  // Async mode: blocks until view `id` reflects every feedback update
  // committed before this call, or `timeout` elapses (returns false).
  // Sync mode: views are always fresh; returns true.
  bool WaitViewFresh(std::size_t id, std::chrono::milliseconds timeout);

  // Async mode: waits for all queued repairs and returns the first
  // repair failure since the last successful sync barrier (stale views
  // behind a failure are retried by RefreshAllViews). Sync mode: no-op.
  util::Status DrainRefreshes();

  // The batched-refresh substrate (snapshot generations + stats).
  const RefreshEngine& refresh_engine() const { return refresh_; }

  // The async scheduler (null until the first CreateView in async mode).
  const AsyncRefreshScheduler* async_scheduler() const {
    return scheduler_.get();
  }

  // --- feedback -------------------------------------------------------------
  // The user endorsed the answer produced by `endorsed` in view
  // `view_id`: runs one MIRA update and refreshes views (Sec. 4 — "a
  // query that produces correct results is constrained to have a cost at
  // least as low as the top-ranked query result").
  util::Status ApplyFeedback(std::size_t view_id,
                             const steiner::SteinerTree& endorsed);

  // The user marked result row `row_index` of the view invalid: its
  // originating query must cost more than the best other query (Sec. 4
  // generalizes tuple feedback to the query tree via provenance).
  util::Status ApplyInvalidFeedback(std::size_t view_id,
                                    std::size_t row_index);

  // Ranking constraint: row `better_row` should be scored higher than
  // `worse_row` ("tuple t_x should be scored higher than t_y").
  util::Status ApplyRankingFeedback(std::size_t view_id,
                                    std::size_t better_row,
                                    std::size_t worse_row);

  // Simulated-expert convenience: endorse the cheapest gold-consistent
  // tree for the view (solving for one if the top-k has none). Returns
  // false if no gold-consistent tree exists at all.
  util::Result<bool> ApplyGoldFeedback(std::size_t view_id,
                                       const feedback::SimulatedUser& user);

  // --- persistence ----------------------------------------------------------
  // Writes the durable core (catalog + schemas, search graph with its
  // association edges and journal, weight vector + journal, feedback
  // log) into `dir` as one checksummed snapshot file, atomically (see
  // docs/persistence.md). Quiesces the async scheduler first so the
  // snapshot captures a consistent revision. Views are NOT persisted:
  // they are derived state, recreated lazily after a warm restart.
  // `env` defaults to the real filesystem.
  util::Status SaveSnapshot(const std::string& dir,
                            util::Env* env = nullptr);

  // Warm restart: constructs a QSystem from the snapshot in `dir`,
  // skipping RunInitialAlignment/MAD entirely — associations and learned
  // weights come from the snapshot; the text index is rebuilt from the
  // restored catalog (it is derived state). Views are not restored:
  // recreate them lazily with CreateView, which routes through the
  // RefreshEngine's classify-then-repair pipeline.
  //
  // Damage degrades per-section instead of failing (the recovery ladder
  // of docs/persistence.md): a corrupt weights section falls back to
  // replaying the persisted feedback log; a corrupt graph section keeps
  // the catalog and rebuilds the structural graph (associations lost); a
  // corrupt catalog — or an unusable header — degrades to a clean cold
  // start. Every degradation is reported in `report` (optional), never a
  // crash. Returns non-OK only when no QSystem can be produced at all
  // (e.g. no snapshot file: NotFound).
  static util::Result<std::unique_ptr<QSystem>> OpenFromSnapshot(
      const std::string& dir, QSystemConfig config = QSystemConfig(),
      util::Env* env = nullptr, persist::SnapshotLoadReport* report = nullptr);

  // --- accessors --------------------------------------------------------------
  const relational::Catalog& catalog() const { return catalog_; }
  const graph::SearchGraph& search_graph() const { return graph_; }
  graph::SearchGraph& mutable_search_graph() { return graph_; }
  const graph::WeightVector& weights() const { return weights_; }
  graph::WeightVector& mutable_weights() { return weights_; }
  graph::CostModel& cost_model() { return model_; }
  graph::FeatureSpace& feature_space() { return space_; }
  const text::TextIndex& text_index() const { return index_; }
  const QSystemConfig& config() const { return config_; }
  match::Matcher* metadata_matcher() { return metadata_matcher_.get(); }
  match::Matcher* mad_matcher() { return mad_matcher_.get(); }
  const feedback::FeedbackLog& feedback_log() const { return log_; }

 private:
  util::Result<align::AlignerStats> AlignAgainstViews(
      const relational::DataSource& source);
  // Lazily creates the shared top-k thread pool (first view creation) per
  // QSystemConfig::steiner_threads and wires it into config_.view.
  void EnsureSteinerPool();
  // Lazily creates the async scheduler (first view creation, async mode).
  void EnsureScheduler();
  // Implementations for callers already holding feedback_mu_ (the public
  // wrappers lock; compound operations like RegisterAndAlignSource lock
  // once and compose these).
  util::Status RegisterSourceLocked(
      std::shared_ptr<relational::DataSource> source);
  util::Status AddAssociationsLocked(
      const std::vector<match::AlignmentCandidate>& candidates);
  util::Status RefreshAllViewsLocked();
  // Post-MIRA refresh: async mode acks via the scheduler, sync mode
  // refreshes in line.
  util::Status RefreshAfterFeedbackLocked();
  // Post-registration refresh: async mode runs the scheduler's structural
  // round (NotifyStructuralChange — views whose structural certificate
  // proves the registration irrelevant are never touched, failed-
  // certificate views are rebuilt, searched and installed before it
  // returns); sync mode refreshes everything in line. Caller holds
  // feedback_mu_ only (the scheduler takes the serving gate itself
  // around the steps that need it).
  util::Status RefreshAfterStructuralLocked();
  // Adds/removes per-matcher missing-vote penalty features so every
  // association edge carries, for each enabled matcher, either its
  // confidence bin or the missing penalty (see Sec. 3.4 discussion in
  // cost_model.h).
  void ReconcileMissingMatcherFeatures();
  std::vector<match::Matcher*> EnabledMatchers();
  align::AlignContext ContextFromView(const query::TopKView& view) const;
  // Appends one feedback record carrying the coalesced weight movement
  // since `revision_before` (captured from weights_.revision() before the
  // MIRA update), so the persisted log can replay feedback
  // deterministically during degraded recovery.
  void RecordFeedbackLocked(feedback::FeedbackKind kind,
                            const std::vector<std::string>& keywords,
                            std::uint64_t revision_before);
  // OpenFromSnapshot's decode + recovery-ladder body.
  util::Status LoadFromSnapshotLocked(const persist::LoadedSnapshot& loaded,
                                      persist::SnapshotLoadReport* report);

  QSystemConfig config_;
  // Serializes every base-state mutation (feedback, registration,
  // association installation, view creation, sync barriers) against each
  // other and against the async scheduler's classification step. Reads
  // (ReadView / accessors at quiescence) never take it.
  std::mutex feedback_mu_;
  // The serving gate: QueryView / ReadView / WaitViewFresh hold it shared;
  // operations that restructure what queries read lock-free — views_
  // growth, engine-slot rebuilds, catalog/index mutation, feature
  // interning, scheduler creation — hold it exclusively
  // (RegisterSourceLocked, AddAssociationsLocked, CreateView,
  // RefreshAllViewsLocked, and, via the pointer handed to
  // EnsureScheduler, the scheduler's serial-repair branch and the
  // expansions and installs of a structural round). Pure weight-delta feedback
  // deliberately does NOT take it: searches price against their captured
  // frozen weights, so MIRA updates and in-place repairs run concurrently
  // with queries. Lock order: feedback_mu_ -> serve_mu_ -> (engine locks);
  // never hold serve_mu_ while blocking on repairs (see WaitViewFresh).
  mutable util::SharedMutex serve_mu_;
  // Shared by all views' top-k searches; must outlive views_.
  std::unique_ptr<util::ThreadPool> steiner_pool_;
  graph::FeatureSpace space_;
  graph::CostModel model_;
  graph::WeightVector weights_;
  relational::Catalog catalog_;
  graph::SearchGraph graph_;
  text::TextIndex index_;
  match::ValueOverlapIndex overlap_;
  std::unique_ptr<match::MetadataMatcher> metadata_matcher_;
  std::unique_ptr<match::MadMatcher> mad_matcher_;
  std::unique_ptr<align::Aligner> aligner_;
  learn::MiraLearner learner_;
  feedback::FeedbackLog log_;
  std::vector<std::unique_ptr<query::TopKView>> views_;
  // Parallel to views_: views_[i] is registered as refresh_ slot i.
  RefreshEngine refresh_;
  // Declared last so it is destroyed first: its destructor drains every
  // in-flight repair while the engine, views, and pools are still alive.
  std::unique_ptr<AsyncRefreshScheduler> scheduler_;
};

}  // namespace q::core

#endif  // Q_CORE_Q_SYSTEM_H_
