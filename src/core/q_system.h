#ifndef Q_CORE_Q_SYSTEM_H_
#define Q_CORE_Q_SYSTEM_H_

#include <chrono>
#include <memory>
#include <mutex>
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
#include "persist/snapshot.h"
#include "query/view.h"
#include "relational/catalog.h"
#include "text/text_index.h"
#include "util/env.h"
#include "util/result.h"
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
  // Whether a feedback ack waits for its round's repairs
  // (docs/query_engine.md, "View refresh"). Feedback, registrations and
  // full refreshes reach the views through one refresh round; with this
  // on, ApplyFeedback* returns once every view is classified, affected
  // views are repaired in the background while reads keep serving the
  // last committed, epoch-tagged results (ReadView / WaitViewFresh /
  // DrainRefreshes below), and a registration returns its round's
  // staging failures only. Off (default), each of them also drains the
  // round, so it returns with every view fresh and reports the round's
  // repair failures. The output at quiescence is the same either way.
  bool async_refresh = false;
  // Worker threads for repair tasks and staged searches: 0 shares the
  // steiner pool (with a 1-thread fallback when that pool does not
  // exist), > 0 gives the scheduler a dedicated pool of that size.
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
  // refreshes all views. Returns aligner stats. It returns once every
  // view the source reaches is rebuilt, searched and installed, so its
  // ack leaves those views fresh; readers keep reading each view's
  // published snapshot until its install
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
  // Creates a persistent top-k view for a keyword query, built through a
  // rebuild's staged steps (RefreshEngine::StagedRebuild). Its id reads
  // as unknown until the call returns it.
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

  // Runs a refresh round over every view and drains it, in either mode:
  // weight-only changes re-cost in place, structural ones rebuild, and a
  // view a failed repair left stale is retried. Output is bit-identical
  // to refreshing each view independently.
  util::Status RefreshAllViews();

  // Epoch-tagged, never-blocking read of a view's last committed output
  // (in sync mode no view is stale once the call that changed the base
  // state has returned, unless its round failed). The returned snapshot
  // stays alive and internally consistent for as long as the caller holds
  // it, even across concurrent repairs.
  query::ViewResult ReadView(std::size_t id) const;

  // View `id`'s answer — the concurrent query front end: a copy of
  // ReadView(id).state with search_serial 0 (the result is this caller's,
  // not a published state), or InvalidArgument for an unknown id. It
  // takes only the scheduler's and the view's locks, so any number of
  // QueryView calls run in parallel with each other and with feedback,
  // registrations and refresh rounds. A view's published snapshot changes
  // only when a search over a new query graph, CSR costs or weights has
  // succeeded and been installed whole, so under concurrent writes the
  // answer is baseline-before or repaired-after, never a mix, and at
  // quiescence it equals the view's output.
  util::Result<query::ViewSnapshot> QueryView(std::size_t id) const;

  // Blocks until view `id` reflects every base-state change committed
  // before this call, or `timeout` elapses (returns false). Unknown ids
  // return false at once.
  bool WaitViewFresh(std::size_t id, std::chrono::milliseconds timeout);

  // Waits for all queued repairs and returns the first failure of the
  // latest refresh round (stale views behind a failure are retried by the
  // next round, e.g. RefreshAllViews).
  util::Status DrainRefreshes();

  // The view-refresh substrate (its stats).
  const RefreshEngine& refresh_engine() const { return refresh_; }

  // The refresh scheduler, in either mode.
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
  // association edges and revision, weight vector and its revision,
  // feedback log) into `dir` as one checksummed snapshot file, atomically (see
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
  // recreate them lazily with CreateView.
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
  // Implementations for callers already holding feedback_mu_ (the public
  // wrappers lock; compound operations like RegisterAndAlignSource lock
  // once and compose these).
  util::Status RegisterSourceLocked(
      std::shared_ptr<relational::DataSource> source);
  util::Status AddAssociationsLocked(
      const std::vector<match::AlignmentCandidate>& candidates);
  util::Status RefreshAllViewsLocked();
  // Ends a round whose ack was `acked`: the synchronous mode, or `drain`,
  // waits for its repairs and returns its first failure. Caller holds
  // feedback_mu_.
  util::Status FinishRoundLocked(util::Status acked, bool drain = false);
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
  // association installation, view creation, full refreshes) against each
  // other and against the scheduler's rounds. Reads (ReadView, QueryView,
  // accessors at quiescence) never take it.
  std::mutex feedback_mu_;
  // Shared by all views' top-k searches (and by the scheduler's repairs
  // unless it has its own threads); must outlive views_.
  std::unique_ptr<util::ThreadPool> steiner_pool_;
  graph::FeatureSpace space_;
  graph::CostModel model_;
  graph::WeightVector weights_;
  relational::Catalog catalog_;
  graph::SearchGraph graph_;
  text::TextIndex index_;
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
