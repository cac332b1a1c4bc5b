#include "core/q_system.h"

#include <algorithm>

#include "util/logging.h"

namespace q::core {

QSystem::QSystem(QSystemConfig config)
    : config_(config),
      model_(&space_, config.cost),
      weights_(&space_),
      learner_(config.mira) {
  // Never adopt a pool pointer smuggled in via a copied config (it would
  // belong to another QSystem and could dangle); this system's own pool is
  // created lazily on first view creation, so instances that never answer
  // queries spawn no threads.
  config_.view.top_k.pool = nullptr;
  config_.view.top_k.sharded.enabled = config_.sharded_search;
  metadata_matcher_ =
      std::make_unique<match::MetadataMatcher>(config_.metadata);
  mad_matcher_ = std::make_unique<match::MadMatcher>(config_.mad);
  switch (config_.strategy) {
    case AlignStrategy::kExhaustive:
      aligner_ = std::make_unique<align::ExhaustiveAligner>();
      break;
    case AlignStrategy::kViewBased:
      aligner_ = std::make_unique<align::ViewBasedAligner>();
      break;
    case AlignStrategy::kPreferential:
      aligner_ = std::make_unique<align::PreferentialAligner>();
      break;
  }
  if (config_.use_value_overlap_filter) {
    auto filter = [this](const relational::AttributeId& a,
                         const relational::AttributeId& b) {
      return overlap_.CanJoin(a, b, config_.value_overlap_min);
    };
    metadata_matcher_->set_pair_filter(filter);
  }
}

void QSystem::EnsureSteinerPool() {
  if (steiner_pool_ != nullptr || config_.view.top_k.pool != nullptr) return;
  int threads = config_.steiner_threads;
  if (threads == 0) {
    unsigned hw = std::thread::hardware_concurrency();
    threads = hw > 1 ? static_cast<int>(hw) : -1;
  }
  if (threads > 1) {
    steiner_pool_ = std::make_unique<util::ThreadPool>(threads);
    config_.view.top_k.pool = steiner_pool_.get();
    // The same pool fans batched refreshes out across views.
    refresh_.set_pool(steiner_pool_.get());
  }
}

void QSystem::EnsureScheduler() {
  if (!config_.async_refresh || scheduler_ != nullptr) return;
  scheduler_ = std::make_unique<AsyncRefreshScheduler>(
      &refresh_, steiner_pool_.get(), config_.async_repair_threads, &graph_,
      &catalog_, &index_, &model_, &weights_, &serve_mu_);
}

std::vector<match::Matcher*> QSystem::EnabledMatchers() {
  std::vector<match::Matcher*> matchers;
  if (config_.use_metadata_matcher) matchers.push_back(metadata_matcher_.get());
  if (config_.use_mad_matcher) matchers.push_back(mad_matcher_.get());
  return matchers;
}

util::Status QSystem::RegisterSource(
    std::shared_ptr<relational::DataSource> source) {
  std::lock_guard<std::mutex> lock(feedback_mu_);
  return RegisterSourceLocked(std::move(source));
}

util::Status QSystem::RegisterSourceLocked(
    std::shared_ptr<relational::DataSource> source) {
  // Structural mutation: the catalog, index, and graph are read lock-free
  // by in-flight repairs, so quiesce them first (the feedback lock keeps
  // new ones from being scheduled meanwhile). Concurrent QueryView
  // searches read the same state lock-free; the exclusive serving gate
  // holds them off while it changes.
  if (scheduler_ != nullptr) scheduler_->Quiesce();
  std::unique_lock<util::SharedMutex> serve_lock(serve_mu_);
  Q_RETURN_NOT_OK(catalog_.AddSource(source));
  for (const auto& table : source->tables()) {
    index_.IndexTable(*table);
    if (config_.use_value_overlap_filter) overlap_.IndexTable(*table);
  }
  graph::AddSourceToGraph(*source, &model_, &graph_);
  return util::Status::OK();
}

util::Status QSystem::AddAssociations(
    const std::vector<match::AlignmentCandidate>& candidates) {
  std::lock_guard<std::mutex> lock(feedback_mu_);
  return AddAssociationsLocked(candidates);
}

util::Status QSystem::AddAssociationsLocked(
    const std::vector<match::AlignmentCandidate>& candidates) {
  if (scheduler_ != nullptr) scheduler_->Quiesce();
  // New association edges and their features (matcher bins, relation and
  // edge features, missing-vote penalties) are interned into space_ here.
  // A reader's served weights read every feature they never set through
  // space_ (WeightVector::At), and interning may reallocate its storage,
  // so the graph and feature-space mutation holds the exclusive gate —
  // the same rule RegisterSourceLocked and CreateView follow.
  std::unique_lock<util::SharedMutex> serve_lock(serve_mu_);
  for (const match::AlignmentCandidate& c : candidates) {
    auto na = graph_.FindAttributeNode(c.a);
    auto nb = graph_.FindAttributeNode(c.b);
    if (!na.has_value() || !nb.has_value()) {
      return util::Status::NotFound("alignment endpoints missing from graph: " +
                                    c.a.ToString() + " / " + c.b.ToString());
    }
    if (*na == *nb) continue;
    // AddAssociationEdge merges into an existing edge: only the new
    // matcher's confidence feature should be added then, so pass the bin
    // feature alone when the edge already exists.
    auto existing = graph_.FindAssociation(*na, *nb);
    if (existing.has_value()) {
      graph_.AddAssociationEdge(
          *na, *nb, model_.MatcherConfidenceFeature(c.matcher, c.confidence),
          graph::MatcherScore{c.matcher, c.confidence});
    } else {
      graph::FeatureVec features = model_.AssociationFeatures(
          c.matcher, c.confidence, c.a.RelationQualifiedName(),
          c.b.RelationQualifiedName(), c.PairKey());
      graph_.AddAssociationEdge(*na, *nb, std::move(features),
                                graph::MatcherScore{c.matcher, c.confidence});
    }
  }
  ReconcileMissingMatcherFeatures();
  return util::Status::OK();
}

void QSystem::ReconcileMissingMatcherFeatures() {
  // Sec. 3.4: each edge carries "a feature for the confidence value of
  // each schema matcher". An edge a matcher stayed silent about gets that
  // matcher's missing-penalty feature instead — otherwise silence would
  // read as free (maximum) confidence and single-matcher junk would
  // undercut alignments both matchers agree on.
  std::vector<std::string> matcher_names;
  if (config_.use_metadata_matcher) {
    matcher_names.emplace_back(metadata_matcher_->name());
  }
  if (config_.use_mad_matcher) {
    matcher_names.emplace_back(mad_matcher_->name());
  }
  for (graph::EdgeId e :
       graph_.EdgesOfKind(graph::EdgeKind::kAssociation)) {
    // Probe through const access first and rewrite the features (a
    // revision- and journal-bumping mutation) only when a feature
    // actually has to move: a no-op pass must not dirty every
    // association edge, or the delta refresh path would reprice the
    // whole graph for nothing.
    for (const std::string& name : matcher_names) {
      bool voted = false;
      for (const auto& p : graph_.edge_provenance(e)) {
        if (p.matcher == name) voted = true;
      }
      graph::FeatureId missing = model_.MatcherMissingFeature(name);
      double present = graph_.edge_features(e).ValueOf(missing);
      if (voted && present != 0.0) {
        graph::FeatureVec moved = graph_.edge_features(e);
        moved.Remove(missing);
        graph_.SetEdgeFeatures(e, std::move(moved));
      } else if (!voted && present == 0.0) {
        graph::FeatureVec moved = graph_.edge_features(e);
        moved.Add(missing, 1.0);
        graph_.SetEdgeFeatures(e, std::move(moved));
      }
    }
  }
}

util::Status QSystem::RunInitialAlignment() {
  std::lock_guard<std::mutex> lock(feedback_mu_);
  std::vector<const relational::Table*> tables;
  for (const auto& t : catalog_.AllTables()) tables.push_back(t.get());
  for (match::Matcher* matcher : EnabledMatchers()) {
    Q_ASSIGN_OR_RETURN(std::vector<match::AlignmentCandidate> candidates,
                       matcher->InduceAlignments(tables, config_.top_y));
    Q_RETURN_NOT_OK(AddAssociationsLocked(candidates));
  }
  return RefreshAllViewsLocked();
}

align::AlignContext QSystem::ContextFromView(
    const query::TopKView& view) const {
  return align::ContextFromView(view, graph_, space_, weights_,
                                config_.top_y, config_.preferential_budget);
}

util::Result<align::AlignerStats> QSystem::AlignAgainstViews(
    const relational::DataSource& source) {
  align::AlignerStats stats;
  std::vector<match::AlignmentCandidate> all;

  bool any_view = false;
  for (const auto& view : views_) {
    if (!view->refreshed()) continue;
    any_view = true;
    align::AlignContext ctx = ContextFromView(*view);
    for (match::Matcher* matcher : EnabledMatchers()) {
      Q_ASSIGN_OR_RETURN(
          std::vector<match::AlignmentCandidate> candidates,
          aligner_->Align(graph_, weights_, catalog_, source, ctx, matcher,
                          &stats));
      for (auto& c : candidates) all.push_back(std::move(c));
    }
  }
  if (!any_view && config_.align_without_views) {
    align::ExhaustiveAligner fallback;
    align::AlignContext ctx;
    ctx.top_y = config_.top_y;
    for (match::Matcher* matcher : EnabledMatchers()) {
      Q_ASSIGN_OR_RETURN(
          std::vector<match::AlignmentCandidate> candidates,
          fallback.Align(graph_, weights_, catalog_, source, ctx, matcher,
                         &stats));
      for (auto& c : candidates) all.push_back(std::move(c));
    }
  }
  Q_RETURN_NOT_OK(AddAssociationsLocked(
      match::TopYPerAttribute(std::move(all), config_.top_y)));
  return stats;
}

util::Result<align::AlignerStats> QSystem::RegisterAndAlignSource(
    std::shared_ptr<relational::DataSource> source) {
  std::lock_guard<std::mutex> lock(feedback_mu_);
  Q_RETURN_NOT_OK(RegisterSourceLocked(source));
  Q_ASSIGN_OR_RETURN(align::AlignerStats stats, AlignAgainstViews(*source));
  Q_RETURN_NOT_OK(RefreshAfterStructuralLocked());
  return stats;
}

util::Result<std::size_t> QSystem::CreateView(
    std::vector<std::string> keywords) {
  std::lock_guard<std::mutex> lock(feedback_mu_);
  // Registration grows the engine's slot table (invalidating concurrent
  // SearchView's slot reference), and the first refresh interns features:
  // both require the exclusive serving gate. Taking it before
  // EnsureScheduler also publishes scheduler_ to gate-holding readers.
  std::unique_lock<util::SharedMutex> serve_lock(serve_mu_);
  EnsureSteinerPool();
  EnsureScheduler();
  // Registration grows the engine's slot table and the initial refresh
  // interns features: both require quiescence in async mode. (Repair
  // tasks never take the serving gate, so draining under it is safe.)
  if (scheduler_ != nullptr) scheduler_->Quiesce();
  auto view = std::make_unique<query::TopKView>(std::move(keywords),
                                                config_.view);
  // Register-then-refresh keeps the new view's CSR snapshot warm for the
  // feedback loop; a failed initial refresh rolls the registration back.
  std::size_t slot = refresh_.RegisterView(view.get());
  util::Status status =
      refresh_.RefreshView(slot, graph_, catalog_, index_, &model_, weights_);
  if (!status.ok()) {
    refresh_.UnregisterLastView();
    return status;
  }
  if (scheduler_ != nullptr) scheduler_->TrackView(slot, view.get());
  views_.push_back(std::move(view));
  return views_.size() - 1;
}

util::Status QSystem::RefreshAllViews() {
  std::lock_guard<std::mutex> lock(feedback_mu_);
  return RefreshAllViewsLocked();
}

util::Status QSystem::RefreshAllViewsLocked() {
  // A full refresh may rebuild query graphs and replace slot engines:
  // exclusive gate. SyncBarrier relies on this caller-held gate instead
  // of taking it itself (shared_mutex is not recursive).
  std::unique_lock<util::SharedMutex> serve_lock(serve_mu_);
  if (scheduler_ != nullptr) return scheduler_->SyncBarrier();
  return refresh_.RefreshAll(graph_, catalog_, index_, &model_, weights_);
}

util::Status QSystem::RefreshAfterFeedbackLocked() {
  if (scheduler_ != nullptr) {
    // The ack path: journals are appended, the scheduler classifies and
    // queues repairs, and feedback returns without waiting for searches.
    scheduler_->NotifyBaseChanged();
    return util::Status::OK();
  }
  return RefreshAllViewsLocked();
}

util::Status QSystem::RefreshAfterStructuralLocked() {
  if (scheduler_ != nullptr) {
    // The onboarding ack path: every view is rebuilt, searched and
    // installed before it returns. NotifyStructuralChange takes the
    // serving gate itself around the expansions and installs, so this
    // caller must hold only feedback_mu_ here.
    return scheduler_->NotifyStructuralChange();
  }
  return RefreshAllViewsLocked();
}

query::ViewResult QSystem::ReadView(std::size_t id) const {
  // Unknown ids return an empty result (state == nullptr) rather than
  // UB, mirroring the Status the mutating APIs return. The shared gate
  // orders the scheduler_ check against CreateView's publication and
  // keeps views_ stable for the sync branch; the async path additionally
  // bounds-checks under the scheduler lock (its tracked set is what a
  // concurrent CreateView grows). Read() never blocks, so holding the
  // shared gate across it is safe.
  std::shared_lock<util::SharedMutex> serve_lock(serve_mu_);
  if (scheduler_ != nullptr) return scheduler_->Read(id);
  if (id >= views_.size()) return query::ViewResult{};
  query::ViewResult result;
  result.state = views_[id]->Snapshot();
  result.generation = refresh_.generation();
  result.stale = false;
  return result;
}

util::Result<query::ViewSnapshot> QSystem::QueryView(std::size_t id) const {
  std::shared_lock<util::SharedMutex> serve_lock(serve_mu_);
  if (id >= views_.size()) {
    return util::Status::InvalidArgument("no such view");
  }
  // View id == engine slot id: CreateView registers then appends, both
  // under the exclusive gate, so the mapping cannot skew while we hold
  // the shared one.
  return refresh_.SearchView(id, catalog_);
}

bool QSystem::WaitViewFresh(std::size_t id,
                            std::chrono::milliseconds timeout) {
  AsyncRefreshScheduler* scheduler = nullptr;
  {
    // Do NOT hold the gate across the blocking wait: the serial-repair
    // branch of NotifyBaseChanged needs it exclusively to perform the
    // very repair this waiter is waiting for. The pointer copy is safe —
    // once created, the scheduler lives until ~QSystem.
    std::shared_lock<util::SharedMutex> serve_lock(serve_mu_);
    if (scheduler_ == nullptr) return id < views_.size();
    scheduler = scheduler_.get();
  }
  return scheduler->WaitFresh(id, timeout);
}

util::Status QSystem::DrainRefreshes() {
  AsyncRefreshScheduler* scheduler = nullptr;
  {
    // Same pattern as WaitViewFresh: never block on repairs while
    // holding the gate.
    std::shared_lock<util::SharedMutex> serve_lock(serve_mu_);
    if (scheduler_ == nullptr) return util::Status::OK();
    scheduler = scheduler_.get();
  }
  return scheduler->Drain();
}

util::Status QSystem::ApplyFeedback(std::size_t view_id,
                                    const steiner::SteinerTree& endorsed) {
  std::lock_guard<std::mutex> lock(feedback_mu_);
  if (view_id >= views_.size()) {
    return util::Status::InvalidArgument("no such view");
  }
  query::TopKView& v = *views_[view_id];
  const std::uint64_t rev_before = weights_.revision();
  auto info = learner_.Update(v.query_graph().graph,
                              v.query_graph().keyword_nodes, endorsed,
                              &weights_);
  Q_RETURN_NOT_OK(info.status());
  RecordFeedbackLocked(feedback::FeedbackKind::kEndorse, v.keywords(),
                       rev_before);
  return RefreshAfterFeedbackLocked();
}

util::Status QSystem::ApplyInvalidFeedback(std::size_t view_id,
                                           std::size_t row_index) {
  std::lock_guard<std::mutex> lock(feedback_mu_);
  if (view_id >= views_.size()) {
    return util::Status::InvalidArgument("no such view");
  }
  query::TopKView& v = *views_[view_id];
  // Read through one snapshot: rows index queries by position, and a
  // concurrent repair publishing mid-call must not tear that pairing.
  auto state = v.Snapshot();
  if (row_index >= state->results.rows.size()) {
    return util::Status::OutOfRange("no such result row");
  }
  // Generalize the tuple to its originating query tree via provenance.
  std::size_t bad_query = state->results.rows[row_index].query_index;
  const steiner::SteinerTree& bad_tree = state->queries[bad_query].tree;
  // Target: the cheapest tree that is not the invalid one; the MIRA
  // margin then pushes the invalid tree's cost above it.
  const steiner::SteinerTree* target = nullptr;
  for (const auto& tree : state->trees) {
    if (!(tree == bad_tree)) {
      target = &tree;
      break;
    }
  }
  if (target == nullptr) {
    return util::Status::NotFound(
        "no alternative query to prefer over the invalid result");
  }
  const std::uint64_t rev_before = weights_.revision();
  auto info = learner_.UpdateAgainst(v.query_graph().graph, {bad_tree},
                                     *target, &weights_);
  Q_RETURN_NOT_OK(info.status());
  RecordFeedbackLocked(feedback::FeedbackKind::kInvalid, v.keywords(),
                       rev_before);
  return RefreshAfterFeedbackLocked();
}

util::Status QSystem::ApplyRankingFeedback(std::size_t view_id,
                                           std::size_t better_row,
                                           std::size_t worse_row) {
  std::lock_guard<std::mutex> lock(feedback_mu_);
  if (view_id >= views_.size()) {
    return util::Status::InvalidArgument("no such view");
  }
  query::TopKView& v = *views_[view_id];
  auto state = v.Snapshot();
  const auto& rows = state->results.rows;
  if (better_row >= rows.size() || worse_row >= rows.size()) {
    return util::Status::OutOfRange("no such result row");
  }
  const steiner::SteinerTree& better =
      state->queries[rows[better_row].query_index].tree;
  const steiner::SteinerTree& worse =
      state->queries[rows[worse_row].query_index].tree;
  if (better == worse) {
    return util::Status::InvalidArgument(
        "both rows come from the same query; ranking constraint is vacuous");
  }
  const std::uint64_t rev_before = weights_.revision();
  auto info = learner_.UpdateAgainst(v.query_graph().graph, {worse}, better,
                                     &weights_);
  Q_RETURN_NOT_OK(info.status());
  RecordFeedbackLocked(feedback::FeedbackKind::kRanking, v.keywords(),
                       rev_before);
  return RefreshAfterFeedbackLocked();
}

util::Result<bool> QSystem::ApplyGoldFeedback(
    std::size_t view_id, const feedback::SimulatedUser& user) {
  std::lock_guard<std::mutex> lock(feedback_mu_);
  if (view_id >= views_.size()) {
    return util::Status::InvalidArgument("no such view");
  }
  query::TopKView& v = *views_[view_id];
  auto state = v.Snapshot();
  auto endorsed =
      user.EndorseForLearning(v.query_graph(), state->trees, weights_);
  if (!endorsed.has_value()) return false;
  // Sec. 4: the user "may notice a few results that seem either clearly
  // correct or clearly implausible". The expert marks the endorsed answer
  // valid and the non-gold answers in the visible list invalid; other
  // gold-consistent answers (e.g. roundabout joins over correct edges)
  // are also correct, so they are not used as counter-examples —
  // otherwise feedback on one query would penalize alignments another
  // query endorses.
  std::vector<steiner::SteinerTree> implausible;
  std::vector<steiner::SteinerTree> valid;
  for (const steiner::SteinerTree& t : state->trees) {
    if (user.IsGoldConsistent(v.query_graph(), t)) {
      valid.push_back(t);
    } else {
      implausible.push_back(t);
    }
  }
  // One update per valid answer the user marked ("annotating each query
  // answer"): any gold edge shared between a valid tree and an
  // implausible one cancels out of the constraint difference, so only the
  // implausible tree's distinguishing (junk) edges are pushed up.
  const std::uint64_t rev_before = weights_.revision();
  auto info = learner_.UpdateAgainst(v.query_graph().graph, implausible,
                                     *endorsed, &weights_);
  Q_RETURN_NOT_OK(info.status());
  for (const steiner::SteinerTree& t : valid) {
    if (t == *endorsed) continue;
    auto extra =
        learner_.UpdateAgainst(v.query_graph().graph, implausible, t,
                               &weights_);
    Q_RETURN_NOT_OK(extra.status());
  }
  RecordFeedbackLocked(feedback::FeedbackKind::kGold, v.keywords(),
                       rev_before);
  Q_RETURN_NOT_OK(RefreshAfterFeedbackLocked());
  return true;
}

void QSystem::RecordFeedbackLocked(feedback::FeedbackKind kind,
                                   const std::vector<std::string>& keywords,
                                   std::uint64_t revision_before) {
  feedback::FeedbackEvent event;
  event.kind = kind;
  event.keywords = keywords;
  event.weight_revision = weights_.revision();
  std::vector<graph::FeatureDelta> deltas;
  event.replayable = weights_.DeltaSince(revision_before, &deltas);
  if (event.replayable) {
    graph::CoalesceFeatureDeltas(&deltas);
    event.deltas = std::move(deltas);
  }
  log_.Record(std::move(event));
}

util::Status QSystem::SaveSnapshot(const std::string& dir, util::Env* env) {
  std::lock_guard<std::mutex> lock(feedback_mu_);
  // Async repairs read the graph and weights lock-free; a consistent
  // snapshot requires them quiet, same as any structural mutation (the
  // feedback lock keeps new repairs from being scheduled meanwhile).
  if (scheduler_ != nullptr) scheduler_->Quiesce();
  persist::SnapshotState state;
  state.catalog = &catalog_;
  state.space = &space_;
  state.graph = &graph_;
  state.weights = &weights_;
  state.log = &log_;
  return persist::SaveSnapshot(state, dir, env);
}

util::Result<std::unique_ptr<QSystem>> QSystem::OpenFromSnapshot(
    const std::string& dir, QSystemConfig config, util::Env* env,
    persist::SnapshotLoadReport* report) {
  persist::SnapshotLoadReport scratch_report;
  if (report == nullptr) report = &scratch_report;
  *report = persist::SnapshotLoadReport{};

  persist::LoadedSnapshot loaded;
  util::Status read = persist::ReadSnapshotFile(dir, env, &loaded);
  if (read.IsNotFound()) {
    // No snapshot is not a degraded snapshot: the caller decides whether
    // to cold-start (and from what data).
    return read;
  }

  auto q = std::make_unique<QSystem>(std::move(config));
  if (!read.ok()) {
    // Header unusable (bad magic/CRC/version): nothing salvageable, so
    // the system comes up clean and empty — the bottom of the ladder.
    report->header = read;
    report->cold_start = true;
    util::Status skipped =
        util::Status::Internal("skipped: snapshot header unusable");
    report->catalog = skipped;
    report->feature_space = skipped;
    report->graph = skipped;
    report->weights = skipped;
    report->feedback = skipped;
    report->notes.push_back("cold start: " + read.ToString());
    return q;
  }

  std::lock_guard<std::mutex> lock(q->feedback_mu_);
  Q_RETURN_NOT_OK(q->LoadFromSnapshotLocked(loaded, report));
  return q;
}

util::Status QSystem::LoadFromSnapshotLocked(
    const persist::LoadedSnapshot& loaded,
    persist::SnapshotLoadReport* report) {
  for (const std::string& err : loaded.outcome.section_errors) {
    report->notes.push_back(err);
  }
  auto section_status = [&loaded](persist::SectionTag tag,
                                  util::Status decoded) {
    if (loaded.Find(tag) != nullptr) return decoded;
    return util::Status::NotFound(std::string(persist::SectionTagName(
                                      static_cast<std::uint32_t>(tag))) +
                                  " section missing or failed checksum");
  };
  auto skipped = [](const char* why) {
    return util::Status::Internal(std::string("skipped: ") + why);
  };

  // --- catalog: the anchor; nothing else is meaningful without it -------
  const persist::ParsedSection* sec =
      loaded.Find(persist::SectionTag::kCatalog);
  {
    // Decode into a scratch catalog so a mid-payload failure cannot leave
    // a half-populated one behind.
    relational::Catalog decoded;
    util::Status status =
        sec ? persist::DecodeCatalog(sec->payload, &decoded)
            : section_status(persist::SectionTag::kCatalog, util::Status::OK());
    report->catalog = status;
    if (!status.ok()) {
      report->cold_start = true;
      report->feature_space = skipped("catalog unavailable");
      report->graph = skipped("catalog unavailable");
      report->weights = skipped("catalog unavailable");
      report->feedback = skipped("catalog unavailable");
      report->notes.push_back("cold start: catalog section unrecoverable (" +
                              status.ToString() + ")");
      return util::Status::OK();
    }
    catalog_ = std::move(decoded);
  }
  // The text and value-overlap indexes are derived state: rebuild them
  // from the restored catalog (registration order is preserved, so the
  // rebuilt index is identical to the saved system's).
  index_.IndexCatalog(catalog_);
  if (config_.use_value_overlap_filter) {
    for (const auto& table : catalog_.AllTables()) {
      overlap_.IndexTable(*table);
    }
  }

  // --- feedback log: independent of the sections below, and the weights
  // fallback needs it, so decode it early.
  sec = loaded.Find(persist::SectionTag::kFeedback);
  report->feedback = section_status(
      persist::SectionTag::kFeedback,
      sec ? persist::DecodeFeedback(sec->payload, &log_) : util::Status::OK());
  if (!report->feedback.ok()) {
    report->notes.push_back("feedback log lost (" +
                            report->feedback.ToString() + ")");
  }

  // --- feature space: every persisted graph feature id and weight slot
  // is an index into it; losing it invalidates both sections below.
  sec = loaded.Find(persist::SectionTag::kFeatureSpace);
  {
    util::Status status = section_status(persist::SectionTag::kFeatureSpace,
                                         util::Status::OK());
    if (sec != nullptr) {
      // Validate against a scratch space first: DecodeFeatureSpace
      // interns as it goes, and a partially-interned real space would
      // poison the cost model's feature ids.
      graph::FeatureSpace probe;
      status = persist::DecodeFeatureSpace(sec->payload, &probe);
      if (status.ok()) {
        status = persist::DecodeFeatureSpace(sec->payload, &space_);
      }
    }
    report->feature_space = status;
    if (!status.ok()) {
      report->graph = skipped("feature space unavailable");
      report->weights = skipped("feature space unavailable");
      // Structural edges (membership, declared FKs) are derivable from
      // the catalog; the learned capital is not.
      graph_ = graph::BuildSearchGraph(catalog_, &model_);
      report->notes.push_back(
          "feature space unrecoverable: structural graph rebuilt; "
          "associations and learned weights lost — re-run alignment and "
          "feedback");
      return util::Status::OK();
    }
  }

  // --- search graph (with association edges + journal) ------------------
  sec = loaded.Find(persist::SectionTag::kGraph);
  {
    graph::SearchGraph decoded;
    util::Status status =
        sec ? persist::DecodeGraph(sec->payload, space_.size(), &decoded)
            : section_status(persist::SectionTag::kGraph, util::Status::OK());
    report->graph = status;
    if (status.ok()) {
      graph_ = std::move(decoded);
    } else {
      graph_ = graph::BuildSearchGraph(catalog_, &model_);
      report->notes.push_back("graph section unrecoverable (" +
                              status.ToString() +
                              "): structural graph rebuilt; association "
                              "edges lost — re-run alignment");
    }
  }

  // --- weights (+ journal), falling back to feedback replay -------------
  sec = loaded.Find(persist::SectionTag::kWeights);
  {
    util::Status status =
        sec ? persist::DecodeWeights(sec->payload, space_.size(), &weights_)
            : section_status(persist::SectionTag::kWeights,
                             util::Status::OK());
    report->weights = status;
    if (!status.ok()) {
      report->notes.push_back("weights section unrecoverable (" +
                              status.ToString() + ")");
      if (report->feedback.ok() && !log_.empty()) {
        util::Status replay = log_.ReplayInto(&weights_);
        if (replay.ok()) {
          report->weights_replayed = true;
          report->notes.push_back(
              log_.complete_history()
                  ? "weights relearned by replaying the full feedback log"
                  : "weights partially relearned by replaying the retained "
                    "feedback window (older events were dropped by the "
                    "sliding window)");
        } else {
          report->notes.push_back("feedback replay failed (" +
                                  replay.ToString() +
                                  "); weights reset to initial");
        }
      } else {
        report->notes.push_back("weights reset to initial");
      }
    }
  }
  return util::Status::OK();
}

}  // namespace q::core
