#include "core/async_refresh.h"

#include <algorithm>
#include <utility>

namespace q::core {

AsyncRefreshScheduler::AsyncRefreshScheduler(
    RefreshEngine* engine, util::ThreadPool* pool, int dedicated_threads,
    const graph::SearchGraph* base, const relational::Catalog* catalog,
    const text::TextIndex* index, graph::CostModel* model,
    const graph::WeightVector* weights, util::SharedMutex* serve_gate)
    : engine_(engine),
      owned_pool_(pool == nullptr || dedicated_threads > 0
                      ? std::make_unique<util::ThreadPool>(
                            std::max(1, dedicated_threads))
                      : nullptr),
      pool_(owned_pool_ != nullptr ? owned_pool_.get() : pool),
      base_(base),
      catalog_(catalog),
      index_(index),
      model_(model),
      weights_(weights),
      serve_gate_(serve_gate),
      queue_(pool_) {}

AsyncRefreshScheduler::~AsyncRefreshScheduler() { queue_.Drain(); }

void AsyncRefreshScheduler::TrackView(std::size_t slot,
                                      query::TopKView* view) {
  std::lock_guard<std::mutex> lock(mu_);
  if (views_.size() <= slot) {
    views_.resize(slot + 1, nullptr);
    validated_.resize(slot + 1, 0);
  }
  views_[slot] = view;
  validated_[slot] = epoch_;
}

util::Status AsyncRefreshScheduler::NotifyBaseChanged() {
  return RunRound(&AsyncRefreshStats::feedback_rounds,
                  &AsyncRefreshStats::serial_repairs);
}

util::Status AsyncRefreshScheduler::NotifyStructuralChange() {
  return RunRound(&AsyncRefreshStats::structural_rounds,
                  &AsyncRefreshStats::structural_rebuilds);
}

util::Status AsyncRefreshScheduler::RunRound(
    std::size_t AsyncRefreshStats::*round_counter,
    std::size_t AsyncRefreshStats::*rebuild_counter) {
  std::vector<std::size_t> repairs;
  std::vector<std::size_t> rebuilds;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++(stats_.*round_counter);
    ++epoch_;
    // Every view a failure left stale is retried below (its slot never
    // committed), so the round reports only what fails from here on.
    repair_error_ = util::Status::OK();
    engine_->BeginAsyncRound(*base_, *weights_);
    for (std::size_t slot = 0; slot < views_.size(); ++slot) {
      if (queue_.Busy(slot)) {
        // A repair is in flight or parked: its engine slot is not safe to
        // classify from here, and it may have started from an older
        // frozen epoch. Queue another pass — the queue coalesces it away
        // if the pending one has not started yet. (Only weight-only
        // rounds find busy slots: structural changes quiesce first.)
        repairs.push_back(slot);
        continue;
      }
      switch (engine_->ClassifyViewForAsync(slot, *base_, *weights_)) {
        case AsyncViewClass::kUpToDate:
          validated_[slot] = epoch_;
          break;
        case AsyncViewClass::kRepair:
          repairs.push_back(slot);
          break;
        case AsyncViewClass::kRebuild:
          rebuilds.push_back(slot);
          break;
      }
    }
  }
  cv_.notify_all();

  util::Status staging_status = util::Status::OK();
  if (!rebuilds.empty()) {
    // Expansion interns features, which in-flight repairs read through
    // their weights' fallback: quiesce first. It is also what makes each
    // staged search its slot's only task (see RebuildViews).
    queue_.Drain();
    staging_status = RebuildViews(rebuilds, rebuild_counter);
  }

  // Freeze the weight vector for this epoch's repairs: the serving copy
  // prices like the live vector right now and never changes, so repairs
  // can read it while the feedback thread keeps applying MIRA updates to
  // the live one. The feedback lock is held by our caller, so the live
  // vector cannot move between the classification above and this copy.
  // Skipped when no view needs a repair. (Busy views are in `repairs`, so
  // any task that will re-run gets a fresh copy.)
  std::shared_ptr<const graph::WeightVector> frozen =
      repairs.empty() ? nullptr : engine_->ServingWeights(*weights_);
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (frozen != nullptr) frozen_weights_ = std::move(frozen);
    for (std::size_t slot : repairs) {
      ++stats_.repairs_scheduled;
      queue_.Submit(slot, [this, slot] { RepairOne(slot); });
    }
  }
  // Wakes WaitFresh callers on a staging failure recorded above.
  cv_.notify_all();
  return staging_status;
}

util::Status AsyncRefreshScheduler::RebuildViews(
    const std::vector<std::size_t>& slots,
    std::size_t AsyncRefreshStats::*rebuild_counter) {
  util::Status first_error = util::Status::OK();
  std::uint64_t round_epoch = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    round_epoch = epoch_;
  }
  const auto record = [&](std::size_t slot, const util::Status& status,
                          bool validated) {
    // Caller holds mu_.
    ++(stats_.*rebuild_counter);
    if (validated) validated_[slot] = round_epoch;
    if (!status.ok() && repair_error_.ok()) repair_error_ = status;
  };

  // Staged views whose search has not been installed yet, oldest first.
  std::vector<std::unique_ptr<StagedSearch>> staged;
  // Moves every staged view whose search has landed out of `staged`.
  const auto take_landed = [&] {
    std::vector<std::unique_ptr<StagedSearch>> landed;
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (auto& s : staged) {
        if (s->landed) landed.push_back(std::move(s));
      }
    }
    staged.erase(std::remove(staged.begin(), staged.end(), nullptr),
                 staged.end());
    return landed;
  };
  // Installs `landed`; the caller holds the exclusive serving gate. What
  // the installs replace stays in `landed` until the caller frees it,
  // after releasing the gate.
  const auto install =
      [&](const std::vector<std::unique_ptr<StagedSearch>>& landed) {
        if (landed.empty()) return;
        std::lock_guard<std::mutex> lock(mu_);
        for (const auto& s : landed) {
          const util::Status searched = s->rebuild.snapshot.status();
          engine_->InstallStaged(&s->rebuild, *base_, *weights_);
          record(s->rebuild.slot, searched, /*validated=*/searched.ok());
        }
      };
  // Waits for a search to land and installs every landed view in an
  // exclusive section of its own.
  const auto await_and_install = [&] {
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [&] {
        for (const auto& s : staged) {
          if (s->landed) return true;
        }
        return false;
      });
    }
    std::vector<std::unique_ptr<StagedSearch>> landed = take_landed();
    {
      std::unique_lock<util::SharedMutex> serve_lock = LockServeGate();
      install(landed);
    }
    cv_.notify_all();
  };

  for (std::size_t slot : slots) {
    while (staged.size() >= kMaxStagedViews) await_and_install();
    auto s = std::make_unique<StagedSearch>();
    s->rebuild = engine_->StageRebuild(slot, *base_, *weights_);
    // One exclusive section installs every view whose search has landed
    // and expands this one. Each release of the gate wakes every waiting
    // reader, and on a host with more runnable threads than cores the
    // woken readers take the writer's core, so a round pays that once
    // per view instead of twice.
    std::vector<std::unique_ptr<StagedSearch>> landed = take_landed();
    util::Status expanded;
    {
      std::unique_lock<util::SharedMutex> serve_lock = LockServeGate();
      install(landed);
      expanded = engine_->ExpandStaged(&s->rebuild, *index_, model_);
    }
    if (!landed.empty()) cv_.notify_all();
    if (!expanded.ok()) {
      // The slot is untouched and keeps serving its committed snapshot.
      std::lock_guard<std::mutex> lock(mu_);
      record(slot, expanded, /*validated=*/false);
      if (first_error.ok()) first_error = expanded;
      continue;
    }
    s->rebuild.weights = engine_->ServingWeights(*weights_);
    // The queue would coalesce a task submitted while one is pending. The
    // round drained it, and the owner's feedback lock keeps every other
    // submitter out, so this search is the slot's only task.
    Q_CHECK_MSG(!queue_.Busy(slot), "staged search queued behind a task");
    StagedSearch* search = s.get();
    queue_.Submit(slot, [this, search] {
      engine_->SearchStaged(&search->rebuild, *catalog_);
      {
        std::lock_guard<std::mutex> lock(mu_);
        search->landed = true;
      }
      cv_.notify_all();
    });
    staged.push_back(std::move(s));
    // What the installs replaced is freed here, outside the gate and
    // after this view's search is on its way.
    landed.clear();
  }
  while (!staged.empty()) await_and_install();
  return first_error;
}

std::unique_lock<util::SharedMutex> AsyncRefreshScheduler::LockServeGate() {
  return serve_gate_ != nullptr
             ? std::unique_lock<util::SharedMutex>(*serve_gate_)
             : std::unique_lock<util::SharedMutex>();
}

void AsyncRefreshScheduler::RepairOne(std::size_t slot) {
  std::uint64_t target = 0;
  std::shared_ptr<const graph::WeightVector> frozen;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.repairs_run;
    // Reconcile to the *latest* epoch, not the one that queued us: the
    // frozen copy is the latest weight vector, so a repair that absorbed
    // two feedback updates commits both — exactly what coalescing means.
    target = epoch_;
    frozen = frozen_weights_;
  }
  util::Status status =
      engine_->RepairViewAsync(slot, *base_, *catalog_, std::move(frozen));
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (status.ok()) {
      validated_[slot] = std::max(validated_[slot], target);
    } else if (repair_error_.ok()) {
      // Until the next round, which retries the view (its slot never
      // committed).
      repair_error_ = status;
    }
  }
  cv_.notify_all();
}

query::ViewResult AsyncRefreshScheduler::Read(std::size_t slot) const {
  std::lock_guard<std::mutex> lock(mu_);
  query::ViewResult result;
  // Untracked slots read as empty (state == nullptr), not UB.
  if (slot >= views_.size() || views_[slot] == nullptr) return result;
  result.state = views_[slot]->Snapshot();
  result.generation = validated_[slot];
  result.stale = validated_[slot] < epoch_;
  return result;
}

bool AsyncRefreshScheduler::WaitFresh(std::size_t slot,
                                      std::chrono::milliseconds timeout) {
  std::unique_lock<std::mutex> lock(mu_);
  if (slot >= views_.size() || views_[slot] == nullptr) return false;
  const std::uint64_t target = epoch_;
  cv_.wait_for(lock, timeout, [&] {
    return validated_[slot] >= target || !repair_error_.ok();
  });
  return validated_[slot] >= target;
}

util::Status AsyncRefreshScheduler::Drain() {
  queue_.Drain();
  std::lock_guard<std::mutex> lock(mu_);
  return repair_error_;
}

void AsyncRefreshScheduler::Quiesce() { queue_.Drain(); }

std::uint64_t AsyncRefreshScheduler::epoch() const {
  std::lock_guard<std::mutex> lock(mu_);
  return epoch_;
}

AsyncRefreshStats AsyncRefreshScheduler::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace q::core
