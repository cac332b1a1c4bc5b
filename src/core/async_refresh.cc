#include "core/async_refresh.h"

#include <algorithm>
#include <utility>

namespace q::core {

AsyncRefreshScheduler::AsyncRefreshScheduler(
    RefreshEngine* engine, util::ThreadPool* pool, int dedicated_threads,
    const graph::SearchGraph* base, const relational::Catalog* catalog,
    const text::TextIndex* index, graph::CostModel* model,
    const graph::WeightVector* weights)
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
  std::unique_lock<std::mutex> lock(mu_);
  const std::uint64_t round_epoch = epoch_;
  // Copied into each search task, so it holds no reference to this frame.
  const auto record = [this, round_epoch, rebuild_counter](
                          std::size_t slot, const util::Status& status) {
    // Caller holds mu_.
    ++(stats_.*rebuild_counter);
    if (status.ok()) {
      validated_[slot] = round_epoch;
    } else if (repair_error_.ok()) {
      repair_error_ = status;
    }
  };
  for (std::size_t slot : slots) {
    cv_.wait(lock, [this] { return staged_in_flight_ < kMaxStagedViews; });
    lock.unlock();
    auto staged = std::make_shared<RefreshEngine::StagedRebuild>(
        engine_->StageRebuild(slot, *base_, *weights_));
    const util::Status expanded =
        engine_->ExpandStaged(staged.get(), *index_, model_);
    if (expanded.ok()) staged->weights = engine_->ServingWeights(*weights_);
    lock.lock();
    if (!expanded.ok()) {
      // The slot is untouched and keeps its published snapshot.
      record(slot, expanded);
      if (first_error.ok()) first_error = expanded;
      continue;
    }
    // The queue would coalesce a task submitted while one is pending. The
    // round drained it, and the owner's feedback lock keeps every other
    // submitter out, so this search is the slot's only task.
    Q_CHECK_MSG(!queue_.Busy(slot), "staged search queued behind a task");
    ++staged_in_flight_;
    queue_.Submit(slot, [this, staged, record] {
      engine_->SearchStaged(staged.get(), *catalog_);
      {
        std::lock_guard<std::mutex> task_lock(mu_);
        const util::Status searched = staged->snapshot.status();
        engine_->InstallStaged(staged.get(), *base_, *weights_);
        record(staged->slot, searched);
        --staged_in_flight_;
      }
      cv_.notify_all();
    });
  }
  cv_.wait(lock, [this] { return staged_in_flight_ == 0; });
  return first_error;
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
