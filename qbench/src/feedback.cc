// feedback: MIRA feedback on live views. GBCO with 64 views over the trial
// keyword queries (k = 3), async refresh with 1 repair thread. One
// closed-loop writer endorses a tree below the top of a view's current
// top-k with ApplyFeedback (ranks 1 and 2 in turn, so every round is a
// real MIRA update; re-endorsing the top tree becomes a no-op once a view
// has converged), then waits for DrainRefreshes; the views come in an
// order that visits every view equally often. One closed-loop QueryView
// client runs beside it, on a seeded view sequence, until the writer is
// done. The writer's sequence is the same for every seed: each feedback
// moves the weights that every later search prices with, so a seeded
// sequence would make the whole run's work depend on the seed.
//
// Checks: the drained async system must equal a synchronous twin that
// replays the committed feedback log, and every view's fresh QueryView
// must equal its published output. The traced run replays each MIRA
// update on a copy of the weights before the real call; the copy must end
// equal to the live weights.

#include <algorithm>
#include <memory>

#include "core/q_system.h"
#include "data/gbco.h"
#include "learn/mira.h"
#include "schedule.h"
#include "workloads.h"

namespace qbench {
namespace {

constexpr std::size_t kViews = 64;
constexpr int kTopK = 3;
// Feedback rounds per --seconds second: 100 rounds at 10 s leaves ten
// samples beyond the p90s.
constexpr std::size_t kFeedbacksPerSecond = 10;
constexpr std::size_t kReaderListLength = 1 << 16;
constexpr std::uint64_t kWriterOrderSeed = 400;

std::unique_ptr<q::core::QSystem> SetUp(bool async, double* create_views_s,
                                        Report* report) {
  q::data::GbcoConfig data;
  data.base_rows = 150;
  const auto dataset = q::data::BuildGbco(data);
  q::core::QSystemConfig config;
  config.view.top_k.k = kTopK;
  config.view.query_graph.max_matches_per_keyword = 6;
  config.async_refresh = async;
  // The live system searches sequentially and repairs on 1 thread, so
  // the writer, the reader and the repairs leave a core spare. With 2
  // repair threads every core is busy while a round drains, and any CPU
  // the host takes away queues the reader behind the repairs: with two
  // competing busy loops the reader's p90 rose 2x with 2 repair threads
  // and not at all with 1. The synchronous twin runs after timing and
  // refreshes its views on a pool; pools never change results.
  config.steiner_threads = async ? -1 : 0;
  config.async_repair_threads = async ? 1 : 0;
  auto q = std::make_unique<q::core::QSystem>(config);
  for (const auto& src : dataset.catalog.sources()) {
    if (!q->RegisterSource(src).ok()) report->Fail("RegisterSource");
  }
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < kViews; ++i) {
    const auto& keywords = dataset.trials[i % dataset.trials.size()].keywords;
    if (!q->CreateView(keywords).ok()) report->Fail("CreateView");
  }
  if (!q->DrainRefreshes().ok()) report->Fail("initial drain");
  if (create_views_s != nullptr) {
    *create_views_s = SecondsBetween(t0, Clock::now());
  }
  for (std::size_t v = 0; v < q->num_views(); ++v) {
    auto r = q->QueryView(v);
    if (!r.ok() || r->trees.empty()) report->Fail("warm-up QueryView");
  }
  return q;
}

bool SameWeights(const q::graph::WeightVector& a,
                 const q::graph::WeightVector& b, std::size_t features) {
  if (a.revision() != b.revision()) return false;
  for (q::graph::FeatureId f = 0; f < features; ++f) {
    if (a.At(f) != b.At(f)) return false;
  }
  return true;
}

struct Schedule {
  std::vector<std::uint32_t> writer;  // views to endorse, in order
  std::vector<std::uint32_t> reader;
};

// One committed feedback: the view, and the rank and tree it endorsed.
struct Committed {
  std::size_t view = 0;
  std::size_t rank = 0;
  q::steiner::SteinerTree tree;
};

struct PhaseResult {
  std::vector<double> setup_s;
  std::vector<double> create_views_s;
  LatencySeries ack;
  LatencySeries fresh;
  LatencySeries queries;
  double reader_wall_s = 0.0;
  double rss_mb = 0.0;
  q::core::RefreshEngineStats refresh;
  q::core::AsyncRefreshStats async;
  std::size_t features_touched = 0;
};

q::core::RefreshEngineStats Delta(const q::core::RefreshEngineStats& a,
                                  const q::core::RefreshEngineStats& b) {
  q::core::RefreshEngineStats d;
  d.views_skipped_irrelevant =
      b.views_skipped_irrelevant - a.views_skipped_irrelevant;
  d.relevance_checks = b.relevance_checks - a.relevance_checks;
  d.views_delta_recost = b.views_delta_recost - a.views_delta_recost;
  d.views_full_recost = b.views_full_recost - a.views_full_recost;
  d.edges_repriced = b.edges_repriced - a.edges_repriced;
  d.sp_cache_entries_retained =
      b.sp_cache_entries_retained - a.sp_cache_entries_retained;
  d.sp_cache_entries_dropped =
      b.sp_cache_entries_dropped - a.sp_cache_entries_dropped;
  return d;
}

q::core::AsyncRefreshStats Delta(const q::core::AsyncRefreshStats& a,
                                 const q::core::AsyncRefreshStats& b) {
  q::core::AsyncRefreshStats d;
  d.feedback_rounds = b.feedback_rounds - a.feedback_rounds;
  d.repairs_run = b.repairs_run - a.repairs_run;
  d.serial_repairs = b.serial_repairs - a.serial_repairs;
  return d;
}

PhaseResult RunPhase(const Schedule& schedule, Trace* trace, Report* report) {
  PhaseResult out;
  const auto phase_start = Clock::now();
  auto set_up = [&] {
    const auto t0 = Clock::now();
    double create_views_s = 0.0;
    auto q = SetUp(/*async=*/true, &create_views_s, report);
    out.setup_s.push_back(SecondsBetween(t0, Clock::now()));
    out.create_views_s.push_back(create_views_s);
    return q;
  };
  // The measured system is the process's first set-up; the other set-up
  // repetitions run after the checks, so they cannot touch peak RSS.
  std::unique_ptr<q::core::QSystem> live = set_up();
  if (!report->ok()) return out;
  const auto setup_done = Clock::now();
  q::core::QSystem& q = *live;
  const q::core::RefreshEngineStats refresh_before = q.refresh_engine().stats();
  const q::core::AsyncRefreshStats async_before =
      q.async_scheduler()->stats();

  std::vector<Committed> committed;
  std::atomic<bool> writer_done{false};
  std::size_t weight_mismatches = 0;
  SpanLog* writer_log = trace != nullptr ? trace->NewLog() : nullptr;
  SpanLog* reader_log = trace != nullptr ? trace->NewLog() : nullptr;
  q::learn::MiraLearner learner(q.config().mira);

  auto writer = [&] {
    for (std::size_t i = 0; i < schedule.writer.size(); ++i) {
      const std::size_t view = schedule.writer[i];
      auto state = q.ReadView(view).state;
      if (state == nullptr || state->trees.empty()) {
        out.ack.AddFailure();
        out.fresh.AddFailure();
        continue;
      }
      const std::size_t rank =
          std::min<std::size_t>(1 + i % (kTopK - 1), state->trees.size() - 1);
      const Committed c{view, rank, state->trees[rank]};
      // Traced: replay the MIRA step on a copy of the weights first.
      std::unique_ptr<q::graph::WeightVector> copy;
      Clock::time_point ma, mb;
      if (writer_log != nullptr) {
        copy = std::make_unique<q::graph::WeightVector>(q.weights());
        const q::query::QueryGraph& qg = q.view(view).query_graph();
        ma = Clock::now();
        auto info = learner.Update(qg.graph, qg.keyword_nodes, c.tree,
                                   copy.get());
        mb = Clock::now();
        if (info.ok()) out.features_touched += info->features_touched;
      }
      const auto a = Clock::now();
      const bool acked = q.ApplyFeedback(view, c.tree).ok();
      const auto b = Clock::now();
      const bool drained = q.DrainRefreshes().ok();
      const auto d = Clock::now();
      if (!acked) {
        out.ack.AddFailure();
        out.fresh.AddFailure();
        continue;
      }
      out.ack.Add(MsBetween(a, b));
      if (drained) {
        out.fresh.Add(MsBetween(a, d));
      } else {
        out.fresh.AddFailure();
      }
      if (writer_log != nullptr) {
        const std::uint64_t request = RequestId(0, i);
        const std::int64_t span =
            writer_log->Record("core.ApplyFeedback", a, b, request);
        writer_log->Record("learn.MiraLearner::Update", ma, mb, request,
                           span);
        writer_log->Record("core.DrainRefreshes", b, d, request);
        if (!SameWeights(*copy, q.weights(), q.feature_space().size())) {
          ++weight_mismatches;
        }
      }
      committed.push_back(c);
    }
    writer_done.store(true, std::memory_order_release);
  };
  auto reader = [&] {
    const auto start = Clock::now();
    for (std::size_t i = 0; !writer_done.load(std::memory_order_acquire);
         ++i) {
      const std::size_t v = schedule.reader[i % schedule.reader.size()];
      const auto a = Clock::now();
      auto result = q.QueryView(v);
      const auto b = Clock::now();
      if (!result.ok() || result->trees.empty()) {
        out.queries.AddFailure();
        continue;
      }
      out.queries.Add(MsBetween(a, b));
      if (reader_log != nullptr) {
        reader_log->Record("core.QueryView", a, b, RequestId(1, i));
      }
    }
    out.reader_wall_s = SecondsBetween(start, Clock::now());
  };
  RunTogether({writer, reader});
  out.rss_mb = PeakRssMiB();
  const auto timed_done = Clock::now();
  report->CountOps("feedback.ApplyFeedback", out.ack.attempted(),
                   out.ack.failed());
  report->CountOps("feedback.DrainRefreshes", out.fresh.attempted(),
                   out.fresh.failed() - out.ack.failed());
  report->CountOps("feedback.QueryView", out.queries);
  if (weight_mismatches > 0) {
    report->Fail(std::to_string(weight_mismatches) +
                 " MIRA replays ended with weights different from the live "
                 "ApplyFeedback");
  }
  out.refresh = Delta(refresh_before, q.refresh_engine().stats());
  out.async = Delta(async_before, q.async_scheduler()->stats());
  if (!report->ok()) return out;

  // Checks: published state is what a fresh query returns, and the async
  // system equals a synchronous twin replaying the committed log.
  if (!q.DrainRefreshes().ok()) report->Fail("final drain");
  for (std::size_t v = 0; v < q.num_views(); ++v) {
    auto fresh = q.QueryView(v);
    std::string why;
    if (!fresh.ok() ||
        !SameViewOutput(*fresh, *q.ReadView(v).state, true, &why)) {
      report->Fail("view " + std::to_string(v) +
                   ": fresh QueryView differs from ReadView (" + why + ")");
    }
  }
  auto twin = SetUp(/*async=*/false, nullptr, report);
  for (const Committed& c : committed) {
    auto state = twin->ReadView(c.view).state;
    if (state == nullptr || c.rank >= state->trees.size() ||
        !(state->trees[c.rank] == c.tree) ||
        state->trees[c.rank].cost != c.tree.cost) {
      report->Fail("twin serves a different tree before a replayed feedback");
      break;
    }
    if (!twin->ApplyFeedback(c.view, c.tree).ok()) {
      report->Fail("twin ApplyFeedback");
      break;
    }
  }
  for (std::size_t v = 0; v < q.num_views() && report->ok(); ++v) {
    std::string why;
    if (!SameViewOutput(*q.ReadView(v).state, *twin->ReadView(v).state, true,
                        &why)) {
      report->Fail("view " + std::to_string(v) +
                   " differs from the synchronous twin (" + why + ")");
    }
  }
  if (!SameWeights(q.weights(), twin->weights(), q.feature_space().size())) {
    report->Fail("weights differ from the synchronous twin");
  }
  const auto checks_done = Clock::now();
  twin.reset();
  live.reset();
  for (int rep = 1; rep < kSetupReps; ++rep) set_up();
  PrintPhaseSeconds(phase_start, setup_done, timed_done, checks_done);
  return out;
}

}  // namespace

void RunFeedback(const RunOptions& options, Report* report) {
  Schedule schedule;
  schedule.writer = BalancedSequence(
      kWriterOrderSeed, kViews,
      kFeedbacksPerSecond * static_cast<std::size_t>(options.seconds));
  schedule.reader =
      UniformSequence(StreamSeed(options.seed, 401), kViews, kReaderListLength);

  PhaseResult base = RunPhase(schedule, nullptr, report);
  if (!report->ok()) return;
  if (!options.trace) {
    ReportEndToEnd(base.setup_s, base.queries, base.reader_wall_s, base.rss_mb,
                   report);
    report->SetPercentile("feedback_ack_p50_ms", base.ack.samples(), 50);
    report->SetPercentile("feedback_ack_p90_ms", base.ack.samples(), 90);
    report->SetPercentile("feedback_fresh_p50_ms", base.fresh.samples(), 50);
    report->SetPercentile("feedback_fresh_p90_ms", base.fresh.samples(), 90);
    return;
  }

  Trace trace;
  PhaseResult traced = RunPhase(schedule, &trace, report);
  if (!report->ok()) return;
  ReportTraceOverhead(base.queries, traced.queries, report);
  const std::size_t rounds = traced.ack.attempted();
  report->SetPercentile("learn.mira_p50_ms",
                        trace.DurationMs("learn.MiraLearner::Update"), 50);
  report->SetRatio("learn.features_touched",
                   static_cast<double>(traced.features_touched),
                   static_cast<double>(rounds));
  const auto self = trace.SelfMs("core.ApplyFeedback");
  report->SetPercentile("core.feedback_self_p50_ms", self, 50);
  report->SetPercentile("core.feedback_self_p90_ms", self, 90);
  report->SetPercentile("core.drain_p50_ms",
                        trace.DurationMs("core.DrainRefreshes"), 50);
  const auto& rs = traced.refresh;
  const auto& as = traced.async;
  report->SetRatio("core.repairs_per_feedback",
                   static_cast<double>(as.repairs_run),
                   static_cast<double>(as.feedback_rounds));
  report->SetRatio("core.gate_skip_ratio",
                   static_cast<double>(rs.views_skipped_irrelevant),
                   static_cast<double>(rs.relevance_checks));
  report->SetRatio(
      "core.delta_recost_share", static_cast<double>(rs.views_delta_recost),
      static_cast<double>(rs.views_delta_recost + rs.views_full_recost));
  report->SetRatio("core.edges_repriced_per_feedback",
                   static_cast<double>(rs.edges_repriced),
                   static_cast<double>(as.feedback_rounds));
  report->SetRatio("core.sp_retained_ratio",
                   static_cast<double>(rs.sp_cache_entries_retained),
                   static_cast<double>(rs.sp_cache_entries_retained +
                                       rs.sp_cache_entries_dropped));
  report->Set("core.serial_repairs", static_cast<double>(as.serial_repairs),
              as.feedback_rounds);
  report->Set("core.create_views_s", Median(traced.create_views_s),
              traced.create_views_s.size());
  std::printf("counts feedback_rounds=%zu repairs_run=%zu relevance_checks=%zu "
              "views_skipped_irrelevant=%zu\n",
              as.feedback_rounds, as.repairs_run, rs.relevance_checks,
              rs.views_skipped_irrelevant);
  WriteTrace(trace, options, report);
}

}  // namespace qbench
