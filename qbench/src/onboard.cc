// onboard: maintenance-mode registration (Sec. 3) under live serving.
// GBCO with the sources the first three trials introduce held out, the
// matcher bootstrap,
// a view for every trial whose keywords still match, and async refresh
// with 2 repair threads. One closed-loop writer registers the held-out
// sources in a seeded order, then seeded Sec. 5.1.2 two-attribute
// synthetic sources, through
// RegisterAndAlignSource (view-based aligner, metadata + MAD matchers),
// each followed by DrainRefreshes. One closed-loop QueryView client runs
// beside it in lock step (see Pacer): it reads on a seeded view sequence
// while each RegisterAndAlignSource call is in flight, so it meets the
// alignment's CPU use and the serving gate the registration takes, and
// it waits while the writer drains.
//
// Checks: the drained async system must equal a synchronous twin that
// registers the same sources in the same order (edge ids relaxed: views a
// structural certificate skipped keep overlay edge ids numbered off an
// older base graph), and every view's fresh QueryView must equal its
// published output. The traced run replays KeywordMatchFingerprint for
// every open view after each registration; it must equal the fingerprint
// of the view's current query graph.

#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>

#include "core/q_system.h"
#include "data/gbco.h"
#include "query/query_graph.h"
#include "schedule.h"
#include "workloads.h"

namespace qbench {
namespace {

constexpr int kTopK = 3;
// Trials whose introduced sources are held out of the initial catalog.
constexpr std::size_t kHeldOutTrials = 3;
// Registrations per --seconds second: 50 at 10 s leaves ten samples
// beyond the p80s.
constexpr std::size_t kRegistrationsPerSecond = 5;
// The reader's seeded draws; each is taken modulo the number of views,
// which is known only once the system is set up.
constexpr std::size_t kReaderListLength = 1 << 16;

q::data::GbcoDataset Dataset() {
  q::data::GbcoConfig data;
  data.base_rows = 150;
  return q::data::BuildGbco(data);
}

// Lock-step pacing of the reader beside the writer: the reader reads only
// while one of the writer's ops is in flight, and the writer starts its
// next op only once the reader has stopped. Reads then land only inside
// registrations, however fast either thread runs. Waiting threads block;
// they do not spin.
class Pacer {
 public:
  // Writer: op `op` (0, 1, 2, ...) starts; the reader may read.
  void Open(std::size_t op) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      opened_ = op + 1;
    }
    changed_.notify_all();
  }
  // Writer: op `op` has returned; the reader starts no new read for it.
  void Close(std::size_t op) {
    closed_.store(op + 1, std::memory_order_release);
  }
  // Writer: waits until the reader has stopped reading for op `op`.
  void AwaitReader(std::size_t op) {
    std::unique_lock<std::mutex> lock(mu_);
    changed_.wait(lock, [&] { return done_ > op; });
  }
  // Reader: waits until op `op` starts.
  void AwaitOpen(std::size_t op) {
    std::unique_lock<std::mutex> lock(mu_);
    changed_.wait(lock, [&] { return opened_ > op; });
  }
  // Reader: whether op `op` is still in flight.
  bool IsOpen(std::size_t op) const {
    return closed_.load(std::memory_order_acquire) <= op;
  }
  // Reader: it has stopped reading for op `op`.
  void ReaderDone(std::size_t op) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      done_ = op + 1;
    }
    changed_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable changed_;
  std::size_t opened_ = 0;              // ops started
  std::atomic<std::size_t> closed_{0};  // ops returned
  std::size_t done_ = 0;                // ops the reader has left
};

struct OnboardSystem {
  q::data::GbcoDataset dataset;
  std::unique_ptr<q::core::QSystem> q;
  // Registration order: the held-out GBCO sources, then the synthetics.
  std::vector<std::shared_ptr<q::relational::DataSource>> arrivals;
  double setup_s = 0.0;
  double initial_alignment_s = 0.0;
  double create_views_s = 0.0;
};

std::unique_ptr<OnboardSystem> SetUp(const OnboardPlan& plan, bool async,
                                     Report* report) {
  auto sys = std::make_unique<OnboardSystem>();
  // The arrivals are generated inputs, built before the clock starts.
  for (std::size_t i = 0; i < plan.synthetic_seeds.size(); ++i) {
    sys->arrivals.push_back(MakePlannedSyntheticSource(plan, i));
  }
  const auto t0 = Clock::now();
  sys->dataset = Dataset();
  q::core::QSystemConfig config;
  config.view.top_k.k = kTopK;
  config.view.query_graph.max_matches_per_keyword = 6;
  config.strategy = q::core::AlignStrategy::kViewBased;
  config.use_metadata_matcher = true;
  config.use_mad_matcher = true;
  config.async_refresh = async;
  config.steiner_threads = async ? -1 : 0;
  config.async_repair_threads = async ? 2 : 0;
  sys->q = std::make_unique<q::core::QSystem>(config);
  std::vector<std::shared_ptr<q::relational::DataSource>> held;
  for (const auto& src : sys->dataset.catalog.sources()) {
    bool is_held = false;
    for (const std::string& name : plan.held_out) {
      is_held = is_held || src->name() == name;
    }
    if (is_held) {
      held.push_back(src);
    } else if (!sys->q->RegisterSource(src).ok()) {
      report->Fail("RegisterSource");
    }
  }
  // Held-out sources arrive in plan order.
  std::vector<std::shared_ptr<q::relational::DataSource>> ordered;
  for (const std::string& name : plan.held_out) {
    for (const auto& src : held) {
      if (src->name() == name) ordered.push_back(src);
    }
  }
  sys->arrivals.insert(sys->arrivals.begin(), ordered.begin(), ordered.end());
  const auto t1 = Clock::now();
  if (!sys->q->RunInitialAlignment().ok()) {
    report->Fail("RunInitialAlignment");
  }
  const auto t2 = Clock::now();
  for (const auto& trial : sys->dataset.trials) {
    // A trial whose keywords only matched held-out relations has no view.
    (void)sys->q->CreateView(trial.keywords);
  }
  if (sys->q->num_views() == 0) report->Fail("no trial view could be built");
  if (!sys->q->DrainRefreshes().ok()) report->Fail("initial drain");
  const auto t3 = Clock::now();
  for (std::size_t v = 0; v < sys->q->num_views(); ++v) {
    auto r = sys->q->QueryView(v);
    if (!r.ok() || r->trees.empty()) report->Fail("warm-up QueryView");
  }
  const auto t4 = Clock::now();
  sys->initial_alignment_s = SecondsBetween(t1, t2);
  sys->create_views_s = SecondsBetween(t2, t3);
  sys->setup_s = SecondsBetween(t0, t4);
  return sys;
}

struct PhaseResult {
  std::vector<double> setup_s;
  std::vector<double> initial_alignment_s;
  std::vector<double> create_views_s;
  LatencySeries ack;
  LatencySeries fresh;
  LatencySeries queries;
  std::vector<double> align_wall_ms;
  double reader_wall_s = 0.0;
  double rss_mb = 0.0;
  std::size_t comparisons = 0;
  std::size_t metadata_comparisons = 0;
  std::size_t mad_comparisons = 0;
  q::core::AsyncRefreshStats async;
};

PhaseResult RunPhase(const OnboardPlan& plan,
                     const std::vector<std::uint32_t>& reader_ops,
                     Trace* trace, Report* report) {
  PhaseResult out;
  const auto phase_start = Clock::now();
  auto set_up = [&] {
    auto sys = SetUp(plan, /*async=*/true, report);
    out.setup_s.push_back(sys->setup_s);
    out.initial_alignment_s.push_back(sys->initial_alignment_s);
    out.create_views_s.push_back(sys->create_views_s);
    return sys;
  };
  // The measured system is the process's first set-up; the other set-up
  // repetitions run after the checks, so they cannot touch peak RSS.
  std::unique_ptr<OnboardSystem> sys = set_up();
  if (!report->ok()) return out;
  const auto setup_done = Clock::now();
  q::core::QSystem& q = *sys->q;
  const std::size_t num_views = q.num_views();
  const q::core::AsyncRefreshStats async_before =
      q.async_scheduler()->stats();

  Pacer pacer;
  std::size_t fingerprint_mismatches = 0;
  SpanLog* writer_log = trace != nullptr ? trace->NewLog() : nullptr;
  SpanLog* reader_log = trace != nullptr ? trace->NewLog() : nullptr;

  auto writer = [&] {
    for (std::size_t i = 0; i < sys->arrivals.size(); ++i) {
      const std::size_t meta0 = q.metadata_matcher()->stats()
                                    .attribute_comparisons;
      const std::size_t mad0 = q.mad_matcher()->stats().attribute_comparisons;
      pacer.Open(i);
      const auto a = Clock::now();
      auto stats = q.RegisterAndAlignSource(sys->arrivals[i]);
      const auto b = Clock::now();
      pacer.Close(i);
      const bool drained = q.DrainRefreshes().ok();
      const auto d = Clock::now();
      pacer.AwaitReader(i);
      if (!stats.ok()) {
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
      out.align_wall_ms.push_back(stats->wall_ms);
      out.comparisons += stats->attribute_comparisons;
      out.metadata_comparisons +=
          q.metadata_matcher()->stats().attribute_comparisons - meta0;
      out.mad_comparisons +=
          q.mad_matcher()->stats().attribute_comparisons - mad0;
      if (writer_log == nullptr) continue;
      const std::uint64_t request = RequestId(0, i);
      const std::int64_t span =
          writer_log->Record("core.RegisterAndAlignSource", a, b, request);
      writer_log->RecordReported("align.Aligner", stats->wall_ms, span);
      writer_log->Record("core.DrainRefreshes", b, d, request);
      // Replay the structural gate's keyword-match fingerprint per view.
      for (std::size_t v = 0; v < num_views; ++v) {
        const q::query::TopKView& view = q.view(v);
        const auto fa = Clock::now();
        const std::uint64_t fingerprint = q::query::KeywordMatchFingerprint(
            q.text_index(), view.keywords(), view.config().query_graph);
        const auto fb = Clock::now();
        writer_log->Record("text.KeywordMatchFingerprint", fa, fb, request);
        if (fingerprint != view.query_graph().keyword_fingerprint) {
          ++fingerprint_mismatches;
        }
      }
    }
  };
  // query_per_s is the reader's rate while it reads: the wall time of its
  // reading windows, not the waits between them.
  auto reader = [&] {
    std::size_t i = 0;
    for (std::size_t op = 0; op < sys->arrivals.size(); ++op) {
      pacer.AwaitOpen(op);
      const auto start = Clock::now();
      for (; pacer.IsOpen(op); ++i) {
        const std::size_t v = reader_ops[i % reader_ops.size()] % num_views;
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
      out.reader_wall_s += SecondsBetween(start, Clock::now());
      pacer.ReaderDone(op);
    }
  };
  RunTogether({writer, reader});
  out.rss_mb = PeakRssMiB();
  const auto timed_done = Clock::now();
  report->CountOps("onboard.RegisterAndAlignSource", out.ack.attempted(),
                   out.ack.failed());
  report->CountOps("onboard.DrainRefreshes", out.fresh.attempted(),
                   out.fresh.failed() - out.ack.failed());
  report->CountOps("onboard.QueryView", out.queries);
  if (fingerprint_mismatches > 0) {
    report->Fail(std::to_string(fingerprint_mismatches) +
                 " replayed fingerprints differ from the views' query graphs");
  }
  const q::core::AsyncRefreshStats async_after = q.async_scheduler()->stats();
  out.async.structural_rounds =
      async_after.structural_rounds - async_before.structural_rounds;
  out.async.structural_skips =
      async_after.structural_skips - async_before.structural_skips;
  out.async.structural_rebuilds =
      async_after.structural_rebuilds - async_before.structural_rebuilds;
  if (!report->ok()) return out;

  if (!q.DrainRefreshes().ok()) report->Fail("final drain");
  for (std::size_t v = 0; v < num_views; ++v) {
    auto fresh = q.QueryView(v);
    std::string why;
    if (!fresh.ok() ||
        !SameViewOutput(*fresh, *q.ReadView(v).state, true, &why)) {
      report->Fail("view " + std::to_string(v) +
                   ": fresh QueryView differs from ReadView (" + why + ")");
    }
  }
  auto twin = SetUp(plan, /*async=*/false, report);
  if (twin->q->num_views() != num_views) report->Fail("twin view count");
  for (const auto& source : twin->arrivals) {
    if (!report->ok()) break;
    if (!twin->q->RegisterAndAlignSource(source).ok()) {
      report->Fail("twin RegisterAndAlignSource");
    }
  }
  for (std::size_t v = 0; v < num_views && report->ok(); ++v) {
    std::string why;
    if (!SameViewOutput(*q.ReadView(v).state, *twin->q->ReadView(v).state,
                        /*compare_edges=*/false, &why)) {
      report->Fail("view " + std::to_string(v) +
                   " differs from the synchronous twin (" + why + ")");
    }
  }
  const auto checks_done = Clock::now();
  twin.reset();
  sys.reset();
  for (int rep = 1; rep < kSetupReps; ++rep) set_up();
  PrintPhaseSeconds(phase_start, setup_done, timed_done, checks_done);
  return out;
}

}  // namespace

void RunOnboard(const RunOptions& options, Report* report) {
  std::vector<std::string> held_out;
  const auto trials = Dataset().trials;
  for (std::size_t t = 0; t < kHeldOutTrials; ++t) {
    held_out.insert(held_out.end(), trials[t].new_sources.begin(),
                    trials[t].new_sources.end());
  }
  const OnboardPlan plan = MakeOnboardPlan(
      StreamSeed(options.seed, 500), held_out,
      kRegistrationsPerSecond * static_cast<std::size_t>(options.seconds));
  const std::vector<std::uint32_t> reader_ops = UniformSequence(
      StreamSeed(options.seed, 501), 1u << 20, kReaderListLength);

  PhaseResult base = RunPhase(plan, reader_ops, nullptr, report);
  if (!report->ok()) return;
  if (!options.trace) {
    ReportEndToEnd(base.setup_s, base.queries, base.reader_wall_s, base.rss_mb,
                   report);
    report->SetPercentile("register_ack_p50_ms", base.ack.samples(), 50);
    report->SetPercentile("register_ack_p80_ms", base.ack.samples(), 80);
    report->SetPercentile("register_fresh_p50_ms", base.fresh.samples(), 50);
    report->SetPercentile("register_fresh_p80_ms", base.fresh.samples(), 80);
    return;
  }

  Trace trace;
  PhaseResult traced = RunPhase(plan, reader_ops, &trace, report);
  if (!report->ok()) return;
  ReportTraceOverhead(base.queries, traced.queries, report);
  const double sources = static_cast<double>(traced.ack.attempted());
  report->SetPercentile("align.wall_p50_ms", traced.align_wall_ms, 50);
  report->SetRatio("align.comparisons_per_source",
                   static_cast<double>(traced.comparisons), sources);
  report->SetRatio("match.metadata_comparisons_per_source",
                   static_cast<double>(traced.metadata_comparisons), sources);
  report->SetRatio("match.mad_comparisons_per_source",
                   static_cast<double>(traced.mad_comparisons), sources);
  report->SetPercentile("text.fingerprint_p50_ms",
                        trace.SumMsPerRequest("text.KeywordMatchFingerprint"),
                        50);
  report->SetPercentile("core.register_self_p50_ms",
                        trace.SelfMs("core.RegisterAndAlignSource"), 50);
  const auto& as = traced.async;
  report->SetRatio(
      "core.structural_skip_ratio", static_cast<double>(as.structural_skips),
      static_cast<double>(as.structural_skips + as.structural_rebuilds));
  report->SetRatio("core.rebuilds_per_source",
                   static_cast<double>(as.structural_rebuilds),
                   static_cast<double>(as.structural_rounds));
  report->SetPercentile("core.register_drain_p50_ms",
                        trace.DurationMs("core.DrainRefreshes"), 50);
  report->Set("match.initial_alignment_s", Median(traced.initial_alignment_s),
              traced.initial_alignment_s.size());
  report->Set("core.create_views_s", Median(traced.create_views_s),
              traced.create_views_s.size());
  std::printf("counts registrations=%zu attribute_comparisons=%zu "
              "structural_rounds=%zu structural_rebuilds=%zu\n",
              traced.ack.attempted(), traced.comparisons,
              as.structural_rounds, as.structural_rebuilds);
  WriteTrace(trace, options, report);
}

}  // namespace qbench
