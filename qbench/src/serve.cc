// serve: the read path alone. InterPro-GO (Sec. 5.2) after the matcher
// bootstrap, 16 views over its keyword queries, synchronous refresh and
// no writer. Three closed-loop clients each run a seeded Zipf(0.99)
// sequence of QSystem::QueryView calls. Zipf rank r is view (r + 1) mod
// 16, so the hottest view (30% of the calls) is view 1, a mid-cost query:
// about a third of the calls are cheaper and a quarter dearer, and the
// median falls inside one view's latency mass instead of on the edge
// between two views of very different cost.
//
// The traced run replays a seeded quarter of the requests right after the
// real call, layer by layer from outside: TopKSteinerTrees on a
// bench-owned engine per view, CompileTree and Executor::Execute per
// tree, DisjointUnion, and the certificate's anchor-ball Dijkstra. Every
// replay must reproduce the QueryView result exactly.

#include <cmath>
#include <limits>
#include <memory>

#include "core/q_system.h"
#include "data/interpro_go.h"
#include "query/conjunctive_query.h"
#include "query/executor.h"
#include "query/ranked_union.h"
#include "schedule.h"
#include "steiner/fast_solver.h"
#include "steiner/top_k.h"
#include "workloads.h"

namespace qbench {
namespace {

constexpr std::size_t kViews = 16;
constexpr std::size_t kClients = 3;
constexpr double kZipfTheta = 0.99;
constexpr double kReplayShare = 0.25;
// Queries per client per --seconds second.
constexpr std::size_t kQueriesPerClientPerSecond = 300;

struct ServeSystem {
  q::data::InterProGoDataset dataset;
  std::unique_ptr<q::core::QSystem> q;
  double setup_s = 0.0;
  double initial_alignment_s = 0.0;
  double create_views_s = 0.0;
};

std::unique_ptr<ServeSystem> SetUp(Report* report) {
  auto sys = std::make_unique<ServeSystem>();
  const auto t0 = Clock::now();
  q::data::InterProGoConfig data;
  data.num_go_terms = 120;
  data.num_entries = 90;
  data.num_pubs = 80;
  data.num_journals = 10;
  data.num_methods = 60;
  data.interpro2go_links = 200;
  data.entry2pub_links = 160;
  data.method2pub_links = 120;
  sys->dataset = q::data::BuildInterProGo(data);
  q::core::QSystemConfig config;
  config.view.query_graph.min_similarity = 0.5;
  config.view.query_graph.max_matches_per_keyword = 6;
  config.steiner_threads = -1;
  config.sharded_search = false;
  config.async_refresh = false;
  sys->q = std::make_unique<q::core::QSystem>(config);
  for (const auto& src : sys->dataset.catalog.sources()) {
    if (!sys->q->RegisterSource(src).ok()) report->Fail("RegisterSource");
  }
  const auto t1 = Clock::now();
  if (!sys->q->RunInitialAlignment().ok()) {
    report->Fail("RunInitialAlignment");
  }
  const auto t2 = Clock::now();
  for (std::size_t i = 0; i < kViews; ++i) {
    const auto& keywords =
        sys->dataset.keyword_queries[i % sys->dataset.keyword_queries.size()];
    if (!sys->q->CreateView(keywords).ok()) report->Fail("CreateView");
  }
  if (!sys->q->DrainRefreshes().ok()) report->Fail("initial drain");
  const auto t3 = Clock::now();
  // Warm-up: one query per view.
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

struct ClientOps {
  std::vector<std::uint32_t> views;
  std::vector<std::uint8_t> replay;
};

std::vector<ClientOps> MakeSchedule(const RunOptions& options) {
  const std::size_t per_client =
      kQueriesPerClientPerSecond * static_cast<std::size_t>(options.seconds);
  std::vector<ClientOps> clients(kClients);
  for (std::size_t c = 0; c < kClients; ++c) {
    clients[c].views = ZipfSequence(StreamSeed(options.seed, 100 + c), kViews,
                                    kZipfTheta, per_client);
    for (auto& v : clients[c].views) {
      v = static_cast<std::uint32_t>((v + 1) % kViews);
    }
    clients[c].replay = SampleFlags(StreamSeed(options.seed, 200 + c),
                                    kReplayShare, per_client);
  }
  return clients;
}

// Bench-owned replay state of the traced run.
struct Replayer {
  const q::core::QSystem* q = nullptr;
  std::vector<std::unique_ptr<q::steiner::FastSteinerEngine>> engines;
  std::atomic<std::size_t> rows{0};
  std::atomic<std::size_t> replays{0};
  std::atomic<std::size_t> mismatches{0};
};

// Replays request `request` (view `v`, real result `real`, real span
// `parent`) layer by layer and checks it reproduces `real`. `log` is null
// for the untimed warm-up replay.
void Replay(Replayer* rp, std::size_t v, const q::query::ViewSnapshot& real,
            SpanLog* log, std::int64_t parent, std::uint64_t request) {
  const q::query::TopKView& view = rp->q->view(v);
  const q::query::QueryGraph& qg = view.query_graph();
  const q::graph::WeightVector& weights = rp->q->weights();
  auto record = [&](std::string_view name, Clock::time_point a,
                    Clock::time_point b) {
    if (log != nullptr) log->Record(name, a, b, request, parent);
  };

  q::query::ViewSnapshot replayed;
  q::steiner::RelevanceCertificate certificate;
  auto a = Clock::now();
  replayed.trees = q::steiner::TopKSteinerTrees(
      qg.graph, weights, qg.keyword_nodes, view.config().top_k,
      rp->engines[v].get(), &certificate);
  auto b = Clock::now();
  record("steiner.TopKSteinerTrees", a, b);

  q::query::Executor executor(&rp->q->catalog(), view.config().executor);
  std::vector<std::vector<q::relational::Row>> per_query_rows;
  bool failed = false;
  std::size_t rows = 0;
  for (const q::steiner::SteinerTree& tree : replayed.trees) {
    a = Clock::now();
    auto cq = q::query::CompileTree(qg, tree, weights);
    b = Clock::now();
    record("query.CompileTree", a, b);
    if (!cq.ok()) {
      failed = true;
      break;
    }
    a = Clock::now();
    auto executed = executor.Execute(*cq);
    b = Clock::now();
    record("query.Execute", a, b);
    if (executed.ok()) {
      rows += executed->size();
      per_query_rows.push_back(std::move(executed).value());
    } else if (executed.status().IsOutOfRange()) {
      per_query_rows.emplace_back();
    } else {
      failed = true;
      break;
    }
    replayed.queries.push_back(std::move(cq).value());
  }
  if (!failed) {
    a = Clock::now();
    replayed.results =
        q::query::DisjointUnion(qg, weights, replayed.queries, per_query_rows,
                                view.config().union_similarity_threshold);
    b = Clock::now();
    record("query.DisjointUnion", a, b);
    // The certificate's structural half: the anchor ball around the first
    // terminal, computed whenever the search certified and has k trees.
    const double kth =
        replayed.trees.size() ==
                static_cast<std::size_t>(view.config().top_k.k)
            ? replayed.trees.back().cost
            : std::numeric_limits<double>::infinity();
    if (certificate.valid && std::isfinite(kth) &&
        !qg.keyword_nodes.empty()) {
      q::graph::DistanceField field;
      a = Clock::now();
      qg.graph.Dijkstra({{qg.keyword_nodes.front(), 0.0}}, weights,
                        2.0 * kth + 1.0, &field);
      b = Clock::now();
      record("graph.Dijkstra", a, b);
    }
  }
  std::string why;
  if (failed || !SameViewOutput(real, replayed, /*compare_edges=*/true, &why)) {
    if (rp->mismatches.fetch_add(1) == 0) {
      std::fprintf(stderr, "serve: replay of view %zu differs: %s\n", v,
                   failed ? "a layer call failed" : why.c_str());
    }
  }
  if (log != nullptr) {
    rp->rows.fetch_add(rows);
    rp->replays.fetch_add(1);
  }
}

struct PhaseResult {
  std::vector<double> setup_s;
  std::vector<double> initial_alignment_s;
  std::vector<double> create_views_s;
  LatencySeries queries;
  double wall_s = 0.0;
  double rss_mb = 0.0;
  q::steiner::FastSolveStats replay_stats;
  std::size_t replay_rows = 0;
  std::size_t replays = 0;
};

void AddStats(const q::steiner::FastSolveStats& s,
              q::steiner::FastSolveStats* total) {
  total->sp_cache_hits += s.sp_cache_hits;
  total->sp_cache_misses += s.sp_cache_misses;
}

PhaseResult RunPhase(const std::vector<ClientOps>& schedule, Trace* trace,
                     Report* report) {
  PhaseResult out;
  const auto phase_start = Clock::now();
  auto set_up = [&] {
    auto sys = SetUp(report);
    out.setup_s.push_back(sys->setup_s);
    out.initial_alignment_s.push_back(sys->initial_alignment_s);
    out.create_views_s.push_back(sys->create_views_s);
    return sys;
  };
  // The measured system is the process's first set-up; the other set-up
  // repetitions run after the checks, so they cannot touch peak RSS.
  std::unique_ptr<ServeSystem> sys = set_up();
  if (!report->ok()) return out;
  const auto setup_done = Clock::now();
  q::core::QSystem& q = *sys->q;

  Replayer replayer;
  replayer.q = &q;
  if (trace != nullptr) {
    for (std::size_t v = 0; v < q.num_views(); ++v) {
      const q::query::TopKView& view = q.view(v);
      replayer.engines.push_back(
          std::make_unique<q::steiner::FastSteinerEngine>(
              view.query_graph().graph, q.weights(),
              view.config().top_k.use_sp_cache));
      // Untimed warm-up replay, so the replay engines start as warm as the
      // system's own.
      auto real = q.QueryView(v);
      if (real.ok()) Replay(&replayer, v, *real, nullptr, -1, 0);
    }
  }
  q::steiner::FastSolveStats before;
  for (const auto& e : replayer.engines) AddStats(e->stats(), &before);

  std::vector<LatencySeries> per_client(schedule.size());
  std::vector<SpanLog*> logs(schedule.size(), nullptr);
  for (std::size_t c = 0; c < schedule.size() && trace != nullptr; ++c) {
    logs[c] = trace->NewLog();
  }
  std::vector<std::function<void()>> bodies;
  for (std::size_t c = 0; c < schedule.size(); ++c) {
    bodies.emplace_back([&, c] {
      const ClientOps& ops = schedule[c];
      LatencySeries& series = per_client[c];
      SpanLog* log = logs[c];
      for (std::size_t i = 0; i < ops.views.size(); ++i) {
        const std::size_t v = ops.views[i];
        const auto a = Clock::now();
        auto result = q.QueryView(v);
        const auto b = Clock::now();
        if (!result.ok() || result->trees.empty()) {
          series.AddFailure();
          continue;
        }
        series.Add(MsBetween(a, b));
        if (log == nullptr) continue;
        const std::uint64_t request = RequestId(c, i);
        const std::int64_t span = log->Record("core.QueryView", a, b, request);
        if (ops.replay[i]) Replay(&replayer, v, *result, log, span, request);
      }
    });
  }
  out.wall_s = RunTogether(bodies);
  out.rss_mb = PeakRssMiB();
  const auto timed_done = Clock::now();
  for (const auto& s : per_client) out.queries.Append(s);
  report->CountOps("serve.QueryView", out.queries);

  q::steiner::FastSolveStats after;
  for (const auto& e : replayer.engines) AddStats(e->stats(), &after);
  out.replay_stats.sp_cache_hits = after.sp_cache_hits - before.sp_cache_hits;
  out.replay_stats.sp_cache_misses =
      after.sp_cache_misses - before.sp_cache_misses;
  out.replay_rows = replayer.rows.load();
  out.replays = replayer.replays.load();
  if (replayer.mismatches.load() > 0) {
    report->Fail(std::to_string(replayer.mismatches.load()) +
                 " replayed requests differ from their QueryView result");
  }

  // Every view's fresh QueryView must equal its published output.
  for (std::size_t v = 0; v < q.num_views(); ++v) {
    auto fresh = q.QueryView(v);
    std::string why;
    if (!fresh.ok() ||
        !SameViewOutput(*fresh, *q.ReadView(v).state, true, &why)) {
      report->Fail("view " + std::to_string(v) +
                   ": fresh QueryView differs from ReadView (" + why + ")");
    }
  }
  const auto checks_done = Clock::now();
  sys.reset();
  for (int rep = 1; rep < kSetupReps; ++rep) set_up();
  PrintPhaseSeconds(phase_start, setup_done, timed_done, checks_done);
  return out;
}

}  // namespace

void RunServe(const RunOptions& options, Report* report) {
  const std::vector<ClientOps> schedule = MakeSchedule(options);
  PhaseResult base = RunPhase(schedule, nullptr, report);
  if (!report->ok()) return;
  if (!options.trace) {
    ReportEndToEnd(base.setup_s, base.queries, base.wall_s, base.rss_mb,
                   report);
    return;
  }

  Trace trace;
  PhaseResult traced = RunPhase(schedule, &trace, report);
  if (!report->ok()) return;
  ReportTraceOverhead(base.queries, traced.queries, report);
  const auto topk = trace.SelfMs("steiner.TopKSteinerTrees");
  report->SetPercentile("steiner.topk_p50_ms", topk, 50);
  report->SetPercentile("steiner.topk_p99_ms", topk, 99);
  report->SetRatio("steiner.sp_hit_ratio",
                   static_cast<double>(traced.replay_stats.sp_cache_hits),
                   static_cast<double>(traced.replay_stats.sp_cache_hits +
                                       traced.replay_stats.sp_cache_misses));
  report->SetPercentile("query.compile_p50_ms",
                        trace.SumMsPerRequest("query.CompileTree"), 50);
  const auto execute = trace.SumMsPerRequest("query.Execute");
  report->SetPercentile("query.execute_p50_ms", execute, 50);
  report->SetPercentile("query.execute_p99_ms", execute, 99);
  report->SetRatio("query.rows_per_request",
                   static_cast<double>(traced.replay_rows),
                   static_cast<double>(traced.replays));
  report->SetPercentile("query.union_p50_ms",
                        trace.DurationMs("query.DisjointUnion"), 50);
  report->SetPercentile("graph.alpha_ball_p50_ms",
                        trace.DurationMs("graph.Dijkstra"), 50);
  // Self time of the replayed requests only: the others have no children.
  const auto self = trace.SelfMs("core.QueryView", /*replayed_only=*/true);
  report->SetPercentile("core.query_view_self_p50_ms", self, 50);
  report->SetPercentile("core.query_view_self_p99_ms", self, 99);
  report->Set("match.initial_alignment_s", Median(traced.initial_alignment_s),
              traced.initial_alignment_s.size());
  report->Set("core.create_views_s", Median(traced.create_views_s),
              traced.create_views_s.size());
  WriteTrace(trace, options, report);
}

}  // namespace qbench
