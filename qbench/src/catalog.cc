// catalog: the masked, compacted solver at catalog scale. A 100k-source
// streaming catalog (data::BuildStreamingCatalog) and one
// FastSteinerEngine with sharded terminal-local search, shared by three
// closed-loop clients. Each client runs a seeded list of recent-source
// window top-k requests through TopKSteinerTrees. No layer above steiner
// is involved.
//
// Checks: a seeded sample of requests, re-solved by an unsharded engine,
// must match bit for bit, and no masked solve may bypass the compacted
// path. The traced run replays TerminalLocalizer construction plus
// Acquire() for every request; each mask must hold the request's
// terminals.

#include <memory>

#include "data/synthetic.h"
#include "graph/cost_model.h"
#include "schedule.h"
#include "steiner/fast_solver.h"
#include "steiner/shard.h"
#include "steiner/top_k.h"
#include "util/random.h"
#include "workloads.h"

namespace qbench {
namespace {

constexpr std::size_t kSources = 100000;
constexpr std::size_t kClients = 3;
constexpr int kCatalogSetupReps = 3;
// The catalog itself is fixed; --seed drives the request lists.
constexpr std::uint64_t kCatalogSeed = 9100;
// Requests per client per --seconds second.
constexpr std::size_t kRequestsPerClientPerSecond = 300;
// Requests per client re-solved unsharded by the check.
constexpr std::size_t kVerifiedPerClient = 2;

q::steiner::TopKConfig RequestConfig(bool sharded) {
  q::steiner::TopKConfig config;
  config.k = 3;
  config.max_subproblems = 300;
  config.sharded.enabled = sharded;
  return config;
}

struct CatalogSystem {
  q::graph::FeatureSpace space;
  std::unique_ptr<q::graph::CostModel> model;
  q::graph::SearchGraph graph;
  std::unique_ptr<q::graph::WeightVector> weights;
  std::unique_ptr<q::steiner::FastSteinerEngine> engine;
  double setup_s = 0.0;
  double build_s = 0.0;
  double engine_s = 0.0;
};

std::unique_ptr<CatalogSystem> SetUp(Report* report) {
  auto sys = std::make_unique<CatalogSystem>();
  const auto t0 = Clock::now();
  sys->model = std::make_unique<q::graph::CostModel>(
      &sys->space, q::graph::CostModelConfig{});
  q::util::Rng rng(kCatalogSeed);
  if (!q::data::BuildStreamingCatalog(kSources,
                                      q::data::StreamingCatalogOptions{},
                                      &rng, /*catalog=*/nullptr,
                                      sys->model.get(), &sys->graph)
           .ok()) {
    report->Fail("BuildStreamingCatalog");
  }
  sys->weights = std::make_unique<q::graph::WeightVector>(&sys->space);
  const auto t1 = Clock::now();
  const q::steiner::TopKConfig config = RequestConfig(true);
  sys->engine = std::make_unique<q::steiner::FastSteinerEngine>(
      sys->graph, *sys->weights, config.use_sp_cache);
  sys->engine->Shards(config.sharded.target_shard_nodes);
  const auto t2 = Clock::now();
  // Warm-up: one request from a fixed window.
  const auto warm = WindowRequests(sys->graph, *sys->weights, 4321, 1);
  if (q::steiner::TopKSteinerTrees(sys->graph, *sys->weights, warm[0],
                                   config, sys->engine.get())
          .empty()) {
    report->Fail("warm-up request");
  }
  const auto t3 = Clock::now();
  sys->build_s = SecondsBetween(t0, t1);
  sys->engine_s = SecondsBetween(t1, t2);
  sys->setup_s = SecondsBetween(t0, t3);
  return sys;
}

struct PhaseResult {
  std::vector<double> setup_s;
  std::vector<double> build_s;
  std::vector<double> engine_s;
  LatencySeries requests;
  double wall_s = 0.0;
  double rss_mb = 0.0;
  double bytes_per_source = 0.0;
  std::vector<double> mask_nodes;
  q::steiner::FastSolveStats stats;
};

PhaseResult RunPhase(std::uint64_t seed, std::size_t requests_per_client,
                     Trace* trace, Report* report) {
  PhaseResult out;
  const auto phase_start = Clock::now();
  auto set_up = [&] {
    auto sys = SetUp(report);
    out.setup_s.push_back(sys->setup_s);
    out.build_s.push_back(sys->build_s);
    out.engine_s.push_back(sys->engine_s);
    return sys;
  };
  // The measured system is the process's first set-up; the other set-up
  // repetitions run after the checks, so they cannot touch peak RSS.
  std::unique_ptr<CatalogSystem> sys = set_up();
  if (!report->ok()) return out;
  const auto setup_done = Clock::now();
  const q::graph::SearchGraph& graph = sys->graph;
  const q::graph::WeightVector& weights = *sys->weights;
  q::steiner::FastSteinerEngine& engine = *sys->engine;
  out.bytes_per_source = static_cast<double>(graph.MemoryUsage().total()) /
                         static_cast<double>(kSources);

  // Schedule: generated against the built catalog, before timing.
  std::vector<std::vector<std::vector<q::graph::NodeId>>> requests(kClients);
  std::vector<std::vector<std::uint32_t>> verify(kClients);
  for (std::size_t c = 0; c < kClients; ++c) {
    requests[c] =
        WindowRequests(graph, weights, StreamSeed(seed, 600 + c),
                       requests_per_client);
    verify[c] = UniformSequence(StreamSeed(seed, 700 + c), requests_per_client,
                                kVerifiedPerClient);
  }

  const q::steiner::TopKConfig config = RequestConfig(true);
  const std::uint32_t shard_nodes = config.sharded.target_shard_nodes;
  const q::steiner::FastSolveStats before = engine.stats();
  std::vector<LatencySeries> per_client(kClients);
  std::vector<std::vector<std::vector<q::steiner::SteinerTree>>> kept(
      kClients);
  std::vector<std::vector<double>> mask_nodes(kClients);
  std::atomic<std::size_t> mask_misses{0};
  std::vector<std::function<void()>> bodies;
  for (std::size_t c = 0; c < kClients; ++c) {
    kept[c].resize(verify[c].size());
    SpanLog* log = trace != nullptr ? trace->NewLog() : nullptr;
    bodies.emplace_back([&, c, log] {
      for (std::size_t i = 0; i < requests[c].size(); ++i) {
        const auto& terminals = requests[c][i];
        const auto a = Clock::now();
        auto trees = q::steiner::TopKSteinerTrees(graph, weights, terminals,
                                                  config, &engine);
        const auto b = Clock::now();
        if (trees.empty()) {
          per_client[c].AddFailure();
          continue;
        }
        per_client[c].Add(MsBetween(a, b));
        for (std::size_t k = 0; k < verify[c].size(); ++k) {
          if (verify[c][k] == i) kept[c][k] = trees;
        }
        if (log == nullptr) continue;
        const std::uint64_t request = RequestId(c, i);
        const std::int64_t span =
            log->Record("steiner.TopKSteinerTrees", a, b, request);
        const auto la = Clock::now();
        q::steiner::TerminalLocalizer localizer(
            engine.Pin().csr, engine.Shards(shard_nodes), terminals);
        const q::steiner::TerminalLocalizer::Snapshot snap =
            localizer.Acquire();
        const auto lb = Clock::now();
        log->Record("steiner.TerminalLocalizer", la, lb, request, span);
        mask_nodes[c].push_back(static_cast<double>(snap.mask->nodes.size()));
        for (q::graph::NodeId t : terminals) {
          if (t >= snap.mask->in_mask.size() || !snap.mask->in_mask[t]) {
            mask_misses.fetch_add(1);
          }
        }
      }
    });
  }
  out.wall_s = RunTogether(bodies);
  out.rss_mb = PeakRssMiB();
  const auto timed_done = Clock::now();
  for (std::size_t c = 0; c < kClients; ++c) {
    out.requests.Append(per_client[c]);
    out.mask_nodes.insert(out.mask_nodes.end(), mask_nodes[c].begin(),
                          mask_nodes[c].end());
  }
  report->CountOps("catalog.TopKSteinerTrees", out.requests);
  const q::steiner::FastSolveStats after = engine.stats();
  out.stats.sp_cache_hits = after.sp_cache_hits - before.sp_cache_hits;
  out.stats.sp_cache_misses = after.sp_cache_misses - before.sp_cache_misses;
  out.stats.sp_local_hits = after.sp_local_hits - before.sp_local_hits;
  out.stats.sp_local_misses = after.sp_local_misses - before.sp_local_misses;
  out.stats.masked_bypasses = after.masked_bypasses - before.masked_bypasses;
  if (mask_misses.load() > 0) {
    report->Fail(std::to_string(mask_misses.load()) +
                 " replayed masks miss a request terminal");
  }
  if (after.masked_bypasses != 0) {
    report->Fail(std::to_string(after.masked_bypasses) +
                 " masked solves bypassed the compacted path");
  }
  if (!report->ok()) return out;

  // Re-solve the sampled requests unsharded: identical trees required.
  q::steiner::FastSteinerEngine plain(graph, weights, true);
  const q::steiner::TopKConfig plain_config = RequestConfig(false);
  for (std::size_t c = 0; c < kClients; ++c) {
    for (std::size_t k = 0; k < verify[c].size(); ++k) {
      const auto reference = q::steiner::TopKSteinerTrees(
          graph, weights, requests[c][verify[c][k]], plain_config, &plain);
      const auto& got = kept[c][k];
      bool same = got.size() == reference.size();
      for (std::size_t t = 0; same && t < got.size(); ++t) {
        same = got[t].edges == reference[t].edges &&
               got[t].cost == reference[t].cost;
      }
      if (!same) {
        report->Fail("client " + std::to_string(c) + " request " +
                     std::to_string(verify[c][k]) +
                     " differs from the unsharded solve");
      }
    }
  }
  const auto checks_done = Clock::now();
  sys.reset();
  for (int rep = 1; rep < kCatalogSetupReps; ++rep) set_up();
  PrintPhaseSeconds(phase_start, setup_done, timed_done, checks_done);
  return out;
}

}  // namespace

void RunCatalog(const RunOptions& options, Report* report) {
  const std::size_t per_client =
      kRequestsPerClientPerSecond * static_cast<std::size_t>(options.seconds);
  PhaseResult base = RunPhase(options.seed, per_client, nullptr, report);
  if (!report->ok()) return;
  if (!options.trace) {
    ReportEndToEnd(base.setup_s, base.requests, base.wall_s, base.rss_mb,
                   report);
    return;
  }

  Trace trace;
  PhaseResult traced = RunPhase(options.seed, per_client, &trace, report);
  if (!report->ok()) return;
  ReportTraceOverhead(base.requests, traced.requests, report);
  const auto topk = trace.SelfMs("steiner.TopKSteinerTrees");
  report->SetPercentile("steiner.topk_p50_ms", topk, 50);
  report->SetPercentile("steiner.topk_p99_ms", topk, 99);
  const auto& s = traced.stats;
  report->SetRatio("steiner.sp_hit_ratio",
                   static_cast<double>(s.sp_cache_hits),
                   static_cast<double>(s.sp_cache_hits + s.sp_cache_misses));
  report->SetPercentile("steiner.mask_nodes_p50", traced.mask_nodes, 50);
  report->SetPercentile("steiner.mask_nodes_p95", traced.mask_nodes, 95);
  report->SetPercentile("steiner.mask_build_p50_ms",
                        trace.DurationMs("steiner.TerminalLocalizer"), 50);
  report->SetRatio("steiner.local_hit_ratio",
                   static_cast<double>(s.sp_local_hits),
                   static_cast<double>(s.sp_local_hits + s.sp_local_misses));
  report->Set("steiner.masked_bypasses",
              static_cast<double>(s.masked_bypasses),
              traced.requests.attempted());
  report->Set("graph.bytes_per_source", traced.bytes_per_source, kSources);
  report->Set("graph.catalog_build_s", Median(traced.build_s),
              traced.build_s.size());
  report->Set("steiner.engine_build_s", Median(traced.engine_s),
              traced.engine_s.size());
  WriteTrace(trace, options, report);
}

}  // namespace qbench
