#include "report.h"

#include <cmath>
#include <cstdlib>

namespace qbench {

namespace {

constexpr MetricKind kE2E = MetricKind::kEndToEnd;
constexpr MetricKind kR = MetricKind::kReport;
constexpr MetricKind kL = MetricKind::kLayer;

const std::vector<MetricDef> kMetrics = {
    // --- end to end, every workload -------------------------------------
    {"setup_s", "s", "lower", kE2E, "all", "",
     "median over set-up repetitions: dataset load, registration, bootstrap "
     "alignment, catalog growth and engine build, view creation, initial "
     "drain and warm-up (schedule generation excluded)"},
    {"query_p50_ms", "ms", "lower", kE2E, "all", "",
     "median latency of one query request (QSystem::QueryView; "
     "TopKSteinerTrees on the shared engine for catalog)"},
    {"query_p90_ms", "ms", "lower", kE2E, "all", "", "p90 of the same"},
    {"query_per_s", "1/s", "higher", kE2E, "all", "",
     "completed query requests per second over the timed phase, at the "
     "workload's fixed client count (on onboard, over the reader's reading "
     "windows)"},
    {"rss_peak_mb", "MiB", "lower", kE2E, "all", "",
     "peak resident set, read before any correctness twin is built"},
    // --- end to end, printed only -----------------------------------------
    {"query_p99_ms", "ms", "lower", kR, "all", "", "p99 of the query latency"},
    {"feedback_ack_p50_ms", "ms", "lower", kR, "feedback", "",
     "ApplyFeedback call to its return"},
    {"feedback_ack_p90_ms", "ms", "lower", kR, "feedback", "",
     "p90 of the same"},
    {"feedback_fresh_p50_ms", "ms", "lower", kR, "feedback", "",
     "ApplyFeedback call until the following DrainRefreshes returns"},
    {"feedback_fresh_p90_ms", "ms", "lower", kR, "feedback", "",
     "p90 of the same"},
    {"register_ack_p50_ms", "ms", "lower", kR, "onboard", "",
     "RegisterAndAlignSource call to its return"},
    {"register_ack_p80_ms", "ms", "lower", kR, "onboard", "",
     "p80 of the same"},
    {"register_fresh_p50_ms", "ms", "lower", kR, "onboard", "",
     "RegisterAndAlignSource call until the following DrainRefreshes "
     "returns: the earliest the source can appear in a view"},
    {"register_fresh_p80_ms", "ms", "lower", kR, "onboard", "",
     "p80 of the same"},
    // --- per layer: serve (replayed QueryView layers) --------------------
    {"steiner.topk_p50_ms", "ms", "lower", kL, "serve, catalog",
     "query_p50_ms",
     "self time of TopKSteinerTrees (replayed on serve, the request itself "
     "on catalog)"},
    {"steiner.topk_p99_ms", "ms", "lower", kL, "serve, catalog",
     "query_p99_ms", "p99 of the same"},
    {"steiner.sp_hit_ratio", "ratio", "higher", kL, "serve, catalog",
     "query_p50_ms",
     "sp_cache_hits / (hits + misses) of the bench-owned engines"},
    {"query.compile_p50_ms", "ms", "lower", kL, "serve", "query_p50_ms",
     "replayed CompileTree, summed per request"},
    {"query.execute_p50_ms", "ms", "lower", kL, "serve", "query_p50_ms",
     "replayed Executor::Execute, summed per request"},
    {"query.execute_p99_ms", "ms", "lower", kL, "serve", "query_p99_ms",
     "p99 of the same"},
    {"query.rows_per_request", "count", "lower", kL, "serve",
     "query.execute_p50_ms", "rows entering DisjointUnion per request"},
    {"query.union_p50_ms", "ms", "lower", kL, "serve", "query_p50_ms",
     "replayed DisjointUnion"},
    {"graph.alpha_ball_p50_ms", "ms", "lower", kL, "serve", "query_p50_ms",
     "replayed SearchGraph::Dijkstra for the certificate's anchor ball"},
    {"core.query_view_self_p50_ms", "ms", "lower", kL, "serve",
     "query_p50_ms",
     "QueryView span minus its replayed children: serving gate, pin and "
     "weight capture, contention"},
    {"core.query_view_self_p99_ms", "ms", "lower", kL, "serve",
     "query_p99_ms", "p99 of the same"},
    // --- per layer: feedback ----------------------------------------------
    {"learn.mira_p50_ms", "ms", "lower", kL, "feedback",
     "feedback_ack_p50_ms",
     "MiraLearner::Update replayed on a copy of weights()"},
    {"learn.features_touched", "count", "lower", kL, "feedback",
     "core.edges_repriced_per_feedback",
     "MiraUpdateInfo::features_touched of the replay, per feedback"},
    {"core.feedback_self_p50_ms", "ms", "lower", kL, "feedback",
     "feedback_ack_p50_ms",
     "ApplyFeedback span minus the MIRA replay of the same op: journal "
     "record and per-view classification"},
    {"core.feedback_self_p90_ms", "ms", "lower", kL, "feedback",
     "feedback_ack_p90_ms", "p90 of the same"},
    {"core.drain_p50_ms", "ms", "lower", kL, "feedback",
     "feedback_fresh_p50_ms", "DrainRefreshes span after each ack"},
    {"core.repairs_per_feedback", "count", "lower", kL, "feedback",
     "feedback_fresh_p50_ms",
     "AsyncRefreshStats repairs_run / feedback_rounds"},
    {"core.gate_skip_ratio", "ratio", "higher", kL, "feedback",
     "feedback_fresh_p50_ms",
     "views_skipped_irrelevant / relevance_checks"},
    {"core.delta_recost_share", "ratio", "higher", kL, "feedback",
     "feedback_fresh_p50_ms",
     "views_delta_recost / (delta + full re-costs)"},
    {"core.edges_repriced_per_feedback", "count", "lower", kL, "feedback",
     "feedback_fresh_p50_ms", "edges_repriced / feedback rounds"},
    {"core.sp_retained_ratio", "ratio", "higher", kL, "feedback",
     "feedback_fresh_p50_ms",
     "sp_cache_entries_retained / (retained + dropped)"},
    {"core.serial_repairs", "count", "lower", kL, "feedback",
     "feedback_ack_p90_ms", "AsyncRefreshStats serial_repairs"},
    // --- per layer: onboard -------------------------------------------------
    {"align.wall_p50_ms", "ms", "lower", kL, "onboard", "register_ack_p50_ms",
     "AlignerStats::wall_ms per registration"},
    {"align.comparisons_per_source", "count", "lower", kL, "onboard",
     "align.wall_p50_ms", "AlignerStats::attribute_comparisons per "
     "registration"},
    {"match.metadata_comparisons_per_source", "count", "lower", kL,
     "onboard", "align.wall_p50_ms",
     "metadata Matcher::stats() comparisons per registration"},
    {"match.mad_comparisons_per_source", "count", "lower", kL, "onboard",
     "align.wall_p50_ms", "MAD Matcher::stats() comparisons per "
     "registration"},
    {"text.fingerprint_p50_ms", "ms", "lower", kL, "onboard",
     "register_ack_p50_ms",
     "KeywordMatchFingerprint replayed for every open view after each "
     "registration, summed per registration"},
    {"core.register_self_p50_ms", "ms", "lower", kL, "onboard",
     "register_ack_p50_ms",
     "RegisterAndAlignSource span minus align wall time of the same op"},
    {"core.structural_skip_ratio", "ratio", "higher", kL, "onboard",
     "register_fresh_p50_ms", "structural_skips / (skips + rebuilds)"},
    {"core.rebuilds_per_source", "count", "lower", kL, "onboard",
     "register_fresh_p50_ms, query_p99_ms",
     "structural_rebuilds / structural_rounds"},
    {"core.register_drain_p50_ms", "ms", "lower", kL, "onboard",
     "register_fresh_p50_ms", "DrainRefreshes span after each registration"},
    // --- per layer: catalog -------------------------------------------------
    {"steiner.mask_nodes_p50", "count", "lower", kL, "catalog",
     "query_p99_ms", "ShardMask nodes from the replayed TerminalLocalizer"},
    {"steiner.mask_nodes_p95", "count", "lower", kL, "catalog",
     "query_p99_ms", "p95 of the same"},
    {"steiner.mask_build_p50_ms", "ms", "lower", kL, "catalog",
     "query_p50_ms",
     "replayed TerminalLocalizer construction plus Acquire"},
    {"steiner.local_hit_ratio", "ratio", "higher", kL, "catalog",
     "query_p50_ms", "sp_local_hits / (hits + misses)"},
    {"steiner.masked_bypasses", "count", "lower", kL, "catalog",
     "query_p99_ms", "FastSolveStats masked_bypasses (must stay 0)"},
    {"graph.bytes_per_source", "B", "lower", kL, "catalog", "rss_peak_mb",
     "SearchGraph::MemoryUsage().total() / sources"},
    {"graph.catalog_build_s", "s", "lower", kL, "catalog", "setup_s",
     "BuildStreamingCatalog span"},
    {"steiner.engine_build_s", "s", "lower", kL, "catalog", "setup_s",
     "FastSteinerEngine construction plus Shards()"},
    // --- per layer: set-up ------------------------------------------------
    {"match.initial_alignment_s", "s", "lower", kL, "serve, onboard",
     "setup_s", "RunInitialAlignment span"},
    {"core.create_views_s", "s", "lower", kL, "serve, feedback, onboard",
     "setup_s", "CreateView spans plus the initial drain"},
    // --- tracing itself ---------------------------------------------------
    {"trace.query_p50_overhead_ms", "ms", "lower", kL, "all", "",
     "traced query_p50_ms minus untraced query_p50_ms of the same seed"},
};

std::string JsonNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

const std::vector<MetricDef>& MetricTable() { return kMetrics; }

const MetricDef* FindMetric(std::string_view name) {
  for (const MetricDef& def : kMetrics) {
    if (name == def.name) return &def;
  }
  return nullptr;
}

const MetricDef& Report::Def(std::string_view name) {
  const MetricDef* def = FindMetric(name);
  if (def == nullptr) {
    std::fprintf(stderr, "qbench: unknown metric %.*s\n",
                 static_cast<int>(name.size()), name.data());
    std::abort();
  }
  return *def;
}

void Report::Set(std::string_view name, double value, std::size_t samples) {
  Def(name);
  if (!std::isfinite(value)) {
    Fail(std::string(name) + " is not finite");
    return;
  }
  Value& v = values_[std::string(name)];
  v.value = value;
  v.samples = samples;
  v.beyond = 0;
  v.reached = true;
}

void Report::SetPercentile(std::string_view name,
                           const std::vector<double>& samples, int pct) {
  Def(name);
  PercentileResult p;
  if (!Percentile(samples, pct, &p)) {
    Fail(std::string(name) + ": p" + std::to_string(pct) + " of " +
         std::to_string(p.samples) + " samples has " +
         std::to_string(p.beyond) + " beyond it (need " +
         std::to_string(kMinBeyond) + ")");
    return;
  }
  Set(name, p.value, p.samples);
  values_[std::string(name)].beyond = p.beyond;
}

void Report::SetRatio(std::string_view name, double num, double den) {
  Set(name, den > 0.0 ? num / den : 0.0, static_cast<std::size_t>(den));
}

void Report::NotReached(std::string_view name) {
  Def(name);
  Value& v = values_[std::string(name)];
  v = Value{};
  v.reached = false;
}

void Report::CountOps(const std::string& op, std::size_t attempted,
                      std::size_t failed) {
  Ops& o = ops_[op];
  o.attempted += attempted;
  o.failed += failed;
  if (failed > 0) {
    Fail(op + ": " + std::to_string(failed) + " of " +
         std::to_string(attempted) + " ops failed");
  }
}

void Report::Fail(const std::string& why) { failures_.push_back(why); }

void Report::FillNotReached() {
  for (const MetricDef& def : kMetrics) {
    if (def.kind == MetricKind::kLayer && values_.count(def.name) == 0) {
      NotReached(def.name);
    }
  }
}

void Report::PrintHuman(FILE* out, bool layers) const {
  for (const auto& [op, o] : ops_) {
    std::fprintf(out, "ops %-28s attempted=%zu failed=%zu\n", op.c_str(),
                 o.attempted, o.failed);
  }
  for (const MetricDef& def : kMetrics) {
    const bool layer = def.kind == MetricKind::kLayer;
    if (layer != layers) continue;
    auto it = values_.find(def.name);
    if (it == values_.end()) continue;
    const Value& v = it->second;
    if (!v.reached) {
      std::fprintf(out, "metric %-38s not reached by this workload\n",
                   def.name);
      continue;
    }
    std::fprintf(out, "metric %-38s %14.6f %-6s better=%-6s n=%zu", def.name,
                 v.value, def.unit, def.better, v.samples);
    if (v.beyond > 0) std::fprintf(out, " beyond=%zu", v.beyond);
    if (layer && def.moves[0] != '\0') {
      std::fprintf(out, " moves=%s", def.moves);
    }
    std::fprintf(out, "\n");
  }
  for (const std::string& f : failures_) {
    std::fprintf(out, "FAILED: %s\n", f.c_str());
  }
}

bool Report::PrintResultLine(FILE* out, MetricKind kind) const {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  for (const auto& [op, o] : ops_) {
    attempted += o.attempted;
    failed += o.failed;
  }
  std::string metrics;
  bool correct = ok();
  if (correct) {
    for (const MetricDef& def : kMetrics) {
      if (def.kind != kind) continue;
      auto it = values_.find(def.name);
      if (it == values_.end()) {
        std::fprintf(stderr, "qbench: metric %s was not measured\n",
                     def.name);
        correct = false;
        break;
      }
      if (!metrics.empty()) metrics += ", ";
      metrics += "\"" + std::string(def.name) + "\": {\"value\": " +
                 JsonNumber(it->second.value) + ", \"unit\": \"" + def.unit +
                 "\"}";
    }
  }
  if (!correct) metrics.clear();
  std::fprintf(out,
               "{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
               "\"metrics\": {%s}}\n",
               correct ? "true" : "false", attempted, failed,
               metrics.c_str());
  std::fflush(out);
  return correct;
}

}  // namespace qbench
