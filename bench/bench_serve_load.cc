// YCSB-style concurrent serving load harness (docs/benchmarks.md,
// "Concurrent serving load"): N query workers run QueryView (a copy of
// the view's published snapshot) and ReadView, Zipfian-skewed over the
// view set, while one feedback writer applies MIRA updates at a
// configurable pace. Workers
// start on a spin barrier, count ops per worker, and record per-op
// latencies; the driver reports aggregate ops/sec and p50/p95/p99.
//
// Doubles as a correctness gate: after the timed window it drains the
// async pipeline and (a) re-runs a fresh QueryView per view, which must
// be bit-identical to the published snapshot, and (b) replays the
// committed feedback sequence on a twin synchronous QSystem, whose
// published state must match bit for bit. Divergence exits 2.
//
// Usage: bench_serve_load [--json=PATH] [--smoke] [--readers=N]
//                         [--duration-ms=N] [--writer-pause-ms=N]
//                         [--read-mix=F] [--register-mix=F] [--views=N]
//                         [--zipf-theta=F] [--seed=N] [--sources=N]
//
// --sources=N grows the search graph by N streaming-catalog sources
// (data/synthetic.h) before any view exists and turns on the sharded
// terminal-local search, so the same serving mix replays against a
// 100k-source catalog: the gates (bit-identity under concurrency, query
// p95) must hold with the graph two-plus orders of magnitude bigger
// than the serving views' own sources.
//
// --register-mix=F makes the writer register a brand-new vocabulary-
// disjoint source (data/onboarding.h) instead of applying feedback with
// probability F — the streaming-onboarding serving mix, where each ack
// rebuilds every view beside its slot (docs/query_engine.md, "Streaming
// onboarding contract"). The twin replays the same registrations and
// endorsed trees, and must match bit for bit, tree edge ids included.
//
// JSON-lines schema (one object per line, shared with scripts/check.sh's
// perf gate — the gate parses "kernel" and "median_us"):
//   {"kernel":"serve_load_query_p50_us","n":<query_ops>,"median_us":<us>}
//   {"kernel":"serve_load_query_p95_us","n":<query_ops>,"median_us":<us>}
//   {"kernel":"serve_load_query_p99_us","n":<query_ops>,"median_us":<us>}
//   {"kernel":"serve_load_read_p99_us","n":<read_ops>,"median_us":<us>}
//   {"kernel":"serve_load_ops_per_sec","n":<total_ops>,"median_us":<ops>}
// serve_load_ops_per_sec carries throughput (higher is better) in the
// shared field; check.sh applies an inverted gate to it.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "data/onboarding.h"
#include "data/synthetic.h"
#include "steiner/fast_solver.h"
#include "steiner/shard.h"

namespace q::bench {
namespace {

struct LoadConfig {
  int readers = 4;            // concurrent query workers (acceptance floor)
  int duration_ms = 2000;     // timed window
  int writer_pause_ms = 5;    // writer think time between feedback ops
  double read_mix = 0.7;      // fraction of reader ops that are QueryView
  double register_mix = 0.0;  // fraction of writer ops that register sources
  std::size_t num_views = 16;
  double zipf_theta = 0.99;   // YCSB default skew
  std::uint64_t seed = 42;
  std::size_t extra_sources = 0;  // streaming catalog growth (--sources)
  const char* json_path = "bench/out/BENCH_serve_load.json";
  bool smoke = false;
};

// Standard YCSB Zipfian generator over [0, n): item 0 is the hottest key.
// Hand-rolled (util::Rng has no built-in skewed distribution); the
// incremental-zeta shortcut is unnecessary since n is tiny.
class ZipfianGenerator {
 public:
  ZipfianGenerator(std::size_t n, double theta, std::uint64_t seed)
      : n_(n), theta_(theta), rng_(seed) {
    for (std::size_t i = 1; i <= n_; ++i) {
      zetan_ += 1.0 / std::pow(static_cast<double>(i), theta_);
    }
    const double zeta2 = 1.0 + std::pow(0.5, theta_);
    alpha_ = 1.0 / (1.0 - theta_);
    eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n_), 1.0 - theta_)) /
           (1.0 - zeta2 / zetan_);
  }

  std::size_t Next() {
    const double u = rng_.UniformDouble();
    const double uz = u * zetan_;
    if (uz < 1.0) return 0;
    if (uz < 1.0 + std::pow(0.5, theta_)) return 1;
    auto v = static_cast<std::size_t>(
        static_cast<double>(n_) * std::pow(eta_ * u - eta_ + 1.0, alpha_));
    return v >= n_ ? n_ - 1 : v;
  }

 private:
  std::size_t n_;
  double theta_;
  double zetan_ = 0.0;
  double alpha_ = 0.0;
  double eta_ = 0.0;
  util::Rng rng_;
};

struct WorkerResult {
  std::uint64_t query_ops = 0;
  std::uint64_t read_ops = 0;
  std::uint64_t failures = 0;
  std::uint64_t stale_reads = 0;
  // Solver scratch arena bytes retained by this worker's thread at the
  // end of its loop (thread_local — must be read on the worker thread).
  std::size_t scratch_bytes = 0;
  std::vector<double> query_us;
  std::vector<double> read_us;
};

// One committed writer event, in commit order, for the twin replay.
struct WriterEvent {
  enum Kind { kFeedback, kRegister } kind = kFeedback;
  std::size_t view_id = 0;
  steiner::SteinerTree endorsed;
  std::size_t source_serial = 0;  // kRegister: MakeDisjointSource serial
};

data::InterProGoConfig DatasetConfig(bool smoke) {
  data::InterProGoConfig config;
  config.num_go_terms = smoke ? 80 : 120;
  config.num_entries = smoke ? 60 : 90;
  config.num_pubs = smoke ? 50 : 80;
  config.num_journals = 10;
  config.num_methods = smoke ? 40 : 60;
  config.interpro2go_links = smoke ? 120 : 200;
  config.entry2pub_links = smoke ? 100 : 160;
  config.method2pub_links = smoke ? 80 : 120;
  return config;
}

struct Serving {
  data::InterProGoDataset dataset;
  std::unique_ptr<core::QSystem> q;
  std::vector<std::size_t> view_ids;

  Serving(const LoadConfig& load, bool async) {
    dataset = data::BuildInterProGo(DatasetConfig(load.smoke));
    core::QSystemConfig config;
    config.view.query_graph.min_similarity = 0.5;
    config.view.query_graph.max_matches_per_keyword = 6;
    // Per-search solving stays sequential: the measured concurrency is
    // many whole searches sharing one engine, the serving-path shape.
    config.steiner_threads = -1;
    // At catalog scale the per-query win is touching only the shards
    // the view's keywords reach (bit-identical output; see
    // docs/architecture.md, "Memory layout and sharding").
    config.sharded_search = load.extra_sources > 0;
    config.async_refresh = async;
    config.async_repair_threads = async ? 2 : 0;
    q = std::make_unique<core::QSystem>(config);
    for (const auto& src : dataset.catalog.sources()) {
      Q_CHECK_OK(q->RegisterSource(src));
    }
    Q_CHECK_OK(q->RunInitialAlignment());
    if (load.extra_sources > 0) {
      // Streaming growth lands after the matcher bootstrap (its sources
      // arrive pre-associated, so no quadratic matcher pass) and before
      // any view exists (per-view engines snapshot the graph at
      // CreateView). Both the async system and the synchronous twin run
      // this with the same seed, so the twin replay's bit-identity
      // check spans the grown graph too.
      q::util::Rng grow_rng(load.seed * 7919 + 11);
      q::data::StreamingCatalogOptions options;
      Q_CHECK_OK(q::data::BuildStreamingCatalog(
          load.extra_sources, options, &grow_rng, /*catalog=*/nullptr,
          &q->cost_model(), &q->mutable_search_graph()));
    }
    for (std::size_t i = 0; i < load.num_views; ++i) {
      auto id = q->CreateView(
          dataset.keyword_queries[i % dataset.keyword_queries.size()]);
      Q_CHECK_OK(id.status());
      view_ids.push_back(*id);
    }
  }
};

double Percentile(std::vector<double>* sorted_in_place, double p) {
  if (sorted_in_place->empty()) return 0.0;
  std::sort(sorted_in_place->begin(), sorted_in_place->end());
  const auto idx = static_cast<std::size_t>(
      p * static_cast<double>(sorted_in_place->size() - 1) + 0.5);
  return (*sorted_in_place)[idx];
}

bool SameViewState(const query::ViewSnapshot& a, const query::ViewSnapshot& b,
                   const char* label) {
  bool same = a.trees.size() == b.trees.size() &&
              a.results.columns == b.results.columns &&
              a.results.rows.size() == b.results.rows.size();
  for (std::size_t i = 0; same && i < a.trees.size(); ++i) {
    same = a.trees[i].edges == b.trees[i].edges &&
           a.trees[i].cost == b.trees[i].cost;
  }
  for (std::size_t i = 0; same && i < a.results.rows.size(); ++i) {
    same = a.results.rows[i].cost == b.results.rows[i].cost &&
           a.results.rows[i].query_index == b.results.rows[i].query_index &&
           a.results.rows[i].values == b.results.rows[i].values;
  }
  if (!same) std::fprintf(stderr, "DIVERGENCE: %s\n", label);
  return same;
}

int Run(const LoadConfig& load) {
  Serving serving(load, /*async=*/true);
  core::QSystem& q = *serving.q;
  const std::size_t num_views = serving.view_ids.size();

  std::atomic<bool> go{false};
  std::atomic<bool> stop{false};
  std::atomic<int> ready{0};
  std::vector<WorkerResult> results(static_cast<std::size_t>(load.readers));
  std::vector<std::thread> workers;

  using Clock = std::chrono::steady_clock;
  for (int w = 0; w < load.readers; ++w) {
    workers.emplace_back([&, w] {
      WorkerResult& out = results[static_cast<std::size_t>(w)];
      out.query_us.reserve(1 << 15);
      out.read_us.reserve(1 << 15);
      ZipfianGenerator zipf(num_views, load.zipf_theta,
                            load.seed * 131 + static_cast<std::uint64_t>(w));
      util::Rng rng(load.seed + 1000 + static_cast<std::uint64_t>(w));
      ready.fetch_add(1, std::memory_order_release);
      while (!go.load(std::memory_order_acquire)) {
        // spin: all workers enter the timed window together
      }
      while (!stop.load(std::memory_order_acquire)) {
        const std::size_t view = serving.view_ids[zipf.Next()];
        if (rng.UniformDouble() < load.read_mix) {
          const auto t0 = Clock::now();
          auto result = q.QueryView(view);
          const auto t1 = Clock::now();
          if (!result.ok() || result->trees.empty()) {
            ++out.failures;
            continue;
          }
          out.query_us.push_back(
              std::chrono::duration<double, std::micro>(t1 - t0).count());
          ++out.query_ops;
        } else {
          const auto t0 = Clock::now();
          query::ViewResult read = q.ReadView(view);
          const auto t1 = Clock::now();
          if (read.state == nullptr) {
            ++out.failures;
            continue;
          }
          if (read.stale) ++out.stale_reads;
          out.read_us.push_back(
              std::chrono::duration<double, std::micro>(t1 - t0).count());
          ++out.read_ops;
        }
      }
      // Solver arena plus the localizer's stamped Dijkstra scratch — the
      // whole per-thread serving footprint the budget gate bounds.
      out.scratch_bytes =
          steiner::ThreadScratchBytes() + steiner::LocalizerScratchBytes();
    });
  }

  // The writer: endorse a random tree of a random view — or, with
  // probability register_mix, register a brand-new disjoint source — wait,
  // repeat. Committed events are logged in order for the twin replay.
  std::vector<WriterEvent> log;
  std::uint64_t write_failures = 0;
  std::uint64_t registrations = 0;
  std::vector<double> register_ack_us;
  std::thread writer([&] {
    util::Rng rng(load.seed + 7);
    std::size_t next_serial = 0;
    while (!go.load(std::memory_order_acquire)) {
    }
    while (!stop.load(std::memory_order_acquire)) {
      if (load.register_mix > 0.0 &&
          rng.UniformDouble() < load.register_mix) {
        WriterEvent event;
        event.kind = WriterEvent::kRegister;
        event.source_serial = next_serial++;
        const auto t0 = Clock::now();
        if (q.RegisterAndAlignSource(
                 data::MakeDisjointSource(event.source_serial))
                .ok()) {
          register_ack_us.push_back(
              std::chrono::duration<double, std::micro>(Clock::now() - t0)
                  .count());
          ++registrations;
          log.push_back(std::move(event));
        } else {
          ++write_failures;
        }
      } else {
        const std::size_t view =
            serving.view_ids[rng.Uniform(serving.view_ids.size())];
        query::ViewResult read = q.ReadView(view);
        if (read.state != nullptr && !read.state->trees.empty()) {
          WriterEvent event;
          event.view_id = view;
          event.endorsed =
              read.state->trees[rng.Uniform(read.state->trees.size())];
          if (q.ApplyFeedback(view, event.endorsed).ok()) {
            log.push_back(std::move(event));
          } else {
            ++write_failures;
          }
        }
      }
      if (load.writer_pause_ms > 0) {
        std::this_thread::sleep_for(
            std::chrono::milliseconds(load.writer_pause_ms));
      }
    }
  });

  while (ready.load(std::memory_order_acquire) < load.readers) {
  }
  const auto window_start = Clock::now();
  go.store(true, std::memory_order_release);
  std::this_thread::sleep_for(std::chrono::milliseconds(load.duration_ms));
  stop.store(true, std::memory_order_release);
  for (auto& t : workers) t.join();
  writer.join();
  const double window_s =
      std::chrono::duration<double>(Clock::now() - window_start).count();

  // --- aggregate -----------------------------------------------------------
  WorkerResult total;
  std::vector<double> query_us;
  std::vector<double> read_us;
  std::printf("%-8s %12s %12s %10s %12s\n", "worker", "query_ops",
              "read_ops", "failures", "stale_reads");
  for (std::size_t w = 0; w < results.size(); ++w) {
    const WorkerResult& r = results[w];
    std::printf("%-8zu %12llu %12llu %10llu %12llu\n", w,
                static_cast<unsigned long long>(r.query_ops),
                static_cast<unsigned long long>(r.read_ops),
                static_cast<unsigned long long>(r.failures),
                static_cast<unsigned long long>(r.stale_reads));
    total.query_ops += r.query_ops;
    total.read_ops += r.read_ops;
    total.failures += r.failures;
    total.stale_reads += r.stale_reads;
    query_us.insert(query_us.end(), r.query_us.begin(), r.query_us.end());
    read_us.insert(read_us.end(), r.read_us.begin(), r.read_us.end());
  }
  const std::uint64_t total_ops = total.query_ops + total.read_ops;
  const double ops_per_sec =
      window_s > 0.0 ? static_cast<double>(total_ops) / window_s : 0.0;
  const double q_p50 = Percentile(&query_us, 0.50);
  const double q_p95 = Percentile(&query_us, 0.95);
  const double q_p99 = Percentile(&query_us, 0.99);
  const double r_p99 = Percentile(&read_us, 0.99);
  std::printf(
      "readers=%d window_s=%.2f ops/sec=%.0f writes=%zu write_failures=%llu\n",
      load.readers, window_s, ops_per_sec, log.size(),
      static_cast<unsigned long long>(write_failures));
  if (load.register_mix > 0.0) {
    std::printf("registrations=%llu ack p50=%.1fus (register-mix=%.2f)\n",
                static_cast<unsigned long long>(registrations),
                Percentile(&register_ack_us, 0.50), load.register_mix);
  }
  std::printf("query p50=%.1fus p95=%.1fus p99=%.1fus   read p99=%.1fus\n",
              q_p50, q_p95, q_p99, r_p99);
  std::size_t scratch_peak = 0;
  for (const WorkerResult& r : results) {
    scratch_peak = std::max(scratch_peak, r.scratch_bytes);
  }
  std::printf("solver scratch peak: %.2f MiB across %d workers\n",
              static_cast<double>(scratch_peak) / (1024.0 * 1024.0),
              load.readers);
  if (load.extra_sources > 0) {
    // Footprint gate for catalog-scale serving: the scratch shrink
    // policy (steiner/fast_solver.cc) must keep each worker's arena at
    // worst one full-graph solve's working set — a fixed base plus a
    // small per-node budget. Without the policy a single hub query pins
    // the high-water arrays for the thread's lifetime, and growth across
    // the --sources tiers is unbounded.
    const std::size_t budget =
        (std::size_t{16} << 20) +
        std::size_t{128} * q.mutable_search_graph().num_nodes();
    if (scratch_peak > budget) {
      std::fprintf(stderr,
                   "FAIL: solver scratch peak %zu bytes exceeds budget %zu "
                   "(16 MiB + 128 B/node)\n",
                   scratch_peak, budget);
      return 2;
    }
  }
  if (total.query_ops == 0 || total.failures > 0) {
    std::fprintf(stderr,
                 "serve_load: %llu failures, %llu query ops — workers must "
                 "serve without errors\n",
                 static_cast<unsigned long long>(total.failures),
                 static_cast<unsigned long long>(total.query_ops));
    return 1;
  }

  // --- quiescent differential ---------------------------------------------
  if (!q.DrainRefreshes().ok()) {
    std::fprintf(stderr, "serve_load: drain failed\n");
    return 2;
  }
  for (std::size_t id : serving.view_ids) {
    auto fresh = q.QueryView(id);
    if (!fresh.ok()) {
      std::fprintf(stderr, "serve_load: quiescent QueryView failed\n");
      return 2;
    }
    query::ViewResult published = q.ReadView(id);
    std::string label = "quiescent query vs published, view " +
                        std::to_string(id);
    if (!SameViewState(*fresh, *published.state, label.c_str())) return 2;
  }
  Serving twin(load, /*async=*/false);
  for (const WriterEvent& event : log) {
    if (event.kind == WriterEvent::kRegister) {
      if (!twin.q
               ->RegisterAndAlignSource(
                   data::MakeDisjointSource(event.source_serial))
               .ok()) {
        std::fprintf(stderr, "serve_load: twin registration failed\n");
        return 2;
      }
      continue;
    }
    if (!twin.q->ApplyFeedback(event.view_id, event.endorsed).ok()) {
      std::fprintf(stderr, "serve_load: twin replay failed\n");
      return 2;
    }
  }
  for (std::size_t i = 0; i < serving.view_ids.size(); ++i) {
    std::string label = "async vs sync twin, view " + std::to_string(i);
    if (!SameViewState(*q.ReadView(serving.view_ids[i]).state,
                       *twin.q->ReadView(twin.view_ids[i]).state,
                       label.c_str())) {
      return 2;
    }
  }
  std::printf("differential: %zu replayed feedback events, %zu views "
              "bit-identical\n",
              log.size(), serving.view_ids.size());

  // --- JSON ----------------------------------------------------------------
  FILE* json = OpenBenchJson(load.json_path);
  if (json == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", load.json_path);
    return 1;
  }
  auto emit = [json](const char* kernel, std::uint64_t n, double value) {
    std::fprintf(json, "{\"kernel\":\"%s\",\"n\":%llu,\"median_us\":%.3f}\n",
                 kernel, static_cast<unsigned long long>(n), value);
  };
  emit("serve_load_query_p50_us", total.query_ops, q_p50);
  emit("serve_load_query_p95_us", total.query_ops, q_p95);
  emit("serve_load_query_p99_us", total.query_ops, q_p99);
  emit("serve_load_read_p99_us", total.read_ops, r_p99);
  emit("serve_load_ops_per_sec", total_ops, ops_per_sec);
  if (load.extra_sources > 0) {
    // Ungated context: per-worker solver scratch residency at catalog
    // scale (the --sources footprint gate above enforces the bound).
    emit("serve_load_scratch_peak_bytes",
         static_cast<std::uint64_t>(load.readers),
         static_cast<double>(scratch_peak));
  }
  std::fclose(json);
  return 0;
}

}  // namespace
}  // namespace q::bench

int main(int argc, char** argv) {
  q::bench::LoadConfig load;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--smoke") == 0) {
      load.smoke = true;
      load.duration_ms = 500;
      load.num_views = 8;
    } else if (std::strncmp(arg, "--json=", 7) == 0) {
      load.json_path = arg + 7;
    } else if (std::strncmp(arg, "--readers=", 10) == 0) {
      load.readers = std::atoi(arg + 10);
    } else if (std::strncmp(arg, "--duration-ms=", 14) == 0) {
      load.duration_ms = std::atoi(arg + 14);
    } else if (std::strncmp(arg, "--writer-pause-ms=", 18) == 0) {
      load.writer_pause_ms = std::atoi(arg + 18);
    } else if (std::strncmp(arg, "--read-mix=", 11) == 0) {
      load.read_mix = std::atof(arg + 11);
    } else if (std::strncmp(arg, "--register-mix=", 15) == 0) {
      load.register_mix = std::atof(arg + 15);
    } else if (std::strncmp(arg, "--views=", 8) == 0) {
      load.num_views = static_cast<std::size_t>(std::atoi(arg + 8));
    } else if (std::strncmp(arg, "--zipf-theta=", 13) == 0) {
      load.zipf_theta = std::atof(arg + 13);
    } else if (std::strncmp(arg, "--seed=", 7) == 0) {
      load.seed = static_cast<std::uint64_t>(std::atoll(arg + 7));
    } else if (std::strncmp(arg, "--sources=", 10) == 0) {
      load.extra_sources = static_cast<std::size_t>(std::atoll(arg + 10));
    } else {
      std::fprintf(stderr,
                   "usage: %s [--json=PATH] [--smoke] [--readers=N] "
                   "[--duration-ms=N] [--writer-pause-ms=N] [--read-mix=F] "
                   "[--register-mix=F] [--views=N] [--zipf-theta=F] "
                   "[--seed=N] [--sources=N]\n",
                   argv[0]);
      return 1;
    }
  }
  if (load.readers < 1 || load.num_views < 2 || load.duration_ms < 1) {
    std::fprintf(stderr, "serve_load: invalid config\n");
    return 1;
  }
  return q::bench::Run(load);
}
