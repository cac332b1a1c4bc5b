// Cold start vs warm restart (docs/persistence.md warm-restart contract),
// measured on the Sec. 5.1.2 scaling setup: a small InterPro-GO base grown
// with N two-attribute synthetic sources.
//
// Boot-time kernels (time until the system can accept queries):
//   warm_restart_cold_boot_N    re-ingest every source, matcher bootstrap
//                               over the base, then replay the recorded
//                               association candidates. This is the
//                               *charitable* cold path: it assumes a
//                               perfect external log of the associations
//                               the matchers + feedback loop discovered.
//   warm_restart_realign_N      the honest no-snapshot recovery: re-ingest
//                               everything and re-run the full-catalog
//                               matcher bootstrap (RunInitialAlignment) to
//                               rediscover associations from scratch. The
//                               bootstrap is superlinear in catalog size
//                               (all-pairs attribute matching), so this is
//                               only measured at n <= realign cap — at 10k
//                               sources it is exactly the hours-scale cost
//                               the snapshot exists to skip.
//   warm_restart_warm_boot_N    QSystem::OpenFromSnapshot: decode + verify
//                               checksums + rebuild indexes. No alignment,
//                               no MAD; associations and learned weights
//                               come back as data.
//   warm_restart_save_N         SaveSnapshot (quiesce + encode + fsync).
//
// First-query kernels (lazy view creation; the warm-restart contract says
// views are *not* persisted, so both sides pay this on first use — the
// pair demonstrates parity, not speedup):
//   warm_restart_first_query_cold_N / warm_restart_first_query_warm_N
//
// Speedup lines:
//   warm_restart_speedup          cold_boot / warm_boot (scripts/check.sh
//                                 fails under 0.9x, warns under 1.25x)
//   warm_restart_realign_speedup  realign / warm_boot, where measured
//                                 (check.sh warns under 10x)
//
// Correctness gate: the warm system's restore must report complete() and
// its lazily recreated view must be bit-identical (costs + row values) to
// the cold system's — the binary exits non-zero otherwise.
//
// Usage: bench_warm_restart [--json=PATH] [--smoke] [--scales=N,M,...]
//   --smoke runs 200/2000; the full run 400/1000/10000. (n=1000 sits near
//   the cold-replay/warm crossover, so the smoke scales bracket it.)

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "core/q_system.h"
#include "data/interpro_go.h"
#include "data/synthetic.h"
#include "match/matcher.h"
#include "persist/snapshot.h"
#include "util/env.h"
#include "util/random.h"
#include "util/timer.h"

namespace {

bool g_smoke = false;

// The full-catalog matcher bootstrap is roughly quadratic in the number
// of attributes (measured: 137ms at n=100, 558ms at 200, 2.3s at 400),
// so the honest-recovery kernel is only run up to this scale.
constexpr std::size_t kRealignCap = 400;

q::data::InterProGoConfig BaseDataset() {
  q::data::InterProGoConfig config;
  config.num_go_terms = 60;
  config.num_entries = 45;
  config.num_pubs = 40;
  config.num_journals = 8;
  config.num_methods = 30;
  config.interpro2go_links = 90;
  config.entry2pub_links = 80;
  config.method2pub_links = 60;
  return config;
}

struct Workload {
  q::data::InterProGoDataset dataset;
  // Pre-built synthetic sources: generation cost is "the crawler's", not
  // the system's, so it stays outside both timed paths.
  std::vector<std::shared_ptr<q::relational::DataSource>> synthetic;
  // Two association candidates per synthetic source, wired to random
  // attributes that exist by the time the source is registered.
  std::vector<q::match::AlignmentCandidate> candidates;
  std::vector<std::string> keywords;
};

Workload MakeWorkload(std::size_t num_synthetic, std::uint64_t seed) {
  Workload w;
  w.dataset = q::data::BuildInterProGo(BaseDataset());
  w.keywords = w.dataset.keyword_queries[0];

  // The growing pool of attributes a new source may attach to, as in
  // GrowWithSyntheticSources.
  std::vector<q::relational::AttributeId> attrs;
  for (const auto& src : w.dataset.catalog.sources()) {
    for (const auto& table : src->tables()) {
      const auto& schema = table->schema();
      for (std::size_t a = 0; a < schema.num_attributes(); ++a) {
        attrs.push_back(schema.IdOf(a));
      }
    }
  }

  q::util::Rng rng(seed);
  for (std::size_t i = 0; i < num_synthetic; ++i) {
    std::string name = "syn" + std::to_string(i);
    w.synthetic.push_back(
        q::data::MakeSyntheticSource(name, /*rows=*/3, &rng));
    const auto& schema = w.synthetic.back()->tables()[0]->schema();
    for (std::size_t a = 0; a < schema.num_attributes(); ++a) {
      q::match::AlignmentCandidate c;
      c.a = schema.IdOf(a);
      c.b = attrs[rng.Uniform(attrs.size())];
      c.confidence = 0.5;
      c.matcher = "synthetic";
      w.candidates.push_back(c);
      attrs.push_back(schema.IdOf(a));
    }
  }
  return w;
}

q::core::QSystemConfig SystemConfig() {
  q::core::QSystemConfig config;
  // Match the quality benches' view setup so the first view is selective
  // enough to exercise association edges.
  config.view.query_graph.min_similarity = 0.5;
  config.view.query_graph.max_matches_per_keyword = 6;
  return config;
}

void RegisterAll(q::core::QSystem* q, const Workload& w) {
  for (const auto& src : w.dataset.catalog.sources()) {
    Q_CHECK_OK(q->RegisterSource(src));
  }
  for (const auto& src : w.synthetic) {
    Q_CHECK_OK(q->RegisterSource(src));
  }
}

// The charitable cold boot: ingest everything, bootstrap matchers over
// the base only, replay the recorded association candidates.
std::unique_ptr<q::core::QSystem> ColdBoot(const Workload& w) {
  auto q = std::make_unique<q::core::QSystem>(SystemConfig());
  for (const auto& src : w.dataset.catalog.sources()) {
    Q_CHECK_OK(q->RegisterSource(src));
  }
  Q_CHECK_OK(q->RunInitialAlignment());
  for (const auto& src : w.synthetic) {
    Q_CHECK_OK(q->RegisterSource(src));
  }
  Q_CHECK_OK(q->AddAssociations(w.candidates));
  return q;
}

// The honest no-snapshot recovery: ingest everything, then rediscover
// associations with the full-catalog matcher bootstrap.
std::unique_ptr<q::core::QSystem> RealignBoot(const Workload& w) {
  auto q = std::make_unique<q::core::QSystem>(SystemConfig());
  RegisterAll(q.get(), w);
  Q_CHECK_OK(q->RunInitialAlignment());
  return q;
}

std::vector<std::pair<double, std::string>> ViewRows(
    const q::core::QSystem& q, std::size_t view_id) {
  std::vector<std::pair<double, std::string>> rows;
  for (const auto& row : q.view(view_id).results().rows) {
    std::string values;
    for (const auto& v : row.values) values += v.ToText() + "|";
    rows.emplace_back(row.cost, std::move(values));
  }
  return rows;
}

double Median(std::vector<double>* xs) {
  std::sort(xs->begin(), xs->end());
  return (*xs)[xs->size() / 2];
}

}  // namespace

int main(int argc, char** argv) {
  const char* json_path = "bench/out/BENCH_warm_restart.json";
  std::vector<std::size_t> scales;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_path = argv[i] + 7;
    } else if (std::strcmp(argv[i], "--smoke") == 0) {
      g_smoke = true;
    } else if (std::strncmp(argv[i], "--scales=", 9) == 0) {
      const char* p = argv[i] + 9;
      while (*p != '\0') {
        scales.push_back(std::strtoull(p, const_cast<char**>(&p), 10));
        if (*p == ',') ++p;
      }
    } else {
      std::fprintf(stderr,
                   "usage: %s [--json=PATH] [--smoke] [--scales=N,M]\n",
                   argv[0]);
      return 1;
    }
  }
  if (scales.empty()) {
    scales = g_smoke ? std::vector<std::size_t>{200, 2000}
                     : std::vector<std::size_t>{400, 1000, 10000};
  }

  FILE* json = q::bench::OpenBenchJson(json_path);
  if (json == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", json_path);
    return 1;
  }
  auto emit = [&](const std::string& kernel, std::size_t n, double us) {
    std::printf("%-32s n=%-7zu median_us=%12.1f\n", kernel.c_str(), n, us);
    std::fprintf(json, "{\"kernel\":\"%s\",\"n\":%zu,\"median_us\":%.3f}\n",
                 kernel.c_str(), n, us);
    std::fflush(json);
  };
  auto emit_ratio = [&](const std::string& kernel, std::size_t n,
                        double ratio) {
    std::printf("%-32s n=%-7zu ratio=%8.2fx\n", kernel.c_str(), n, ratio);
    std::fprintf(json, "{\"kernel\":\"%s\",\"n\":%zu,\"ratio\":%.3f}\n",
                 kernel.c_str(), n, ratio);
    std::fflush(json);
  };

  q::bench::PrintHeader(
      "cold start vs warm restart (snapshot + lazy view repair)",
      "docs/persistence.md warm-restart contract; Sec. 5.1.2 scaling setup");

  for (std::size_t n : scales) {
    Workload w = MakeWorkload(n, /*seed=*/1234 + n);
    std::string dir =
        "bench/out/warm_restart_" + std::to_string(n) + ".snapshot";
    (void)q::util::DefaultEnv()->RemoveFile(
        q::persist::SnapshotFilePath(dir));
    // Boot times are tens of milliseconds, so even smoke runs can afford
    // a median of 3; only the 10k full-run scale drops to a single rep.
    const int reps = n >= 10000 ? 1 : 3;

    std::vector<double> cold_us, save_us, warm_us, fq_cold_us, fq_warm_us;
    for (int rep = 0; rep < reps; ++rep) {
      q::util::WallTimer cold_timer;
      auto cold = ColdBoot(w);
      cold_us.push_back(cold_timer.ElapsedMicros());

      q::util::WallTimer fq_cold_timer;
      auto cold_view = cold->CreateView(w.keywords);
      Q_CHECK_OK(cold_view.status());
      fq_cold_us.push_back(fq_cold_timer.ElapsedMicros());
      auto cold_rows = ViewRows(*cold, *cold_view);

      q::util::WallTimer save_timer;
      Q_CHECK_OK(cold->SaveSnapshot(dir));
      save_us.push_back(save_timer.ElapsedMicros());

      q::persist::SnapshotLoadReport report;
      q::util::WallTimer warm_timer;
      auto restored = q::core::QSystem::OpenFromSnapshot(dir, SystemConfig(),
                                                         nullptr, &report);
      Q_CHECK_OK(restored.status());
      warm_us.push_back(warm_timer.ElapsedMicros());
      if (!report.complete()) {
        std::fprintf(stderr, "FAIL: warm restore not complete:\n%s\n",
                     report.Summary().c_str());
        return 2;
      }

      q::util::WallTimer fq_warm_timer;
      auto warm_view = (*restored)->CreateView(w.keywords);
      Q_CHECK_OK(warm_view.status());
      fq_warm_us.push_back(fq_warm_timer.ElapsedMicros());

      auto warm_rows = ViewRows(**restored, *warm_view);
      if (warm_rows != cold_rows) {
        std::fprintf(stderr,
                     "FAIL: warm view diverged from cold view at n=%zu "
                     "(%zu vs %zu rows)\n",
                     n, warm_rows.size(), cold_rows.size());
        return 2;
      }
    }

    std::string suffix = std::to_string(n);
    double cold_med = Median(&cold_us);
    double warm_med = Median(&warm_us);
    emit("warm_restart_cold_boot_" + suffix, n, cold_med);
    if (n <= kRealignCap) {
      // One rep: this kernel exists to show the asymptote the snapshot
      // avoids, not to be a tight measurement.
      q::util::WallTimer realign_timer;
      auto realigned = RealignBoot(w);
      double realign_us = realign_timer.ElapsedMicros();
      emit("warm_restart_realign_" + suffix, n, realign_us);
      if (warm_med > 0.0) {
        emit_ratio("warm_restart_realign_speedup", n, realign_us / warm_med);
      }
    }
    emit("warm_restart_save_" + suffix, n, Median(&save_us));
    emit("warm_restart_warm_boot_" + suffix, n, warm_med);
    emit("warm_restart_first_query_cold_" + suffix, n, Median(&fq_cold_us));
    emit("warm_restart_first_query_warm_" + suffix, n, Median(&fq_warm_us));
    emit_ratio("warm_restart_speedup", n,
               warm_med > 0.0 ? cold_med / warm_med : 0.0);
  }

  std::fclose(json);
  std::printf("json written to %s\n", json_path);
  return 0;
}
