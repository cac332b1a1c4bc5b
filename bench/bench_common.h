#ifndef Q_BENCH_BENCH_COMMON_H_
#define Q_BENCH_BENCH_COMMON_H_

// Shared driver code for the per-table/per-figure benchmark binaries.
// Each binary prints the rows/series of one table or figure of the paper
// (Sec. 5). tests/paper_fidelity_test.cc pins the values the InterPro-GO
// binaries print (Table 1, Table 2, Figs. 10-12 and the ablation), and
// tests/fig7_comparisons_test.cc the comparison counts of Fig. 7.

#include <cstdio>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <system_error>
#include <unordered_map>
#include <vector>

#include "align/aligner.h"
#include "align/view_context.h"
#include "core/q_system.h"
#include "data/gbco.h"
#include "data/interpro_go.h"
#include "feedback/simulated_user.h"
#include <unordered_set>

#include "graph/graph_builder.h"
#include "learn/evaluation.h"
#include "learn/mira.h"
#include "match/metadata_matcher.h"
#include "match/value_overlap.h"
#include "query/conjunctive_query.h"
#include "query/view.h"
#include "steiner/top_k.h"
#include "text/text_index.h"
#include "util/stats.h"
#include "util/string_util.h"

namespace q::bench {

// Opens a JSON result file for writing, creating parent directories.
// Benches default their outputs under bench/out/ (gitignored) so stray
// result files can never land in the repo root when run by hand.
inline FILE* OpenBenchJson(const std::string& path) {
  std::filesystem::path p(path);
  if (p.has_parent_path()) {
    std::error_code ec;
    std::filesystem::create_directories(p.parent_path(), ec);
  }
  return std::fopen(path.c_str(), "w");
}

// ---------------------------------------------------------------------------
// GBCO alignment-cost experiments (Figs. 6-8)
// ---------------------------------------------------------------------------

// One Sec. 5.1 trial environment: the catalog/search graph hold every
// source except the trial's new sources, and a live view over the trial's
// keywords provides the alignment context (alpha + keyword seeds).
struct TrialEnv {
  relational::Catalog existing;
  graph::FeatureSpace space;
  std::unique_ptr<graph::CostModel> model;
  graph::SearchGraph graph;
  std::unique_ptr<graph::WeightVector> weights;
  text::TextIndex index;
  std::unique_ptr<query::TopKView> view;
  align::AlignContext context;
  std::vector<std::shared_ptr<relational::DataSource>> new_sources;
};

// Builds the environment for one GBCO trial. Returns nullptr if the
// trial's view cannot be constructed (should not happen with the bundled
// dataset).
inline std::unique_ptr<TrialEnv> MakeTrialEnv(
    const data::GbcoDataset& dataset, const data::GbcoTrial& trial,
    std::size_t preferential_budget = 2) {
  auto env = std::make_unique<TrialEnv>();
  for (const auto& src : dataset.catalog.sources()) {
    bool held_out = false;
    for (const auto& name : trial.new_sources) {
      if (src->name() == name) held_out = true;
    }
    if (held_out) {
      env->new_sources.push_back(src);
    } else {
      Q_CHECK_OK(env->existing.AddSource(src));
    }
  }
  env->model = std::make_unique<graph::CostModel>(&env->space,
                                                  graph::CostModelConfig{});
  env->graph = graph::BuildSearchGraph(env->existing, env->model.get());
  env->weights = std::make_unique<graph::WeightVector>(&env->space);
  env->index.IndexCatalog(env->existing);

  query::ViewConfig vconfig;
  vconfig.top_k.k = 5;
  env->view = std::make_unique<query::TopKView>(trial.keywords, vconfig);
  auto status = env->view->Refresh(env->graph, env->existing, env->index,
                                   env->model.get(), *env->weights);
  if (!status.ok()) return nullptr;
  env->context = align::ContextFromView(*env->view, env->graph, env->space,
                                        *env->weights, /*top_y=*/2,
                                        preferential_budget);
  return env;
}

// Calibration (Sec. 5.1): feedback is applied so that the trial's base
// query becomes the top-scoring query, and the learned edge costs become
// the cost function C used by the aligners. Endorses the cheapest tree
// whose relation atoms stay within the base query's relations, runs MIRA,
// and refreshes the view/context.
inline void CalibrateTrialEnv(TrialEnv* env, const data::GbcoTrial& trial,
                              int rounds = 3,
                              std::size_t preferential_budget = 2) {
  learn::MiraLearner learner;
  std::unordered_set<std::string> base(trial.base_relations.begin(),
                                       trial.base_relations.end());
  for (int round = 0; round < rounds; ++round) {
    const query::QueryGraph& qg = env->view->query_graph();
    // Scan beyond the view's k for a base-only tree.
    steiner::TopKConfig deep;
    deep.k = 10;
    auto trees = steiner::TopKSteinerTrees(qg.graph, *env->weights,
                                           qg.keyword_nodes, deep);
    const steiner::SteinerTree* target = nullptr;
    for (const auto& tree : trees) {
      auto cq = query::CompileTree(qg, tree, *env->weights);
      if (!cq.ok()) continue;
      bool inside = true;
      for (const auto& atom : cq->atoms) {
        if (base.count(atom) == 0) inside = false;
      }
      if (inside) {
        target = &tree;
        break;
      }
    }
    if (target == nullptr) break;
    Q_CHECK_OK(learner
                   .Update(qg.graph, qg.keyword_nodes, *target,
                           env->weights.get())
                   .status());
    Q_CHECK_OK(env->view->Refresh(env->graph, env->existing, env->index,
                                  env->model.get(), *env->weights));
  }
  env->context = align::ContextFromView(*env->view, env->graph, env->space,
                                        *env->weights, /*top_y=*/2,
                                        preferential_budget);
}

// Aligns every new source of the trial (registered progressively, as a
// crawler would deliver them), accumulating the aligner stats.
inline align::AlignerStats RunTrialAlignment(TrialEnv* env,
                                             align::Aligner* aligner,
                                             match::Matcher* matcher) {
  align::AlignerStats stats;
  for (const auto& source : env->new_sources) {
    auto result = aligner->Align(env->graph, *env->weights, env->existing,
                                 *source, env->context, matcher, &stats);
    Q_CHECK_OK(result.status());
    // Register the source so later introductions in the same trial see it.
    Q_CHECK_OK(env->existing.AddSource(source));
    graph::AddSourceToGraph(*source, env->model.get(), &env->graph);
  }
  return stats;
}

// One Fig. 7 row: an aligner's pairwise attribute comparisons over every
// GBCO trial's introductions, without ([0]) and with ([1]) the
// value-overlap content filter.
struct ComparisonRow {
  const char* strategy = nullptr;
  std::unique_ptr<align::Aligner> aligner;
  // Comparisons per introduced source, one sample per introduction (a
  // trial's count spread evenly over its new sources).
  util::SummaryStats per_source[2];
  // Total comparisons and introductions: the mean is their ratio.
  std::size_t comparisons[2] = {0, 0};
  std::size_t introductions[2] = {0, 0};
};

// The Fig. 7 experiment (bench_fig7_comparisons.cc): every trial aligned
// by the Exhaustive, ViewBased and Preferential aligners, in that order,
// with a counting matcher, without and with the value-overlap filter.
inline std::vector<ComparisonRow> RunFig7Comparisons() {
  auto dataset = data::BuildGbco();
  // Content index over every source (paper: "assumes we have a content
  // index available on the attributes in the existing set of sources and
  // in the new source").
  match::ValueOverlapIndex overlap;
  for (const auto& t : dataset.catalog.AllTables()) overlap.IndexTable(*t);

  std::vector<ComparisonRow> rows(3);
  rows[0].strategy = "Exhaustive";
  rows[0].aligner = std::make_unique<align::ExhaustiveAligner>();
  rows[1].strategy = "ViewBasedAligner";
  rows[1].aligner = std::make_unique<align::ViewBasedAligner>();
  rows[2].strategy = "PreferentialAligner";
  rows[2].aligner = std::make_unique<align::PreferentialAligner>();
  for (auto& row : rows) {
    for (int filtered = 0; filtered < 2; ++filtered) {
      for (const auto& trial : dataset.trials) {
        auto env = MakeTrialEnv(dataset, trial);
        if (env == nullptr) continue;
        CalibrateTrialEnv(env.get(), trial);
        match::CountingMatcher matcher;
        if (filtered == 1) matcher.set_pair_filter(overlap.MakeFilter());
        auto stats = RunTrialAlignment(env.get(), row.aligner.get(), &matcher);
        double per_source = static_cast<double>(stats.attribute_comparisons) /
                            static_cast<double>(env->new_sources.size());
        for (std::size_t i = 0; i < env->new_sources.size(); ++i) {
          row.per_source[filtered].Add(per_source);
        }
        row.comparisons[filtered] += stats.attribute_comparisons;
        row.introductions[filtered] += env->new_sources.size();
      }
    }
  }
  return rows;
}

// ---------------------------------------------------------------------------
// InterPro-GO learning experiments (Table 1, Figs. 10-12, Table 2)
// ---------------------------------------------------------------------------

struct QualityEnv {
  data::InterProGoDataset dataset;
  std::unique_ptr<core::QSystem> q;
  std::unique_ptr<feedback::SimulatedUser> user;
};

inline data::InterProGoConfig QualityDatasetConfig() {
  data::InterProGoConfig config;
  config.num_go_terms = 150;
  config.num_entries = 120;
  config.num_pubs = 100;
  config.num_journals = 20;
  config.num_methods = 90;
  config.interpro2go_links = 250;
  config.entry2pub_links = 200;
  config.method2pub_links = 160;
  return config;
}

// Bootstraps Q on InterPro-GO: registers both sources and runs the
// enabled matchers globally at the given Y (the Sec. 5.2.2 setup).
inline QualityEnv BootstrapQuality(int top_y = 2, bool use_metadata = true,
                                   bool use_mad = true) {
  QualityEnv env;
  env.dataset = data::BuildInterProGo(QualityDatasetConfig());
  core::QSystemConfig config;
  config.top_y = top_y;
  config.use_metadata_matcher = use_metadata;
  config.use_mad_matcher = use_mad;
  config.mira.k = 5;
  // The paper's keyword queries match their target schema elements and
  // values near-exactly and in *different* tables, so every candidate
  // tree must cross an association edge — which is what lets MIRA see
  // (and penalize) bad alignments in the k-best list. Loose tf-idf
  // matching would instead flood the k-best with single-table partial
  // matches that carry no alignment signal.
  config.view.query_graph.min_similarity = 0.5;
  config.view.query_graph.max_matches_per_keyword = 6;
  env.q = std::make_unique<core::QSystem>(config);
  for (const auto& src : env.dataset.catalog.sources()) {
    Q_CHECK_OK(env.q->RegisterSource(src));
  }
  Q_CHECK_OK(env.q->RunInitialAlignment());
  env.user = std::make_unique<feedback::SimulatedUser>(
      env.dataset.gold_edges);
  return env;
}

// Applies gold feedback on the first `num_queries` keyword queries,
// replayed `passes` times (Q(num_queries x passes) in Fig. 11). Invokes
// `per_step` (if non-null) after every applied feedback step.
inline std::size_t TrainWithFeedback(
    QualityEnv* env, std::size_t num_queries, int passes,
    const std::function<void(std::size_t step)>& per_step = nullptr) {
  // One persistent view per query (the user's ongoing information needs);
  // replays revisit the same views, which QSystem refreshes after every
  // weight update.
  std::unordered_map<std::size_t, std::size_t> view_ids;
  std::size_t step = 0;
  for (int pass = 0; pass < passes; ++pass) {
    for (std::size_t i = 0;
         i < num_queries && i < env->dataset.keyword_queries.size(); ++i) {
      auto it = view_ids.find(i);
      if (it == view_ids.end()) {
        auto view_id = env->q->CreateView(env->dataset.keyword_queries[i]);
        if (!view_id.ok()) continue;
        it = view_ids.emplace(i, *view_id).first;
      }
      auto applied = env->q->ApplyGoldFeedback(it->second, *env->user);
      Q_CHECK_OK(applied.status());
      if (*applied) {
        ++step;
        if (per_step) per_step(step);
      }
    }
  }
  return step;
}

// ---------------------------------------------------------------------------
// Output helpers
// ---------------------------------------------------------------------------

inline void PrintHeader(const std::string& title,
                        const std::string& paper_ref) {
  std::printf("==============================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("reproduces: %s\n", paper_ref.c_str());
  std::printf("==============================================================\n");
}

inline void PrintPrCurve(const std::string& series,
                         const std::vector<learn::PrPoint>& curve) {
  std::printf("%-22s %10s %10s %10s\n", series.c_str(), "threshold",
              "precision", "recall");
  for (const auto& p : curve) {
    std::printf("%-22s %10.4f %10.3f %10.3f\n", "", p.threshold,
                p.precision, p.recall);
  }
}

}  // namespace q::bench

#endif  // Q_BENCH_BENCH_COMMON_H_
