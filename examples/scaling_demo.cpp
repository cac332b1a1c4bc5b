// Scaling demo (Sec. 5.1.2): grows the search graph with synthetic
// two-attribute sources and shows how the alignment-search strategies
// scale — Exhaustive's comparison count grows with catalog size while
// ViewBased/Preferential stay flat — and how a QSystem keeps live keyword
// views fresh across that growth: each growth stage bumps the graph
// revision and rebuilds every view, while a weight-only update afterwards
// re-costs the CSR snapshots.
//
//   build/scaling_demo
#include <iostream>
#include <string>
#include <vector>

#include "align/aligner.h"
#include "core/q_system.h"
#include "data/gbco.h"
#include "data/synthetic.h"
#include "match/matcher.h"
#include "util/random.h"

namespace {

// Registers `count` synthetic sources and connects each of their two
// attributes to a random attribute that existed before the source, with
// one association batch for the whole stage.
void Grow(std::size_t count, q::util::Rng* rng,
          std::vector<q::relational::AttributeId>* attributes,
          q::core::QSystem* q) {
  std::vector<q::match::AlignmentCandidate> wires;
  for (std::size_t i = 0; i < count; ++i) {
    auto source = q::data::MakeSyntheticSource(
        "syn" + std::to_string(q->catalog().sources().size()), 5, rng);
    Q_CHECK_OK(q->RegisterSource(source));
    const std::size_t targets = attributes->size();
    const auto& schema = source->tables()[0]->schema();
    for (std::size_t a = 0; a < schema.num_attributes(); ++a) {
      q::match::AlignmentCandidate wire;
      wire.a = schema.IdOf(a);
      wire.b = (*attributes)[rng->Uniform(targets)];
      wire.matcher = "synthetic";
      wire.confidence = 0.5;
      wires.push_back(wire);
      attributes->push_back(wire.a);
    }
  }
  Q_CHECK_OK(q->AddAssociations(wires));
}

}  // namespace

int main() {
  q::data::GbcoConfig config;
  config.base_rows = 20;
  auto dataset = q::data::BuildGbco(config);
  q::util::Rng rng(2010);

  // Two live keyword views. The associations are the synthetic ones
  // alone, so no matcher votes (or missing-vote penalties) are added.
  q::core::QSystemConfig qconfig;
  qconfig.use_metadata_matcher = false;
  qconfig.use_mad_matcher = false;
  qconfig.view.top_k.k = 3;
  qconfig.view.top_k.approximate = true;
  qconfig.view.top_k.max_subproblems = 400;
  q::core::QSystem q(qconfig);
  std::vector<q::relational::AttributeId> attributes;
  for (const auto& source : dataset.catalog.sources()) {
    Q_CHECK_OK(q.RegisterSource(source));
    for (const auto& table : source->tables()) {
      for (std::size_t a = 0; a < table->schema().num_attributes(); ++a) {
        attributes.push_back(table->schema().IdOf(a));
      }
    }
  }
  auto view_a = q.CreateView(dataset.trials[0].keywords);
  auto view_b = q.CreateView(dataset.trials[2].keywords);
  Q_CHECK_OK(view_a.status());
  Q_CHECK_OK(view_b.status());
  const auto answering = [&] {
    for (std::size_t id : {*view_a, *view_b}) {
      if (q.view(id).trees().empty() || q.view(id).results().rows.empty()) {
        return false;
      }
    }
    return true;
  };
  Q_CHECK(answering());

  // The probe source a registration would have to align.
  auto probe = q::data::MakeSyntheticSource("probe", 5, &rng);

  q::align::ExhaustiveAligner exhaustive;
  q::align::ViewBasedAligner view_based;
  q::align::PreferentialAligner preferential;

  std::cout << "sources  exhaustive  view_based  preferential   (pairwise "
               "attribute comparisons)\n";
  std::size_t targets[] = {18, 100, 500};
  for (std::size_t target : targets) {
    std::size_t have = q.catalog().sources().size();
    if (target > have) {
      Grow(target - have, &rng, &attributes, &q);
      // Growth mutated the graph (revision moved), so this rebuilds both
      // views' query graphs + CSR snapshots — and the views must still
      // answer.
      Q_CHECK_OK(q.RefreshAllViews());
      Q_CHECK(answering());
    }
    // Alpha below the synthetic-association cost (~1.0, the calibrated
    // average): the keyword neighborhood keeps its original extent no
    // matter how many synthetic sources wire into the graph — the Fig. 8
    // setup.
    q::align::AlignContext ctx;
    ctx.alpha = 0.95;
    ctx.top_y = 2;
    ctx.max_relations = 6;
    auto seed = q.search_graph().FindRelationNode("gene.gene");
    Q_CHECK(seed.has_value());
    ctx.keyword_seeds.emplace_back(*seed, 0.0);

    auto run = [&](q::align::Aligner& aligner) {
      q::match::CountingMatcher matcher;
      q::align::AlignerStats stats;
      Q_CHECK_OK(aligner
                     .Align(q.search_graph(), q.weights(), q.catalog(),
                            *probe, ctx, &matcher, &stats)
                     .status());
      return stats.attribute_comparisons;
    };
    std::cout << "  " << target << (target < 100 ? "     " : "    ")
              << "  " << run(exhaustive) << "        " << run(view_based)
              << "         " << run(preferential) << "\n";
  }

  // A weight-only update (a feedback step's effect) takes the re-cost
  // fast path: no query-graph rebuild, just a CSR re-cost per snapshot.
  const q::core::RefreshEngine& engine = q.refresh_engine();
  auto before = engine.stats();
  q.mutable_weights().Nudge(q::graph::FeatureSpace::kDefaultFeature, 0.05);
  Q_CHECK_OK(q.RefreshAllViews());
  auto after = engine.stats();
  Q_CHECK(after.snapshots_recosted == before.snapshots_recosted + 2);
  Q_CHECK(after.snapshots_built == before.snapshots_built);
  Q_CHECK(answering());

  std::cout << "\nview refresh over " << q.catalog().sources().size()
            << " sources: " << after.snapshots_built
            << " snapshot builds (creation and growth stages), "
            << after.snapshots_recosted
            << " in-place re-costs (weight updates), "
            << q.view(*view_a).results().rows.size() << "+"
            << q.view(*view_b).results().rows.size() << " live answers\n";
  std::cout << "\nViewBased explores only the alpha-neighborhood of the "
               "view's keywords;\nPreferential stops after its prior "
               "budget — neither grows with catalog size.\n";
  return 0;
}
