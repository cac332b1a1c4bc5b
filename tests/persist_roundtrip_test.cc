// Save/load round-trip suite for the persistence layer (docs/persistence.md):
// format primitives, per-section encode/decode, and the QSystem-level
// differential guarantee — a system restored from a snapshot is
// bit-identical at quiescence to the one that saved it, and keeps behaving
// identically under further feedback.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "core/q_system.h"
#include "data/interpro_go.h"
#include "feedback/simulated_user.h"
#include "persist/format.h"
#include "persist/snapshot.h"
#include "util/env.h"
#include "util/random.h"

namespace q::persist {
namespace {

std::uint64_t TestSeed() {
  const char* s = std::getenv("Q_PERSIST_FAULT_SEED");
  return s != nullptr ? std::strtoull(s, nullptr, 10) : 20260808ull;
}

std::string FreshDir(const std::string& name) {
  std::string dir = ::testing::TempDir() + "persist_rt_" + name + "_" +
                    std::to_string(::getpid());
  // Start from a clean slate even when TempDir is reused across runs.
  (void)util::DefaultEnv()->RemoveFile(SnapshotFilePath(dir));
  return dir;
}

// --- format primitives ----------------------------------------------------

TEST(FormatTest, PrimitivesRoundTrip) {
  std::string buf;
  PutU8(&buf, 0xAB);
  PutU32(&buf, 0xDEADBEEFu);
  PutU64(&buf, 0x0123456789ABCDEFull);
  PutF64(&buf, -1234.5678);
  PutF64(&buf, 0.0);
  PutString(&buf, "hello\0world");  // NUL-safe? literal stops at NUL
  PutString(&buf, std::string("bin\0ary", 7));
  PutString(&buf, "");

  Decoder d(buf);
  std::uint8_t u8 = 0;
  std::uint32_t u32 = 0;
  std::uint64_t u64 = 0;
  double f1 = 0, f2 = 1;
  std::string s1, s2, s3;
  ASSERT_TRUE(d.GetU8(&u8).ok());
  ASSERT_TRUE(d.GetU32(&u32).ok());
  ASSERT_TRUE(d.GetU64(&u64).ok());
  ASSERT_TRUE(d.GetF64(&f1).ok());
  ASSERT_TRUE(d.GetF64(&f2).ok());
  ASSERT_TRUE(d.GetString(&s1).ok());
  ASSERT_TRUE(d.GetString(&s2).ok());
  ASSERT_TRUE(d.GetString(&s3).ok());
  EXPECT_EQ(u8, 0xAB);
  EXPECT_EQ(u32, 0xDEADBEEFu);
  EXPECT_EQ(u64, 0x0123456789ABCDEFull);
  EXPECT_EQ(f1, -1234.5678);
  EXPECT_EQ(f2, 0.0);
  EXPECT_EQ(s1, "hello");
  EXPECT_EQ(s2, std::string("bin\0ary", 7));
  EXPECT_EQ(s3, "");
  EXPECT_TRUE(d.done());
}

TEST(FormatTest, DecoderRejectsTruncationAndCorruptCounts) {
  std::string buf;
  PutU64(&buf, 7);
  Decoder short_read(std::string_view(buf).substr(0, 5));
  std::uint64_t v = 0;
  EXPECT_FALSE(short_read.GetU64(&v).ok());

  // A string whose declared length runs past the buffer.
  std::string lying;
  PutU32(&lying, 1000);
  lying += "abc";
  Decoder d(lying);
  std::string s;
  EXPECT_FALSE(d.GetString(&s).ok());

  // A count that cannot plausibly fit must be rejected before any
  // allocation sized from it.
  std::string huge;
  PutU32(&huge, 0xFFFFFFFFu);
  Decoder d2(huge);
  std::uint32_t count = 0;
  EXPECT_FALSE(d2.GetCount(&count, /*min_element_bytes=*/4).ok());
}

TEST(FormatTest, Crc32MatchesKnownVector) {
  // The CRC-32/IEEE check value.
  EXPECT_EQ(Crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(Crc32(""), 0u);
  EXPECT_NE(Crc32("a"), Crc32("b"));
}

TEST(FormatTest, FrameWalkSkipsDamagedSectionAndKeepsOthers) {
  std::string file;
  AppendHeader(&file, 2);
  AppendSection(&file, SectionTag::kCatalog, "catalog-bytes");
  std::size_t second_at = file.size();
  AppendSection(&file, SectionTag::kWeights, "weights-bytes");

  ParseOutcome intact;
  ASSERT_TRUE(ParseSnapshotFile(file, &intact).ok());
  ASSERT_EQ(intact.sections.size(), 2u);
  EXPECT_TRUE(intact.section_errors.empty());
  EXPECT_EQ(intact.sections[0].payload, "catalog-bytes");

  // Flip one payload byte of the second frame: the first survives, the
  // second is reported, the parse itself still succeeds.
  std::string damaged = file;
  damaged[second_at + 4 + 8 + 4 + 2] ^= 0x40;
  ParseOutcome out;
  ASSERT_TRUE(ParseSnapshotFile(damaged, &out).ok());
  ASSERT_EQ(out.sections.size(), 1u);
  EXPECT_EQ(out.sections[0].tag,
            static_cast<std::uint32_t>(SectionTag::kCatalog));
  ASSERT_EQ(out.section_errors.size(), 1u);

  // A bad header is unusable.
  std::string bad_magic = file;
  bad_magic[0] = 'X';
  ParseOutcome ignored;
  EXPECT_FALSE(ParseSnapshotFile(bad_magic, &ignored).ok());
  EXPECT_FALSE(ParseSnapshotFile("short", &ignored).ok());

  // So is a header of another format version, even with a valid CRC.
  std::string old_version;
  old_version.append(kMagic, kMagicLen);
  PutU32(&old_version, kFormatVersion - 1);
  PutU32(&old_version, 2);
  PutU32(&old_version, Crc32(old_version));
  old_version.append(file, old_version.size(), std::string::npos);
  const util::Status rejected = ParseSnapshotFile(old_version, &ignored);
  EXPECT_TRUE(rejected.IsUnimplemented()) << rejected.ToString();
}

// --- QSystem fixture --------------------------------------------------------

data::InterProGoConfig SmallDataset() {
  data::InterProGoConfig config;
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

struct Fixture {
  data::InterProGoDataset dataset;
  std::unique_ptr<core::QSystem> q;
};

// Registers the dataset, aligns, creates views for the first
// `num_views` keyword queries and applies gold feedback on each.
Fixture BuildTrainedSystem(std::size_t num_views = 3) {
  Fixture f;
  f.dataset = data::BuildInterProGo(SmallDataset());
  f.q = std::make_unique<core::QSystem>();
  for (const auto& src : f.dataset.catalog.sources()) {
    EXPECT_TRUE(f.q->RegisterSource(src).ok());
  }
  EXPECT_TRUE(f.q->RunInitialAlignment().ok());
  feedback::SimulatedUser user(f.dataset.gold_edges);
  for (std::size_t i = 0; i < num_views && i < f.dataset.keyword_queries.size();
       ++i) {
    auto view_id = f.q->CreateView(f.dataset.keyword_queries[i]);
    if (!view_id.ok()) continue;
    auto applied = f.q->ApplyGoldFeedback(*view_id, user);
    EXPECT_TRUE(applied.ok()) << applied.status();
  }
  EXPECT_FALSE(f.q->feedback_log().empty());
  return f;
}

std::vector<std::pair<double, std::string>> ViewRows(
    const core::QSystem& q, std::size_t view_id) {
  std::vector<std::pair<double, std::string>> rows;
  for (const auto& row : q.view(view_id).results().rows) {
    std::string values;
    for (const auto& v : row.values) values += v.ToText() + "|";
    rows.emplace_back(row.cost, std::move(values));
  }
  return rows;
}

void ExpectCatalogsEqual(const relational::Catalog& a,
                         const relational::Catalog& b) {
  EXPECT_EQ(a.num_relations(), b.num_relations());
  auto ta = a.AllTables();
  auto tb = b.AllTables();
  ASSERT_EQ(ta.size(), tb.size());
  for (std::size_t i = 0; i < ta.size(); ++i) {
    const auto& sa = ta[i]->schema();
    const auto& sb = tb[i]->schema();
    EXPECT_EQ(sa.source(), sb.source());
    EXPECT_EQ(sa.relation(), sb.relation());
    ASSERT_EQ(sa.attributes().size(), sb.attributes().size());
    for (std::size_t j = 0; j < sa.attributes().size(); ++j) {
      EXPECT_EQ(sa.attributes()[j].name, sb.attributes()[j].name);
      EXPECT_EQ(sa.attributes()[j].type, sb.attributes()[j].type);
    }
    ASSERT_EQ(ta[i]->num_rows(), tb[i]->num_rows());
    for (std::size_t r = 0; r < ta[i]->num_rows(); ++r) {
      const auto& ra = ta[i]->rows()[r];
      const auto& rb = tb[i]->rows()[r];
      ASSERT_EQ(ra.size(), rb.size());
      for (std::size_t c = 0; c < ra.size(); ++c) {
        EXPECT_EQ(ra[c].ToText(), rb[c].ToText());
      }
    }
  }
}

void ExpectGraphsEqual(const graph::SearchGraph& a,
                       const graph::SearchGraph& b) {
  ASSERT_EQ(a.num_nodes(), b.num_nodes());
  ASSERT_EQ(a.num_edges(), b.num_edges());
  for (graph::NodeId n = 0; n < a.num_nodes(); ++n) {
    EXPECT_EQ(a.node(n).kind, b.node(n).kind);
    EXPECT_EQ(a.node(n).label, b.node(n).label);
    EXPECT_EQ(a.node(n).attr.ToString(), b.node(n).attr.ToString());
    EXPECT_EQ(a.node_value_text(n), b.node_value_text(n));
  }
  for (graph::EdgeId e = 0; e < a.num_edges(); ++e) {
    const graph::Edge ea = a.ExportEdge(e);
    const graph::Edge eb = b.ExportEdge(e);
    EXPECT_EQ(ea.u, eb.u);
    EXPECT_EQ(ea.v, eb.v);
    EXPECT_EQ(ea.kind, eb.kind);
    EXPECT_EQ(ea.fixed_zero, eb.fixed_zero);
    EXPECT_TRUE(ea.features == eb.features);
    ASSERT_EQ(ea.provenance.size(), eb.provenance.size());
    for (std::size_t p = 0; p < ea.provenance.size(); ++p) {
      EXPECT_EQ(ea.provenance[p].matcher, eb.provenance[p].matcher);
      EXPECT_EQ(ea.provenance[p].confidence, eb.provenance[p].confidence);
    }
    EXPECT_EQ(ea.join_a.ToString(), eb.join_a.ToString());
    EXPECT_EQ(ea.join_b.ToString(), eb.join_b.ToString());
  }
  EXPECT_EQ(a.revision(), b.revision());
}

void ExpectWeightsEqual(const graph::WeightVector& a,
                        const graph::WeightVector& b) {
  EXPECT_EQ(a.values(), b.values());
  EXPECT_EQ(a.revision(), b.revision());
}

void ExpectFeedbackLogsEqual(const feedback::FeedbackLog& a,
                             const feedback::FeedbackLog& b) {
  EXPECT_EQ(a.next_sequence(), b.next_sequence());
  auto ea = a.Snapshot();
  auto eb = b.Snapshot();
  ASSERT_EQ(ea.size(), eb.size());
  for (std::size_t i = 0; i < ea.size(); ++i) {
    EXPECT_EQ(ea[i].kind, eb[i].kind);
    EXPECT_EQ(ea[i].sequence, eb[i].sequence);
    EXPECT_EQ(ea[i].weight_revision, eb[i].weight_revision);
    EXPECT_EQ(ea[i].keywords, eb[i].keywords);
    EXPECT_EQ(ea[i].replayable, eb[i].replayable);
    ASSERT_EQ(ea[i].deltas.size(), eb[i].deltas.size());
    for (std::size_t d = 0; d < ea[i].deltas.size(); ++d) {
      EXPECT_EQ(ea[i].deltas[d].id, eb[i].deltas[d].id);
      EXPECT_EQ(ea[i].deltas[d].old_value, eb[i].deltas[d].old_value);
      EXPECT_EQ(ea[i].deltas[d].new_value, eb[i].deltas[d].new_value);
    }
  }
}

void ExpectSystemsEqual(const core::QSystem& a, const core::QSystem& b) {
  ExpectCatalogsEqual(a.catalog(), b.catalog());
  const graph::FeatureSpace& fa =
      const_cast<core::QSystem&>(a).feature_space();
  const graph::FeatureSpace& fb =
      const_cast<core::QSystem&>(b).feature_space();
  ASSERT_EQ(fa.size(), fb.size());
  for (graph::FeatureId i = 0; i < fa.size(); ++i) {
    EXPECT_EQ(fa.name(i), fb.name(i));
    EXPECT_EQ(fa.initial_weight(i), fb.initial_weight(i));
  }
  ExpectGraphsEqual(a.search_graph(), b.search_graph());
  ExpectWeightsEqual(a.weights(), b.weights());
  ExpectFeedbackLogsEqual(a.feedback_log(), b.feedback_log());
}

// --- per-section round trips ------------------------------------------------

TEST(SnapshotSectionTest, AllSectionsRoundTrip) {
  Fixture f = BuildTrainedSystem();
  core::QSystem& q = *f.q;

  relational::Catalog catalog;
  ASSERT_TRUE(DecodeCatalog(EncodeCatalog(q.catalog()), &catalog).ok());
  ExpectCatalogsEqual(q.catalog(), catalog);

  graph::FeatureSpace space;
  ASSERT_TRUE(
      DecodeFeatureSpace(EncodeFeatureSpace(q.feature_space()), &space).ok());
  ASSERT_EQ(space.size(), q.feature_space().size());
  for (graph::FeatureId i = 0; i < space.size(); ++i) {
    EXPECT_EQ(space.name(i), q.feature_space().name(i));
    EXPECT_EQ(space.initial_weight(i), q.feature_space().initial_weight(i));
  }

  graph::SearchGraph graph;
  ASSERT_TRUE(DecodeGraph(EncodeGraph(q.search_graph()), space.size(), &graph)
                  .ok());
  ExpectGraphsEqual(q.search_graph(), graph);

  graph::WeightVector weights(&space);
  ASSERT_TRUE(
      DecodeWeights(EncodeWeights(q.weights()), space.size(), &weights).ok());
  ExpectWeightsEqual(q.weights(), weights);

  feedback::FeedbackLog log;
  ASSERT_TRUE(DecodeFeedback(EncodeFeedback(q.feedback_log()), &log).ok());
  ExpectFeedbackLogsEqual(q.feedback_log(), log);
}

TEST(SnapshotSectionTest, DecodersRejectGarbageWithoutCrashing) {
  util::Rng rng(TestSeed());
  for (int trial = 0; trial < 32; ++trial) {
    std::string garbage;
    std::size_t len = rng.Uniform(512);
    garbage.reserve(len);
    for (std::size_t i = 0; i < len; ++i) {
      garbage.push_back(static_cast<char>(rng.Uniform(256)));
    }
    relational::Catalog catalog;
    (void)DecodeCatalog(garbage, &catalog);
    graph::FeatureSpace space;
    (void)DecodeFeatureSpace(garbage, &space);
    graph::SearchGraph graph;
    (void)DecodeGraph(garbage, 16, &graph);
    graph::FeatureSpace scratch;
    graph::WeightVector weights(&scratch);
    (void)DecodeWeights(garbage, 1, &weights);
    feedback::FeedbackLog log;
    (void)DecodeFeedback(garbage, &log);
    // Reaching here without UB/abort is the assertion; sanitizer CI
    // (`persist` label) makes it meaningful.
  }
}

// --- QSystem round trip -------------------------------------------------------

TEST(SnapshotRoundTripTest, OpenMissingSnapshotIsNotFound) {
  std::string dir = FreshDir("missing");
  SnapshotLoadReport report;
  auto q = core::QSystem::OpenFromSnapshot(dir, core::QSystemConfig(), nullptr,
                                           &report);
  EXPECT_TRUE(q.status().IsNotFound()) << q.status();
}

TEST(SnapshotRoundTripTest, RestoredSystemIsBitIdentical) {
  Fixture f = BuildTrainedSystem();
  std::string dir = FreshDir("identical");
  ASSERT_TRUE(f.q->SaveSnapshot(dir).ok());

  SnapshotLoadReport report;
  auto restored = core::QSystem::OpenFromSnapshot(
      dir, core::QSystemConfig(), nullptr, &report);
  ASSERT_TRUE(restored.ok()) << restored.status();
  EXPECT_TRUE(report.complete()) << report.Summary();
  EXPECT_FALSE(report.cold_start);
  EXPECT_FALSE(report.weights_replayed);
  ExpectSystemsEqual(*f.q, **restored);
  // Derived state is rebuilt, not persisted.
  EXPECT_EQ((*restored)->text_index().num_documents(),
            f.q->text_index().num_documents());
  // Views are recreated lazily, never restored.
  EXPECT_EQ((*restored)->num_views(), 0u);
}

TEST(SnapshotRoundTripTest, WarmRestartServesViewsLazily) {
  Fixture f = BuildTrainedSystem();
  std::string dir = FreshDir("lazy_views");
  ASSERT_TRUE(f.q->SaveSnapshot(dir).ok());

  auto restored =
      core::QSystem::OpenFromSnapshot(dir, core::QSystemConfig());
  ASSERT_TRUE(restored.ok()) << restored.status();

  // A view recreated on the restored system (through the RefreshEngine
  // classify-then-repair pipeline, no re-alignment) must produce the same
  // answers as the same view created on the original.
  const auto& keywords = f.dataset.keyword_queries[0];
  auto orig_id = f.q->CreateView(keywords);
  auto rest_id = (*restored)->CreateView(keywords);
  ASSERT_TRUE(orig_id.ok()) << orig_id.status();
  ASSERT_TRUE(rest_id.ok()) << rest_id.status();
  auto orig_rows = ViewRows(*f.q, *orig_id);
  auto rest_rows = ViewRows(**restored, *rest_id);
  ASSERT_EQ(orig_rows.size(), rest_rows.size());
  for (std::size_t i = 0; i < orig_rows.size(); ++i) {
    EXPECT_EQ(orig_rows[i].first, rest_rows[i].first);
    EXPECT_EQ(orig_rows[i].second, rest_rows[i].second);
  }
}

TEST(SnapshotRoundTripTest, RestoredTwinStaysIdenticalUnderFeedback) {
  // The differential contract: keep driving the original and the restored
  // twin with an identical randomized feedback schedule; their durable
  // state must never diverge.
  util::Rng rng(TestSeed());
  for (int round = 0; round < 2; ++round) {
    Fixture f = BuildTrainedSystem(/*num_views=*/2);
    std::string dir = FreshDir("twin" + std::to_string(round));
    ASSERT_TRUE(f.q->SaveSnapshot(dir).ok());
    auto restored =
        core::QSystem::OpenFromSnapshot(dir, core::QSystemConfig());
    ASSERT_TRUE(restored.ok()) << restored.status();
    core::QSystem& twin = **restored;

    feedback::SimulatedUser user(f.dataset.gold_edges);
    const auto& queries = f.dataset.keyword_queries;
    for (int step = 0; step < 4; ++step) {
      const auto& keywords = queries[rng.Uniform(queries.size())];
      auto a = f.q->CreateView(keywords);
      auto b = twin.CreateView(keywords);
      ASSERT_EQ(a.ok(), b.ok());
      if (!a.ok()) continue;
      auto fa = f.q->ApplyGoldFeedback(*a, user);
      auto fb = twin.ApplyGoldFeedback(*b, user);
      ASSERT_TRUE(fa.ok()) << fa.status();
      ASSERT_TRUE(fb.ok()) << fb.status();
      ASSERT_EQ(*fa, *fb);
      ExpectWeightsEqual(f.q->weights(), twin.weights());
      auto ra = ViewRows(*f.q, *a);
      auto rb = ViewRows(twin, *b);
      ASSERT_EQ(ra.size(), rb.size());
      for (std::size_t i = 0; i < ra.size(); ++i) {
        EXPECT_EQ(ra[i].first, rb[i].first);
        EXPECT_EQ(ra[i].second, rb[i].second);
      }
    }
    ExpectGraphsEqual(f.q->search_graph(), twin.search_graph());
  }
}

TEST(SnapshotRoundTripTest, SecondSaveReplacesFirst) {
  Fixture f = BuildTrainedSystem(/*num_views=*/1);
  std::string dir = FreshDir("replace");
  ASSERT_TRUE(f.q->SaveSnapshot(dir).ok());
  std::uint64_t rev_at_first_save = f.q->weights().revision();

  // Move the system forward, save again: the snapshot must reflect the
  // latest state, not the first.
  feedback::SimulatedUser user(f.dataset.gold_edges);
  auto view_id = f.q->CreateView(f.dataset.keyword_queries[1]);
  ASSERT_TRUE(view_id.ok());
  ASSERT_TRUE(f.q->ApplyGoldFeedback(*view_id, user).ok());
  ASSERT_TRUE(f.q->SaveSnapshot(dir).ok());

  auto restored =
      core::QSystem::OpenFromSnapshot(dir, core::QSystemConfig());
  ASSERT_TRUE(restored.ok()) << restored.status();
  EXPECT_GE((*restored)->weights().revision(), rev_at_first_save);
  ExpectSystemsEqual(*f.q, **restored);
}

TEST(SnapshotRoundTripTest, ReplayingPersistedLogReproducesWeights) {
  // The degraded-weights recovery rung, exercised directly: a fresh
  // weight vector plus the persisted (complete-history) feedback log must
  // land on the same effective weights as the saved system.
  Fixture f = BuildTrainedSystem();
  ASSERT_TRUE(f.q->feedback_log().complete_history());

  feedback::FeedbackLog log;
  ASSERT_TRUE(
      DecodeFeedback(EncodeFeedback(f.q->feedback_log()), &log).ok());
  graph::FeatureSpace space;
  ASSERT_TRUE(
      DecodeFeatureSpace(EncodeFeatureSpace(f.q->feature_space()), &space)
          .ok());
  graph::WeightVector replayed(&space);
  ASSERT_TRUE(log.ReplayInto(&replayed).ok());
  for (graph::FeatureId id = 0; id < space.size(); ++id) {
    EXPECT_EQ(replayed.At(id), f.q->weights().At(id)) << "feature " << id;
  }
}

TEST(SnapshotRoundTripTest, AsyncSystemQuiescesAndRoundTrips) {
  // Saving with the async scheduler enabled must quiesce first and
  // produce the same snapshot a synchronous system would.
  auto dataset = data::BuildInterProGo(SmallDataset());
  core::QSystemConfig config;
  config.async_refresh = true;
  core::QSystem q(config);
  for (const auto& src : dataset.catalog.sources()) {
    ASSERT_TRUE(q.RegisterSource(src).ok());
  }
  ASSERT_TRUE(q.RunInitialAlignment().ok());
  feedback::SimulatedUser user(dataset.gold_edges);
  auto view_id = q.CreateView(dataset.keyword_queries[0]);
  ASSERT_TRUE(view_id.ok());
  ASSERT_TRUE(q.ApplyGoldFeedback(*view_id, user).ok());

  std::string dir = FreshDir("async");
  ASSERT_TRUE(q.SaveSnapshot(dir).ok());
  SnapshotLoadReport report;
  auto restored = core::QSystem::OpenFromSnapshot(
      dir, core::QSystemConfig(), nullptr, &report);
  ASSERT_TRUE(restored.ok()) << restored.status();
  EXPECT_TRUE(report.complete()) << report.Summary();
  ExpectWeightsEqual(q.weights(), (*restored)->weights());
  ExpectGraphsEqual(q.search_graph(), (*restored)->search_graph());
}

}  // namespace
}  // namespace q::persist
