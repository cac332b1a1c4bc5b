// Fault-injection harness for the persistence layer (docs/persistence.md):
// kill the save at every operation of the atomic-write sequence, then
// truncate, bit-flip, and tear the snapshot file on reopen. The contract
// under test: a crashed save leaves either the previous snapshot or no
// snapshot (never a mix), and a damaged snapshot degrades per the recovery
// ladder — never a crash, never UB.
//
// Seed: Q_PERSIST_FAULT_SEED in the environment overrides the default, so
// scripts/crash_inject.sh can sweep many randomized torn-write shapes.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdlib>
#include <memory>
#include <string>
#include <string_view>
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
  return s != nullptr ? std::strtoull(s, nullptr, 10) : 77001ull;
}

std::string FreshDir(const std::string& name) {
  std::string dir = ::testing::TempDir() + "persist_fault_" + name + "_" +
                    std::to_string(::getpid());
  (void)util::DefaultEnv()->RemoveFile(SnapshotFilePath(dir));
  (void)util::DefaultEnv()->RemoveFile(SnapshotFilePath(dir) + ".tmp");
  return dir;
}

data::InterProGoConfig TinyDataset() {
  data::InterProGoConfig config;
  config.num_go_terms = 30;
  config.num_entries = 24;
  config.num_pubs = 20;
  config.num_journals = 5;
  config.num_methods = 16;
  config.interpro2go_links = 45;
  config.entry2pub_links = 40;
  config.method2pub_links = 30;
  return config;
}

struct Fixture {
  data::InterProGoDataset dataset;
  std::unique_ptr<core::QSystem> q;
};

Fixture BuildTrainedSystem(std::size_t feedback_rounds = 2) {
  Fixture f;
  f.dataset = data::BuildInterProGo(TinyDataset());
  f.q = std::make_unique<core::QSystem>();
  for (const auto& src : f.dataset.catalog.sources()) {
    EXPECT_TRUE(f.q->RegisterSource(src).ok());
  }
  EXPECT_TRUE(f.q->RunInitialAlignment().ok());
  feedback::SimulatedUser user(f.dataset.gold_edges);
  for (std::size_t i = 0;
       i < feedback_rounds && i < f.dataset.keyword_queries.size(); ++i) {
    auto view_id = f.q->CreateView(f.dataset.keyword_queries[i]);
    if (!view_id.ok()) continue;
    EXPECT_TRUE(f.q->ApplyGoldFeedback(*view_id, user).ok());
  }
  return f;
}

// Cheap, collision-resistant-enough identity of a system's durable core:
// enough to tell state A from state B and from any half-written mix.
struct Fingerprint {
  std::size_t relations = 0;
  std::size_t nodes = 0;
  std::size_t edges = 0;
  std::size_t associations = 0;
  std::uint64_t graph_revision = 0;
  std::uint64_t weight_revision = 0;
  std::uint64_t next_sequence = 0;
  std::vector<double> weights;

  bool operator==(const Fingerprint& o) const {
    return relations == o.relations && nodes == o.nodes && edges == o.edges &&
           associations == o.associations &&
           graph_revision == o.graph_revision &&
           weight_revision == o.weight_revision &&
           next_sequence == o.next_sequence && weights == o.weights;
  }
  bool operator!=(const Fingerprint& o) const { return !(*this == o); }
};

Fingerprint FingerprintOf(const core::QSystem& q) {
  Fingerprint fp;
  fp.relations = q.catalog().num_relations();
  fp.nodes = q.search_graph().num_nodes();
  fp.edges = q.search_graph().num_edges();
  fp.associations =
      q.search_graph().EdgesOfKind(graph::EdgeKind::kAssociation).size();
  fp.graph_revision = q.search_graph().revision();
  fp.weight_revision = q.weights().revision();
  fp.next_sequence = q.feedback_log().next_sequence();
  fp.weights = q.weights().values();
  return fp;
}

std::string Describe(const Fingerprint& fp) {
  return "relations=" + std::to_string(fp.relations) +
         " nodes=" + std::to_string(fp.nodes) +
         " edges=" + std::to_string(fp.edges) +
         " assoc=" + std::to_string(fp.associations) +
         " grev=" + std::to_string(fp.graph_revision) +
         " wrev=" + std::to_string(fp.weight_revision) +
         " seq=" + std::to_string(fp.next_sequence);
}

// Opens whatever is in `dir` and returns its fingerprint; fails the test
// on anything other than a clean, complete load.
Fingerprint ReopenComplete(const std::string& dir) {
  SnapshotLoadReport report;
  auto q = core::QSystem::OpenFromSnapshot(dir, core::QSystemConfig(), nullptr,
                                           &report);
  EXPECT_TRUE(q.ok()) << q.status();
  EXPECT_TRUE(report.complete()) << report.Summary();
  return FingerprintOf(**q);
}

// Counts the mutating env ops one full save issues (the sweep range).
std::uint64_t OpsPerSave(core::QSystem& q) {
  std::string dir = FreshDir("probe");
  util::FaultyEnv faulty(util::DefaultEnv(), TestSeed());
  EXPECT_TRUE(q.SaveSnapshot(dir, &faulty).ok());
  EXPECT_GT(faulty.ops_issued(), 4u);
  return faulty.ops_issued();
}

// --- FaultyEnv semantics ----------------------------------------------------

TEST(FaultyEnvTest, KillPointFailsThatOpAndEveryLaterOne) {
  util::FaultyEnv faulty(util::DefaultEnv(), TestSeed());
  std::string dir = FreshDir("env_sema");
  ASSERT_TRUE(util::DefaultEnv()->CreateDirs(dir).ok());
  std::string path = dir + "/probe";

  faulty.set_kill_after(1);
  EXPECT_TRUE(faulty.WriteFile(path, "first").ok());     // op 0: passes
  EXPECT_FALSE(faulty.WriteFile(path, "second").ok());   // op 1: killed
  EXPECT_FALSE(faulty.SyncFile(path).ok());              // op 2: still dead
  EXPECT_FALSE(faulty.RenameFile(path, path + "x").ok());  // op 3: still dead
  EXPECT_EQ(faulty.ops_issued(), 4u);

  // Reads pass through so the test can inspect the wreckage.
  auto contents = faulty.ReadFile(path);
  ASSERT_TRUE(contents.ok());
  // The op at the kill point tears: a strict prefix may have landed, but
  // never the full payload followed by more.
  EXPECT_TRUE(contents->size() <= 6u);
  EXPECT_TRUE(*contents == "first" ||
              std::string("second").rfind(*contents, 0) == 0)
      << "unexpected contents: " << *contents;
}

TEST(FaultyEnvTest, ResetRearmsWithoutReplayingTornPrefixes) {
  util::FaultyEnv faulty(util::DefaultEnv(), TestSeed());
  std::string dir = FreshDir("env_reset");
  ASSERT_TRUE(util::DefaultEnv()->CreateDirs(dir).ok());
  faulty.set_kill_after(0);
  EXPECT_FALSE(faulty.WriteFile(dir + "/f", "data").ok());
  faulty.Reset();
  EXPECT_EQ(faulty.ops_issued(), 0u);
  EXPECT_TRUE(faulty.WriteFile(dir + "/f", "data").ok());
}

// --- kill-point sweeps --------------------------------------------------------

TEST(CrashSafetyTest, FirstSaveKilledAtEveryPointLeavesNoSnapshotOrAWholeOne) {
  Fixture f = BuildTrainedSystem();
  const Fingerprint want = FingerprintOf(*f.q);
  const std::uint64_t num_ops = OpsPerSave(*f.q);

  for (std::uint64_t kill = 0; kill < num_ops; ++kill) {
    SCOPED_TRACE("kill point " + std::to_string(kill));
    std::string dir = FreshDir("first_save_k" + std::to_string(kill));
    util::FaultyEnv faulty(util::DefaultEnv(), TestSeed() + kill);
    faulty.set_kill_after(kill);
    util::Status save = f.q->SaveSnapshot(dir, &faulty);
    EXPECT_FALSE(save.ok());

    // Atomicity: either no snapshot at all, or the complete new one (the
    // crash landed after the rename). Never a partial file at the
    // published path.
    SnapshotLoadReport report;
    auto reopened = core::QSystem::OpenFromSnapshot(
        dir, core::QSystemConfig(), nullptr, &report);
    if (reopened.ok()) {
      EXPECT_TRUE(report.complete()) << report.Summary();
      EXPECT_EQ(FingerprintOf(**reopened), want);
    } else {
      EXPECT_TRUE(reopened.status().IsNotFound()) << reopened.status();
    }

    // Recovery: a later clean save must succeed over the wreckage (torn
    // tmp files and all) and be fully loadable.
    ASSERT_TRUE(f.q->SaveSnapshot(dir).ok());
    EXPECT_EQ(ReopenComplete(dir), want);
  }
}

TEST(CrashSafetyTest, OverwriteKilledAtEveryPointKeepsOldOrNewNeverAMix) {
  Fixture f = BuildTrainedSystem(/*feedback_rounds=*/1);
  const std::uint64_t num_ops = OpsPerSave(*f.q);
  const Fingerprint state_a = FingerprintOf(*f.q);

  // Capture state A's snapshot bytes before advancing the system, so each
  // sweep iteration can reinstall "the previous snapshot" verbatim.
  std::string a_dir = FreshDir("overwrite_a");
  ASSERT_TRUE(f.q->SaveSnapshot(a_dir).ok());
  std::string a_file;
  {
    auto bytes = util::DefaultEnv()->ReadFile(SnapshotFilePath(a_dir));
    ASSERT_TRUE(bytes.ok()) << bytes.status();
    a_file = *std::move(bytes);
  }

  // Advance to state B.
  feedback::SimulatedUser user(f.dataset.gold_edges);
  auto view_id = f.q->CreateView(f.dataset.keyword_queries[1]);
  ASSERT_TRUE(view_id.ok());
  ASSERT_TRUE(f.q->ApplyGoldFeedback(*view_id, user).ok());
  const Fingerprint state_b = FingerprintOf(*f.q);
  ASSERT_NE(state_a, state_b);

  int survived_as_a = 0;
  int survived_as_b = 0;
  for (std::uint64_t kill = 0; kill < num_ops; ++kill) {
    SCOPED_TRACE("kill point " + std::to_string(kill));
    std::string dir = FreshDir("overwrite_k" + std::to_string(kill));

    // Install snapshot A, then crash partway through saving B over it.
    ASSERT_TRUE(util::DefaultEnv()->CreateDirs(dir).ok());
    ASSERT_TRUE(
        util::DefaultEnv()->WriteFile(SnapshotFilePath(dir), a_file).ok());
    ASSERT_EQ(ReopenComplete(dir), state_a);

    util::FaultyEnv faulty(util::DefaultEnv(), TestSeed() + 1000 + kill);
    faulty.set_kill_after(kill);
    EXPECT_FALSE(f.q->SaveSnapshot(dir, &faulty).ok());

    Fingerprint after = ReopenComplete(dir);
    EXPECT_TRUE(after == state_a || after == state_b)
        << "mixed state after kill " << kill << ": " << Describe(after);
    if (after == state_a) ++survived_as_a;
    if (after == state_b) ++survived_as_b;

    // Clean retry finishes the job.
    ASSERT_TRUE(f.q->SaveSnapshot(dir).ok());
    EXPECT_EQ(ReopenComplete(dir), state_b);
  }
  // The sweep must actually exercise the "old snapshot survives" side;
  // the rename is the commit point, so most kill points land there.
  EXPECT_GT(survived_as_a, 0);
}

// --- corruption matrices --------------------------------------------------------

class CorruptionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fixture_ = BuildTrainedSystem();
    want_ = FingerprintOf(*fixture_.q);
    dir_ = FreshDir("corrupt_src");
    ASSERT_TRUE(fixture_.q->SaveSnapshot(dir_).ok());
    auto bytes = util::DefaultEnv()->ReadFile(SnapshotFilePath(dir_));
    ASSERT_TRUE(bytes.ok()) << bytes.status();
    good_ = *std::move(bytes);
    ASSERT_GT(good_.size(), 64u);
  }

  // Writes `bytes` as the snapshot of a scratch dir and opens it.
  util::Result<std::unique_ptr<core::QSystem>> OpenBytes(
      const std::string& bytes, SnapshotLoadReport* report) {
    std::string dir = FreshDir("corrupt_case");
    (void)util::DefaultEnv()->CreateDirs(dir);
    EXPECT_TRUE(
        util::DefaultEnv()->WriteFile(SnapshotFilePath(dir), bytes).ok());
    return core::QSystem::OpenFromSnapshot(dir, core::QSystemConfig(),
                                           nullptr, report);
  }

  Fixture fixture_;
  Fingerprint want_;
  std::string dir_;
  std::string good_;
};

TEST_F(CorruptionTest, TruncationAtEveryStrideDegradesNeverCrashes) {
  // Sweep truncation points across the file, plus the exact boundaries
  // (empty file, header-only, mid-header).
  std::vector<std::size_t> lengths = {0, 1, 7, 19, 20};
  const std::size_t kSteps = 31;
  for (std::size_t i = 1; i <= kSteps; ++i) {
    lengths.push_back(good_.size() * i / (kSteps + 1));
  }
  for (std::size_t len : lengths) {
    if (len >= good_.size()) continue;
    SCOPED_TRACE("truncated to " + std::to_string(len) + "/" +
                 std::to_string(good_.size()));
    SnapshotLoadReport report;
    auto q = OpenBytes(good_.substr(0, len), &report);
    ASSERT_TRUE(q.ok()) << q.status();  // a QSystem always comes up
    // A truncated file can never silently load as complete.
    EXPECT_FALSE(report.complete()) << report.Summary();
    // Whatever survived must be internally consistent: either a cold
    // start or a catalog-anchored partial restore.
    if (report.cold_start) {
      EXPECT_EQ((*q)->catalog().num_relations(), 0u);
    } else {
      EXPECT_EQ((*q)->catalog().num_relations(), want_.relations);
    }
  }
  // The untruncated file is the control: it loads complete.
  SnapshotLoadReport report;
  auto q = OpenBytes(good_, &report);
  ASSERT_TRUE(q.ok());
  EXPECT_TRUE(report.complete()) << report.Summary();
  EXPECT_EQ(FingerprintOf(**q), want_);
}

TEST_F(CorruptionTest, SingleBitFlipsAreAlwaysDetected) {
  // CRC-32 detects every single-bit error; sweep flips across the whole
  // file (header, frame headers, payloads) at a prime stride.
  util::Rng rng(TestSeed());
  for (std::size_t off = 0; off < good_.size();
       off += 97 + rng.Uniform(32)) {
    SCOPED_TRACE("bit flip at offset " + std::to_string(off));
    std::string bytes = good_;
    bytes[off] = static_cast<char>(
        static_cast<unsigned char>(bytes[off]) ^ (1u << rng.Uniform(8)));
    SnapshotLoadReport report;
    auto q = OpenBytes(bytes, &report);
    ASSERT_TRUE(q.ok()) << q.status();
    EXPECT_FALSE(report.complete())
        << "undetected corruption at " << off << ": " << report.Summary();
  }
}

// Locates each section's payload span inside the good snapshot bytes so
// corruption can be aimed at one section at a time.
struct SectionSpan {
  std::uint32_t tag;
  std::size_t offset;
  std::size_t size;
};

std::vector<SectionSpan> LocateSections(const std::string& file) {
  ParseOutcome outcome;
  util::Status st = ParseSnapshotFile(file, &outcome);
  EXPECT_TRUE(st.ok()) << st.ToString();
  std::vector<SectionSpan> spans;
  for (const ParsedSection& s : outcome.sections) {
    spans.push_back(SectionSpan{
        s.tag, static_cast<std::size_t>(s.payload.data() - file.data()),
        s.payload.size()});
  }
  return spans;
}

TEST_F(CorruptionTest, RecoveryLadderHoldsPerDamagedSection) {
  std::vector<SectionSpan> spans = LocateSections(good_);
  ASSERT_EQ(spans.size(), 5u);

  for (const SectionSpan& span : spans) {
    SCOPED_TRACE(std::string("corrupting section ") +
                 std::string(SectionTagName(span.tag)));
    ASSERT_GT(span.size, 0u);
    std::string bytes = good_;
    bytes[span.offset + span.size / 2] ^= 0x5A;

    SnapshotLoadReport report;
    auto q = OpenBytes(bytes, &report);
    ASSERT_TRUE(q.ok()) << q.status();
    EXPECT_FALSE(report.complete());
    core::QSystem& sys = **q;

    switch (static_cast<SectionTag>(span.tag)) {
      case SectionTag::kCatalog:
        // Bottom rung: nothing is meaningful without the catalog.
        EXPECT_TRUE(report.cold_start);
        EXPECT_EQ(sys.catalog().num_relations(), 0u);
        break;
      case SectionTag::kFeatureSpace:
        // Catalog survives; graph is rebuilt structurally; learned
        // capital (associations + weights) is gone.
        EXPECT_FALSE(report.cold_start);
        EXPECT_TRUE(report.catalog.ok());
        EXPECT_FALSE(report.feature_space.ok());
        EXPECT_EQ(sys.catalog().num_relations(), want_.relations);
        EXPECT_TRUE(sys.search_graph()
                        .EdgesOfKind(graph::EdgeKind::kAssociation)
                        .empty());
        break;
      case SectionTag::kGraph:
        // Associations lost, but restored weights are intact.
        EXPECT_FALSE(report.cold_start);
        EXPECT_TRUE(report.catalog.ok());
        EXPECT_FALSE(report.graph.ok());
        EXPECT_TRUE(report.weights.ok());
        EXPECT_EQ(sys.weights().values(), want_.weights);
        EXPECT_TRUE(sys.search_graph()
                        .EdgesOfKind(graph::EdgeKind::kAssociation)
                        .empty());
        break;
      case SectionTag::kWeights: {
        // The replay rung: weights relearned from the persisted feedback
        // log. With a complete history the effective weights match the
        // saved system exactly.
        EXPECT_FALSE(report.cold_start);
        EXPECT_FALSE(report.weights.ok());
        EXPECT_TRUE(report.feedback.ok());
        EXPECT_TRUE(report.weights_replayed) << report.Summary();
        const graph::FeatureSpace& space =
            const_cast<core::QSystem&>(sys).feature_space();
        for (graph::FeatureId id = 0; id < space.size(); ++id) {
          EXPECT_EQ(sys.weights().At(id), fixture_.q->weights().At(id))
              << "feature " << id;
        }
        break;
      }
      case SectionTag::kFeedback:
        // Everything else intact; only the log is gone.
        EXPECT_FALSE(report.cold_start);
        EXPECT_FALSE(report.feedback.ok());
        EXPECT_TRUE(report.weights.ok());
        EXPECT_TRUE(sys.feedback_log().empty());
        EXPECT_EQ(sys.weights().values(), want_.weights);
        EXPECT_EQ(sys.search_graph().num_edges(), want_.edges);
        break;
    }
    // Every degraded system must still be able to serve: create a view
    // over whatever survived without crashing.
    if (!report.cold_start) {
      auto view = sys.CreateView(fixture_.dataset.keyword_queries[0]);
      // Degraded graphs may legitimately have no answer; the contract is
      // "no crash, a Status on failure".
      (void)view;
    }
  }
}

TEST_F(CorruptionTest, TornTmpFileNextToValidSnapshotIsIgnored) {
  std::string dir = FreshDir("torn_tmp");
  ASSERT_TRUE(util::DefaultEnv()->CreateDirs(dir).ok());
  ASSERT_TRUE(
      util::DefaultEnv()->WriteFile(SnapshotFilePath(dir), good_).ok());
  // A torn staging file from a crashed save must not affect loading.
  ASSERT_TRUE(util::DefaultEnv()
                  ->WriteFile(SnapshotFilePath(dir) + ".tmp",
                              good_.substr(0, good_.size() / 3))
                  .ok());
  EXPECT_EQ(ReopenComplete(dir), want_);
  // And the next save replaces the torn tmp without complaint.
  ASSERT_TRUE(fixture_.q->SaveSnapshot(dir).ok());
  EXPECT_EQ(ReopenComplete(dir), want_);
}

// A file of another format version takes the header rung even with a
// valid header CRC: the system comes up clean and empty, and the report
// names the version it found.
TEST_F(CorruptionTest, OtherFormatVersionColdStarts) {
  std::string bytes = good_;
  std::string patch;
  PutU32(&patch, kFormatVersion - 1);
  bytes.replace(kMagicLen, 4, patch);
  patch.clear();
  PutU32(&patch, Crc32(std::string_view(bytes).substr(0, kMagicLen + 8)));
  bytes.replace(kMagicLen + 8, 4, patch);

  SnapshotLoadReport report;
  auto q = OpenBytes(bytes, &report);
  ASSERT_TRUE(q.ok()) << q.status();
  EXPECT_TRUE(report.cold_start);
  EXPECT_FALSE(report.complete());
  EXPECT_TRUE(report.header.IsUnimplemented()) << report.header.ToString();
  EXPECT_EQ(report.header.message(),
            "unsupported snapshot format version " +
                std::to_string(kFormatVersion - 1));
  EXPECT_EQ((*q)->catalog().num_relations(), 0u);
  EXPECT_EQ((*q)->search_graph().num_edges(), 0u);
}

TEST_F(CorruptionTest, SwappedAndDuplicatedFramesNeverCrash) {
  // Frame-level shuffles: duplicate the first section, drop the last,
  // append trailing garbage. All must degrade gracefully.
  std::vector<SectionSpan> spans = LocateSections(good_);
  ASSERT_EQ(spans.size(), 5u);
  const std::size_t frame0_start = spans[0].offset - 16;  // tag+len+crc
  const std::size_t frame0_end = spans[0].offset + spans[0].size;

  std::string duplicated = good_ +
      good_.substr(frame0_start, frame0_end - frame0_start);
  SnapshotLoadReport report;
  auto q1 = OpenBytes(duplicated, &report);
  EXPECT_TRUE(q1.ok()) << q1.status();

  std::string trailing = good_ + "garbage-after-the-last-frame";
  auto q2 = OpenBytes(trailing, &report);
  EXPECT_TRUE(q2.ok()) << q2.status();

  std::string dropped = good_.substr(0, spans[4].offset - 16);
  auto q3 = OpenBytes(dropped, &report);
  ASSERT_TRUE(q3.ok()) << q3.status();
  EXPECT_FALSE(report.complete());
}

}  // namespace
}  // namespace q::persist
