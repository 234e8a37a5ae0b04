// Serial Lazy-Join equivalence: every representation and cache
// configuration of the one kernel must emit byte-identical output — same
// pairs, same order — to the plain tree-scan run, with and without
// path-summary pruning, across random workloads, shapes, update
// sequences and both log modes.
//
// The suite keeps the name `ParallelJoinTest` of the partitioned
// executor's equivalence suite it replaces, so every test that survived
// the executor's removal keeps its id.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/compact_index.h"
#include "core/lazy_database.h"
#include "core/lazy_join.h"
#include "core/scan_cache.h"
#include "query/path_summary.h"
#include "tests/testutil.h"
#include "xml/parser.h"
#include "xmlgen/join_workload.h"

namespace lazyxml {
namespace {

void ExpectSamePairs(const LazyJoinResult& got, const LazyJoinResult& want,
                     const std::string& what) {
  ASSERT_EQ(got.pairs.size(), want.pairs.size()) << what;
  for (size_t i = 0; i < want.pairs.size(); ++i) {
    ASSERT_TRUE(got.pairs[i] == want.pairs[i]) << what << ": pair #" << i;
  }
}

// The representation- and cache-independent statistics. elements_fetched
// is not among them: cache hits replace index reads, and the compact
// representation counts block decodes, not records.
void ExpectSameCounters(const LazyJoinStats& got, const LazyJoinStats& want,
                        const std::string& what) {
  EXPECT_EQ(got.cross_segment_pairs, want.cross_segment_pairs) << what;
  EXPECT_EQ(got.in_segment_pairs, want.in_segment_pairs) << what;
  EXPECT_EQ(got.segments_pushed, want.segments_pushed) << what;
  EXPECT_EQ(got.segments_skipped, want.segments_skipped) << what;
}

// Runs anc//desc over {tree scans, compact scans} x {no cache, 4 MiB
// scan cache} x {unpruned, path-summary pruned} and asserts pair-for-pair
// identical output against the unpruned, uncached tree-scan run. Cached
// runs go twice — cold, then served from the warm cache. The counters
// are compared too, except under pruning, where they legitimately
// shrink.
void ExpectJoinEquivalence(LazyDatabase* db, const std::string& anc,
                           const std::string& desc,
                           const LazyJoinOptions& jopts) {
  db->Freeze();
  auto a = db->tag_dict().Lookup(anc);
  auto d = db->tag_dict().Lookup(desc);
  if (!a.ok() || !d.ok()) return;  // tag absent: nothing to compare
  const TagId atid = a.ValueOrDie();
  const TagId dtid = d.ValueOrDie();
  const UpdateLog& log = db->update_log();
  const ElementIndex& index = db->element_index();

  auto reference_r = LazyJoin(log, index, atid, dtid, jopts);
  ASSERT_TRUE(reference_r.ok()) << reference_r.status().ToString();
  const LazyJoinResult& reference = reference_r.ValueOrDie();

  auto compact_r = CompactElementIndex::Build(index);
  ASSERT_TRUE(compact_r.ok()) << compact_r.status().ToString();
  const std::shared_ptr<const CompactElementIndex> compact =
      compact_r.ValueOrDie();

  auto summary_r = LazyDatabase::BuildPathSummary(log, index);
  ASSERT_TRUE(summary_r.ok()) << summary_r.status().ToString();
  const JoinPrune prune = summary_r.ValueOrDie()->ComputeJoinPrune(
      atid, dtid, jopts.parent_child);
  ASSERT_TRUE(prune.usable);
  if (prune.provably_empty) {
    EXPECT_TRUE(reference.pairs.empty())
        << anc << "//" << desc << " proved empty but the kernel found pairs";
  }
  LazyJoinOptions pruned_opts = jopts;
  pruned_opts.ancestor_sid_filter = &prune.ancestor_sids;
  pruned_opts.descendant_sid_filter = &prune.descendant_sids;

  for (bool pruned : {false, true}) {
    if (pruned && prune.provably_empty) continue;
    for (bool use_compact : {false, true}) {
      for (bool with_cache : {false, true}) {
        ElementScanCacheOptions copts;
        copts.capacity_bytes = 4u << 20;
        ElementScanCache cache(copts);
        for (int run = 0; run < (with_cache ? 2 : 1); ++run) {
          const std::string what =
              anc + "//" + desc + " pruned=" + std::to_string(pruned) +
              " compact=" + std::to_string(use_compact) +
              " cache=" + std::to_string(with_cache) +
              " run=" + std::to_string(run);
          auto got_r = LazyJoin(log, index, atid, dtid,
                                pruned ? pruned_opts : jopts,
                                use_compact ? compact.get() : nullptr,
                                with_cache ? &cache : nullptr,
                                db->mutation_epoch());
          ASSERT_TRUE(got_r.ok()) << what << ": " << got_r.status().ToString();
          const LazyJoinResult& got = got_r.ValueOrDie();
          ExpectSamePairs(got, reference, what);
          if (!pruned) {
            ExpectSameCounters(got.stats, reference.stats, what);
          }
          if (!use_compact) {
            EXPECT_EQ(got.stats.blocks_skipped, 0u) << what;
          }
        }
      }
    }
  }
}

void BuildWorkload(LazyDatabase* db, std::string* shadow,
                   const JoinWorkloadConfig& config) {
  auto plan_r = BuildJoinWorkload(config);
  ASSERT_TRUE(plan_r.ok()) << plan_r.status().ToString();
  const auto& plan = plan_r.ValueOrDie();
  ASSERT_TRUE(db->ApplyPlan(plan.insertions).ok());
  *shadow = testutil::ApplyPlanToString(plan.insertions);
}

TEST(ParallelJoinTest, Fig12BalancedWorkloadIdenticalToSerial) {
  LazyDatabase db;
  std::string shadow;
  JoinWorkloadConfig config;
  config.num_segments = 40;
  config.shape = ErTreeShape::kBalanced;
  config.total_joins = 3000;
  config.cross_fraction = 0.5;
  config.num_a_elements = 6000;
  config.num_d_elements = 6000;
  BuildWorkload(&db, &shadow, config);

  ExpectJoinEquivalence(&db, "A", "D", {});
  ExpectJoinEquivalence(&db, "A", "A", {});  // self-join
  ExpectJoinEquivalence(&db, "seg", "D", {});
  LazyJoinOptions pc;
  pc.parent_child = true;
  ExpectJoinEquivalence(&db, "A", "D", pc);
  LazyJoinOptions unopt;
  unopt.optimize_stack = false;
  ExpectJoinEquivalence(&db, "A", "D", unopt);

  // Anchor the serial side against the text oracle too.
  auto global = db.JoinGlobal("A", "D");
  ASSERT_TRUE(global.ok());
  EXPECT_EQ(global.ValueOrDie(), testutil::OracleJoin(shadow, "A", "D"));
}

TEST(ParallelJoinTest, NestedChainWorkloadIdenticalToSerial) {
  // The nested shape keeps the top segment on the stack for the whole
  // run, so every round joins against a deep ancestor stack.
  LazyDatabase db;
  std::string shadow;
  JoinWorkloadConfig config;
  config.num_segments = 24;
  config.shape = ErTreeShape::kNested;
  config.total_joins = 1500;
  config.cross_fraction = 0.6;
  config.num_a_elements = 4000;
  config.num_d_elements = 4000;
  BuildWorkload(&db, &shadow, config);

  ExpectJoinEquivalence(&db, "A", "D", {});
  ExpectJoinEquivalence(&db, "seg", "D", {});
  ExpectJoinEquivalence(&db, "seg", "seg", {});
}

TEST(ParallelJoinTest, RandomizedWorkloadsWithUpdatesAndFreezes) {
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    SCOPED_TRACE(testing::Message() << "seed=" << seed);
    Random rng(seed);
    LazyDatabaseOptions opts;
    opts.mode = rng.Bernoulli(0.5) ? LogMode::kLazyDynamic
                                   : LogMode::kLazyStatic;
    LazyDatabase db(opts);
    std::string shadow;

    JoinWorkloadConfig config;
    config.num_segments = 3 + static_cast<uint32_t>(rng.Uniform(30));
    config.shape =
        rng.Bernoulli(0.5) ? ErTreeShape::kBalanced : ErTreeShape::kNested;
    config.total_joins = 200 + rng.Uniform(1200);
    config.cross_fraction = 0.1 + 0.8 * rng.NextDouble();
    config.num_a_elements = 2 * config.total_joins + rng.Uniform(2000);
    config.num_d_elements = 2 * config.total_joins + rng.Uniform(2000);
    BuildWorkload(&db, &shadow, config);

    // A few random whole-element removals (always splice-safe), with an
    // interleaved freeze sometimes — the kernel must stay correct on logs
    // whose frozen coordinates were reshaped by updates.
    const int removals = static_cast<int>(rng.Uniform(4));
    for (int r = 0; r < removals; ++r) {
      TagDict dict;
      auto parsed = ParseFragment(shadow, &dict);
      ASSERT_TRUE(parsed.ok());
      const auto& records = parsed.ValueOrDie().records;
      if (records.empty()) break;
      const ElementRecord& victim = records[rng.Uniform(records.size())];
      ASSERT_TRUE(
          db.RemoveSegment(victim.start, victim.end - victim.start).ok());
      testutil::SpliceRemove(&shadow, victim.start,
                             victim.end - victim.start);
      if (rng.Bernoulli(0.3)) db.Freeze();
    }

    ExpectJoinEquivalence(&db, "A", "D", {});
    ExpectJoinEquivalence(&db, "A", "A", {});
    LazyJoinOptions unopt;
    unopt.optimize_stack = false;
    ExpectJoinEquivalence(&db, "A", "D", unopt);

    // Serial side vs the text oracle keeps the whole chain honest.
    auto global = db.JoinGlobal("A", "D");
    ASSERT_TRUE(global.ok());
    ASSERT_EQ(global.ValueOrDie(), testutil::OracleJoin(shadow, "A", "D"));
  }
}

TEST(ParallelJoinTest, FacadeSharedCacheServesRepeatQuery) {
  LazyDatabaseOptions opts;
  opts.query.cache_bytes = 1u << 20;
  LazyDatabase db(opts);
  std::string shadow;
  JoinWorkloadConfig config;
  config.num_segments = 48;
  config.total_joins = 4000;
  config.cross_fraction = 0.5;
  config.num_a_elements = 9000;
  config.num_d_elements = 9000;
  BuildWorkload(&db, &shadow, config);

  auto first = db.JoinByName("A", "D");
  ASSERT_TRUE(first.ok());
  // Same query again: the shared cache now serves the scans.
  auto second = db.JoinByName("A", "D");
  ASSERT_TRUE(second.ok());
  EXPECT_GT(second.ValueOrDie().stats.scan_cache_hits, 0u);
  EXPECT_LT(second.ValueOrDie().stats.elements_fetched,
            first.ValueOrDie().stats.elements_fetched);
  ExpectSamePairs(second.ValueOrDie(), first.ValueOrDie(), "repeat query");

  auto global = db.JoinGlobal("A", "D");
  ASSERT_TRUE(global.ok());
  EXPECT_EQ(global.ValueOrDie(), testutil::OracleJoin(shadow, "A", "D"));
}

TEST(ParallelJoinTest, MutationEpochKeepsCachedScansCoherent) {
  LazyDatabaseOptions opts;
  opts.query.cache_bytes = 1u << 20;
  LazyDatabase db(opts);
  std::string shadow;
  JoinWorkloadConfig config;
  config.num_segments = 10;
  config.total_joins = 500;
  config.num_a_elements = 1500;
  config.num_d_elements = 1500;
  BuildWorkload(&db, &shadow, config);

  auto before = db.JoinGlobal("A", "D");
  ASSERT_TRUE(before.ok());
  ASSERT_EQ(before.ValueOrDie(), testutil::OracleJoin(shadow, "A", "D"));

  // Mutate: a fresh sub-document with one more cross join, inserted into
  // the top segment. The epoch bump makes every cached scan unreachable.
  const std::string extra = "<seg><A><D/></A></seg>";
  const uint64_t at = shadow.find("</seg>");
  ASSERT_TRUE(db.InsertSegment(extra, at).ok());
  testutil::SpliceInsert(&shadow, extra, at);

  auto after = db.JoinGlobal("A", "D");
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after.ValueOrDie(), testutil::OracleJoin(shadow, "A", "D"));
  EXPECT_GT(after.ValueOrDie().size(), before.ValueOrDie().size());
}

TEST(ParallelJoinTest, SetQueryOptionsReconfigures) {
  LazyDatabase db;
  std::string shadow;
  JoinWorkloadConfig config;
  config.num_segments = 40;
  config.total_joins = 800;
  config.num_a_elements = 2000;
  config.num_d_elements = 2000;
  BuildWorkload(&db, &shadow, config);

  auto uncached = db.JoinByName("A", "D");
  ASSERT_TRUE(uncached.ok());
  EXPECT_EQ(db.scan_cache(), nullptr);

  QueryOptions q;
  q.cache_bytes = 1u << 20;
  db.SetQueryOptions(q);
  ASSERT_NE(db.scan_cache(), nullptr);
  auto cold = db.JoinByName("A", "D");
  ASSERT_TRUE(cold.ok());
  ExpectSamePairs(cold.ValueOrDie(), uncached.ValueOrDie(), "cold cache");
  auto warm = db.JoinByName("A", "D");
  ASSERT_TRUE(warm.ok());
  ExpectSamePairs(warm.ValueOrDie(), uncached.ValueOrDie(), "warm cache");
  EXPECT_LT(warm.ValueOrDie().stats.elements_fetched,
            cold.ValueOrDie().stats.elements_fetched);

  q.cache_bytes = 0;
  db.SetQueryOptions(q);
  EXPECT_EQ(db.scan_cache(), nullptr);
  auto back = db.JoinByName("A", "D");
  ASSERT_TRUE(back.ok());
  // scan_cache_hits may still be non-zero: the per-query fetch slots
  // (in-segment -> push reuse) count there even without the shared cache.
  ExpectSamePairs(back.ValueOrDie(), uncached.ValueOrDie(), "cache off");
  EXPECT_EQ(back.ValueOrDie().stats.elements_fetched,
            uncached.ValueOrDie().stats.elements_fetched);
}

TEST(ParallelJoinTest, CompactFacadeByteIdenticalAndSkipsBlocks) {
  // Low-cross workload with multi-block lists: most compact blocks hold
  // no splice in (first_start, max_end), so the straddle filter must
  // prune blocks without decoding them — the whole point of the skip
  // headers (blocks_skipped > 0, identical output).
  LazyDatabase db;
  std::string shadow;
  JoinWorkloadConfig config;
  config.num_segments = 6;
  config.shape = ErTreeShape::kBalanced;
  config.total_joins = 2000;
  config.cross_fraction = 0.05;
  config.num_a_elements = 12000;
  config.num_d_elements = 12000;
  BuildWorkload(&db, &shadow, config);

  auto tree = db.JoinByName("A", "D");
  ASSERT_TRUE(tree.ok()) << tree.status().ToString();
  EXPECT_EQ(tree.ValueOrDie().stats.blocks_skipped, 0u);

  QueryOptions q;
  q.use_compact_index = true;
  db.SetQueryOptions(q);
  EXPECT_EQ(db.compact_index(), nullptr) << "not built until Freeze/join";
  auto compact = db.JoinByName("A", "D");
  ASSERT_TRUE(compact.ok()) << compact.status().ToString();
  ASSERT_NE(db.compact_index(), nullptr);

  ASSERT_EQ(compact.ValueOrDie().pairs.size(), tree.ValueOrDie().pairs.size());
  for (size_t i = 0; i < tree.ValueOrDie().pairs.size(); ++i) {
    ASSERT_TRUE(compact.ValueOrDie().pairs[i] == tree.ValueOrDie().pairs[i])
        << "pair #" << i;
  }
  EXPECT_GT(compact.ValueOrDie().stats.blocks_skipped, 0u);

  // Canonicalized output against the text oracle, both representations.
  auto g_tree = db.JoinGlobal("A", "D");
  ASSERT_TRUE(g_tree.ok());
  EXPECT_EQ(g_tree.ValueOrDie(), testutil::OracleJoin(shadow, "A", "D"));

  // A mutation stales the compact index; the next join transparently
  // rebuilds it and still matches.
  ASSERT_TRUE(db.InsertSegment("<A><D/></A>", 0).ok());
  EXPECT_EQ(db.compact_index(), nullptr);
  shadow.insert(0, "<A><D/></A>");
  auto after = db.JoinGlobal("A", "D");
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after.ValueOrDie(), testutil::OracleJoin(shadow, "A", "D"));
  EXPECT_NE(db.compact_index(), nullptr);
}

}  // namespace
}  // namespace lazyxml
