// Serial Lazy-Join micro-benches on the Fig. 12 cross-join workload, at a
// larger scale than the figure (more segments and elements): the shared
// element-scan cache's sizing curve, and the metrics registry's overhead
// on the join path.

#include <map>
#include <string_view>

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"

namespace lazyxml {

// --quick (CI smoke mode, see .github/workflows/ci.yml): a workload an
// order of magnitude smaller, sized so the metrics-overhead check runs
// in seconds on a shared runner while each join still does real work.
bool g_quick = false;

namespace {

constexpr uint32_t kNumSegments = 400;
constexpr uint64_t kTotalJoins = 60000;
constexpr uint64_t kNumA = 200000;
constexpr uint64_t kNumD = 200000;
constexpr double kCrossFraction = 0.6;

JoinWorkloadConfig Config() {
  JoinWorkloadConfig cfg;
  cfg.num_segments = g_quick ? kNumSegments / 8 : kNumSegments;
  cfg.shape = ErTreeShape::kBalanced;
  cfg.total_joins = g_quick ? kTotalJoins / 20 : kTotalJoins;
  cfg.cross_fraction = kCrossFraction;
  cfg.num_a_elements = g_quick ? kNumA / 20 : kNumA;
  cfg.num_d_elements = g_quick ? kNumD / 20 : kNumD;
  return cfg;
}

// The database is expensive to build (hundreds of thousands of element
// inserts); all cache configurations share one instance and only flip
// its query options.
LazyDatabase* SharedDatabase() {
  static LazyDatabase* db = [] {
    auto plan = BuildJoinWorkload(Config());
    LAZYXML_CHECK(plan.ok());
    return bench::BuildDatabase(plan.ValueOrDie().insertions,
                                LogMode::kLazyDynamic)
        .release();
  }();
  return db;
}

size_t SerialPairCount() {
  static const size_t pairs = [] {
    LazyDatabase* db = SharedDatabase();
    db->SetQueryOptions(QueryOptions{});  // no cache
    return bench::RunLazyQuery(db, "A", "D");
  }();
  return pairs;
}

// Cache-sizing curve on a scan-heavy join (seg//D touches every segment's
// D scan — a working set of several MB). Three regimes: no cache (reads
// the index each round, but streams through two hot reused buffers), a
// cache smaller than the working set (partial hits; admission sampling
// bounds the eviction churn but misses plus evictions still cost more
// than they save), and a cache that fits (pure hits, the win). The
// counters expose the regime: c_evict/c_reject > 0 means undersized.
void BM_ScanCacheSizing(benchmark::State& state) {
  LazyDatabase* db = SharedDatabase();
  QueryOptions q;
  q.cache_bytes = static_cast<size_t>(state.range(0)) << 20;
  db->SetQueryOptions(q);
  size_t results = 0;
  LazyJoinStats last_stats;
  for (auto _ : state) {
    auto r = db->JoinByName("seg", "D");
    LAZYXML_CHECK(r.ok());
    results = r.ValueOrDie().pairs.size();
    last_stats = r.ValueOrDie().stats;
    benchmark::DoNotOptimize(results);
  }
  state.counters["fetched"] = static_cast<double>(last_stats.elements_fetched);
  state.counters["q_hits"] = static_cast<double>(last_stats.scan_cache_hits);
  state.counters["pairs"] = static_cast<double>(results);
  state.counters["cache_mb"] = static_cast<double>(state.range(0));
  if (const ElementScanCache* c = db->scan_cache()) {
    const auto cs = c->Stats();
    state.counters["c_hits"] = static_cast<double>(cs.hits);
    state.counters["c_miss"] = static_cast<double>(cs.misses);
    state.counters["c_evict"] = static_cast<double>(cs.evictions);
    state.counters["c_reject"] = static_cast<double>(cs.admission_rejects);
    state.counters["c_bytes"] = static_cast<double>(cs.bytes_used);
    // Per-shard breakdown: heavy skew here means the key hash is
    // funnelling hot tags into one shard's lock and LRU budget.
    const auto per_shard = c->PerShardStats();
    for (size_t i = 0; i < per_shard.size(); ++i) {
      const std::string p = "s" + std::to_string(i) + "_";
      state.counters[p + "hits"] = static_cast<double>(per_shard[i].hits);
      state.counters[p + "miss"] = static_cast<double>(per_shard[i].misses);
      state.counters[p + "evict"] =
          static_cast<double>(per_shard[i].evictions);
      state.counters[p + "reject"] =
          static_cast<double>(per_shard[i].admission_rejects);
    }
  }
  state.SetLabel(state.range(0) == 0 ? "nocache" : "cache");
}

BENCHMARK(BM_ScanCacheSizing)
    ->Arg(0)
    ->Arg(8)
    ->Arg(32)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// Metrics-registry overhead: the same serial, uncached join with the
// process-wide registry enabled (the default) vs disabled. The join path
// writes a handful of instruments per query — the two labels must agree
// within run-to-run noise, which CI's metrics-overhead smoke asserts
// with a generous bound (see docs/OBSERVABILITY.md "Overhead").
void BM_SerialJoinObs(benchmark::State& state) {
  LazyDatabase* db = SharedDatabase();
  const size_t serial_pairs = SerialPairCount();
  const bool obs_on = state.range(0) != 0;
  obs::MetricsRegistry::Global().SetEnabled(obs_on);
  db->SetQueryOptions(QueryOptions{});  // no cache
  size_t pairs = 0;
  for (auto _ : state) {
    pairs = bench::RunLazyQuery(db, "A", "D");
    benchmark::DoNotOptimize(pairs);
  }
  obs::MetricsRegistry::Global().SetEnabled(true);
  LAZYXML_CHECK(pairs == serial_pairs);
  state.counters["pairs"] = static_cast<double>(pairs);
  state.SetLabel(obs_on ? "obs_on" : "obs_off");
}

BENCHMARK(BM_SerialJoinObs)
    ->Arg(1)
    ->Arg(0)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

}  // namespace
}  // namespace lazyxml

// Custom main: google-benchmark rejects flags it does not know, so the
// CI smoke mode's --quick is stripped (and applied) before Initialize.
int main(int argc, char** argv) {
  int kept = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--quick") {
      lazyxml::g_quick = true;
    } else {
      argv[kept++] = argv[i];
    }
  }
  argc = kept;
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
