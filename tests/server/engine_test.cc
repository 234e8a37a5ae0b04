// ServerEngine lock routing in the durable shape: queries share the lock
// only while no deferred pre-query work (LS freeze, compact index or path
// summary rebuild) is pending; otherwise they take it exclusively, so two
// sessions never rebuild the same structure at once. Run under TSan (the
// CI concurrency job picks up every "Server" test) to see the race.

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/file_io.h"
#include "server/engine.h"
#include "storage/durable_database.h"

namespace lazyxml {
namespace server {
namespace {

std::string FreshDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/lazyxml_engine_" + name;
  EXPECT_TRUE(CreateDirIfMissing(dir).ok());
  auto names = ListDirectory(dir);
  EXPECT_TRUE(names.ok());
  for (const auto& n : names.ValueOrDie()) {
    EXPECT_TRUE(RemoveFileIfExists(dir + "/" + n).ok());
  }
  return dir;
}

constexpr char kDoc[] = "<a><b><c/><c/></b><c/></a>";

// One writer appends documents while several readers run PATH and XPATH.
// Every append moves the mutation epoch, so the compact index and the path
// summary go stale and the next query must rebuild them; with the rebuild
// under a shared lock, concurrent readers write the same members at once.
void RaceWriterAgainstReaders(LogMode mode, const std::string& dir_name) {
  ServerEngineOptions options;
  options.data_dir = FreshDir(dir_name);
  options.db.mode = mode;
  options.db.query.use_compact_index = true;
  options.durable.wal.sync_policy = WalSyncPolicy::kNever;
  auto opened = ServerEngine::Open(options);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  ServerEngine& engine = *opened.ValueOrDie();
  ASSERT_TRUE(engine.durable());

  uint64_t gp = 0;
  ASSERT_TRUE(engine.Append(kDoc, &gp).ok());

  constexpr int kWrites = 200;
  constexpr int kReaders = 4;
  std::atomic<bool> done{false};
  std::atomic<int> failures{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&engine, &done, &failures, r] {
      while (!done.load(std::memory_order_acquire)) {
        if (r % 2 == 0) {
          auto p = engine.Path("a//c");
          if (!p.ok() || p.ValueOrDie().elements.empty()) ++failures;
        } else {
          auto x = engine.Xpath("//a/b/c");
          if (!x.ok() || x.ValueOrDie().elements.empty()) ++failures;
        }
      }
    });
  }
  for (int i = 0; i < kWrites; ++i) {
    ASSERT_TRUE(engine.Append(kDoc, &gp).ok());
  }
  done.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(failures.load(), 0);

  // Quiesced: the answers count every appended document exactly once.
  auto path = engine.Path("a//c");
  ASSERT_TRUE(path.ok()) << path.status().ToString();
  EXPECT_EQ(path.ValueOrDie().elements.size(), 3u * (kWrites + 1));
  auto xpath = engine.Xpath("//a/b/c");
  ASSERT_TRUE(xpath.ok()) << xpath.status().ToString();
  EXPECT_EQ(xpath.ValueOrDie().elements.size(), 2u * (kWrites + 1));
}

TEST(ServerEngineTest, DurableLdCompactReadersRaceWriter) {
  RaceWriterAgainstReaders(LogMode::kLazyDynamic, "ld_compact_race");
}

TEST(ServerEngineTest, DurableLsCompactReadersRaceWriter) {
  RaceWriterAgainstReaders(LogMode::kLazyStatic, "ls_compact_race");
}

}  // namespace
}  // namespace server
}  // namespace lazyxml
