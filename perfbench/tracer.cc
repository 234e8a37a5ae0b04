// perfbench_tracer: replays one workload's generated commands in-process
// through each layer's public functions and reports per-layer figures.
//
// Usage: perfbench_tracer <replay-file> <durable-dir> <spans-out>
//
// The replay file is a sequence of records, each
//   u8 phase (0 = set-up, 1 = timed), u32 op, u32 length, payload
// (little-endian), where the payload is exactly the command text the
// benchmark sends over the wire and `op` numbers client operations (a
// BATCH BEGIN..COMMIT run is one op).
//
// The commands are replayed in three passes, one per independent store, so
// that no layer's timing runs with another store's data in the caches:
//   server   an in-memory ServerEngine, timing ExecuteCommand and, for
//            queries, the bare ServerEngine call (their difference is
//            response formatting);
//   layers   a LazyDatabase, timing ParseFragment, InsertSegment,
//            RemoveSegment, ApplyBatch, JoinByName, EvaluateTwig,
//            ParseXPath and EvaluateXPath one by one;
//   storage  a DurableLazyDatabase with an fdatasync per WAL record,
//            reopened at the end to time recovery.
// Spans (name, start, end, parent, op) are kept in memory and written to
// <spans-out> as tab-separated lines when the replay ends. The last line
// of standard output is one JSON object.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/lazy_database.h"
#include "core/twig_query.h"
#include "obs/metrics.h"
#include "query/xpath.h"
#include "server/command.h"
#include "server/engine.h"
#include "server/session.h"
#include "storage/durable_database.h"
#include "xml/parser.h"
#include "xml/tag_dict.h"

namespace {

using namespace lazyxml;
using Clock = std::chrono::steady_clock;

int64_t Now() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name;
  int64_t start;
  int64_t end;
  int32_t parent;
  uint32_t op;
};

// In-memory span log; Open/Close return and take span indices.
class SpanLog {
 public:
  int32_t Open(const char* name, int32_t parent, uint32_t op) {
    spans_.push_back(Span{name, Now(), 0, parent, op});
    return static_cast<int32_t>(spans_.size() - 1);
  }
  // Returns the span's duration in microseconds.
  double Close(int32_t id) {
    spans_[id].end = Now();
    return (spans_[id].end - spans_[id].start) / 1e3;
  }
  bool Write(const std::string& path) const {
    std::ofstream out(path);
    out << "id\tname\tstart_ns\tend_ns\tparent\top\n";
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << i << '\t' << s.name << '\t' << s.start << '\t' << s.end << '\t'
          << s.parent << '\t' << s.op << '\n';
    }
    return static_cast<bool>(out);
  }

 private:
  std::vector<Span> spans_;
};

struct Record {
  bool timed = false;
  uint32_t op = 0;
  std::string payload;
};

bool ReadRecords(const std::string& path, std::vector<Record>* out) {
  std::ifstream in(path, std::ios::binary);
  std::string data((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  auto u32 = [&](size_t at) {
    uint32_t v = 0;
    for (int k = 3; k >= 0; --k) {
      v = (v << 8) | static_cast<uint8_t>(data[at + k]);
    }
    return v;
  };
  size_t at = 0;
  while (at < data.size()) {
    if (at + 9 > data.size()) return false;
    Record r;
    r.timed = data[at] != 0;
    r.op = u32(at + 1);
    const uint32_t len = u32(at + 5);
    at += 9;
    if (at + len > data.size()) return false;
    r.payload.assign(data, at, len);
    at += len;
    out->push_back(std::move(r));
  }
  return true;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double s = 0;
  for (double x : v) s += x;
  return s / v.size();
}

[[noreturn]] void Fail(const std::string& what, const Status& s) {
  std::fprintf(stderr, "perfbench_tracer: %s: %s\n", what.c_str(),
               s.ToString().c_str());
  std::exit(1);
}

uint64_t DirBytes(const std::string& dir) {
  uint64_t total = 0;
  for (const auto& e : std::filesystem::recursive_directory_iterator(dir)) {
    if (e.is_regular_file()) total += e.file_size();
  }
  return total;
}

// Per-layer samples, in microseconds unless named otherwise.
struct Samples {
  std::vector<double> parse_us, remove_us, batch_us_per_op;
  double parse_bytes = 0, parse_total_us = 0;
  std::vector<double> join_us, join_fetched, join_skipped;
  double join_results = 0, join_fetched_total = 0;
  std::vector<double> twig_us, xpath_parse_us, xpath_us;
  std::vector<double> xpath_joins, xpath_pruned, xpath_skipped;
  std::vector<double> response_bytes;
  std::map<uint32_t, double> exec_us_by_op;  // timed ops only
};

// Splits "a//b" into its two tags; false for longer paths.
bool TwoStepPath(const std::string& expr, std::string* a, std::string* d) {
  const size_t at = expr.find("//");
  if (at == std::string::npos || expr.find('/', at + 2) != std::string::npos ||
      expr.find('/') != at) {
    return false;
  }
  *a = expr.substr(0, at);
  *d = expr.substr(at + 2);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 4) {
    std::fprintf(stderr,
                 "usage: perfbench_tracer <replay-file> <durable-dir> "
                 "<spans-out>\n");
    return 2;
  }
  std::vector<Record> records;
  if (!ReadRecords(argv[1], &records)) {
    std::fprintf(stderr, "perfbench_tracer: truncated replay file %s\n",
                 argv[1]);
    return 1;
  }
  const std::string durable_dir = argv[2];

  LazyDatabase db;
  TagDict parse_dict;  // ParseFragment is timed apart from the store's dict
  ParseOptions popts;
  popts.require_single_root = true;

  auto engine_r = server::ServerEngine::Open(server::ServerEngineOptions{});
  if (!engine_r.ok()) Fail("engine open", engine_r.status());
  std::unique_ptr<server::ServerEngine> engine =
      std::move(engine_r).ValueOrDie();
  server::SessionContext session(1, server::SessionLimits{});

  DurableOptions dopts;
  dopts.wal.sync_policy = WalSyncPolicy::kEveryRecord;
  auto dur_r = DurableLazyDatabase::Open(durable_dir, dopts);
  if (!dur_r.ok()) Fail("durable open", dur_r.status());
  std::unique_ptr<DurableLazyDatabase> dur = std::move(dur_r).ValueOrDie();

  // Client operations: runs of records sharing an op number.
  struct Op {
    uint32_t id = 0;
    bool timed = false;
    std::vector<server::Command> cmds;
    server::CommandKind kind() const { return cmds.front().kind; }
    bool query() const {
      return kind() == server::CommandKind::kPath ||
             kind() == server::CommandKind::kTwig ||
             kind() == server::CommandKind::kXPath;
    }
  };
  std::vector<Op> ops;
  for (const Record& rec : records) {
    if (ops.empty() || ops.back().id != rec.op) {
      ops.push_back(Op{rec.op, rec.timed, {}});
    }
    auto c = server::ParseCommand(rec.payload);
    if (!c.ok()) Fail("ParseCommand", c.status());
    ops.back().cmds.push_back(std::move(c).ValueOrDie());
  }

  SpanLog spans;
  Samples s;

  // Pass 1, server: ExecuteCommand per command; for queries also the bare
  // ServerEngine call, in alternating order so neither always runs warm.
  std::vector<double> format_us;
  for (const Op& op : ops) {
    const int32_t root = spans.Open("pass.server", -1, op.id);
    auto engine_call = [&]() {
      const server::Command& cmd = op.cmds.front();
      const int32_t g = spans.Open("server.engine", root, op.id);
      Status st;
      if (op.kind() == server::CommandKind::kPath) {
        st = engine->Path(cmd.expr).status();
      } else if (op.kind() == server::CommandKind::kTwig) {
        st = engine->Twig(cmd.expr).status();
      } else {
        st = engine->Xpath(cmd.expr).status();
      }
      const double us = spans.Close(g);
      if (!st.ok()) Fail("ServerEngine query", st);
      return us;
    };
    const bool engine_first = op.timed && op.query() && op.id % 2 == 1;
    double engine_us = engine_first ? engine_call() : 0;
    double exec_us = 0;
    std::string response;
    for (const server::Command& c : op.cmds) {
      const int32_t e = spans.Open("server.execute", root, op.id);
      server::ExecuteOutcome out =
          server::ExecuteCommand(engine.get(), &session, c);
      exec_us += spans.Close(e);
      if (out.error) Fail("ExecuteCommand", Status::Internal(out.response));
      response = std::move(out.response);
    }
    if (op.timed && op.query()) {
      if (!engine_first) engine_us = engine_call();
      format_us.push_back(exec_us - engine_us);
      s.response_bytes.push_back(response.size());
    }
    if (op.timed) s.exec_us_by_op[op.id] = exec_us;
    spans.Close(root);
  }

  // Pass 2, layers: each public function timed on its own.
  std::vector<double> insert_core_timed;
  for (const Op& op : ops) {
    const int32_t root = spans.Open("pass.layers", -1, op.id);
    const server::Command& cmd = op.cmds.front();
    auto parse = [&](const server::Command& c) {
      const int32_t p = spans.Open("xml.parse", root, op.id);
      auto parsed = ParseFragment(c.body, &parse_dict, popts);
      const double us = spans.Close(p);
      if (!parsed.ok()) Fail("ParseFragment", parsed.status());
      s.parse_us.push_back(us);
      s.parse_bytes += c.body.size();
      s.parse_total_us += us;
      return us;
    };
    switch (op.kind()) {
      case server::CommandKind::kBatchBegin: {
        std::vector<UpdateOp> batch;
        for (const server::Command& c : op.cmds) {
          if (c.kind == server::CommandKind::kInsert) {
            parse(c);
            batch.push_back(UpdateOp::Insert(c.body, c.gp));
          } else if (c.kind == server::CommandKind::kRemove) {
            batch.push_back(UpdateOp::Remove(c.gp, c.length));
          }
        }
        const int32_t i = spans.Open("core.batch", root, op.id);
        auto r = db.ApplyBatch(batch);
        const double us = spans.Close(i);
        if (!r.ok()) Fail("ApplyBatch", r.status());
        if (op.timed && !batch.empty()) {
          s.batch_us_per_op.push_back(us / batch.size());
        }
        break;
      }
      case server::CommandKind::kInsert: {
        const double parse_us = parse(cmd);
        const int32_t i = spans.Open("core.insert", root, op.id);
        auto r = db.InsertSegment(cmd.body, cmd.gp);
        const double us = spans.Close(i);
        if (!r.ok()) Fail("InsertSegment", r.status());
        if (op.timed) insert_core_timed.push_back(us - parse_us);
        break;
      }
      case server::CommandKind::kRemove: {
        const int32_t i = spans.Open("core.remove", root, op.id);
        Status st = db.RemoveSegment(cmd.gp, cmd.length);
        const double us = spans.Close(i);
        if (!st.ok()) Fail("RemoveSegment", st);
        if (op.timed) s.remove_us.push_back(us);
        break;
      }
      case server::CommandKind::kPath: {
        std::string a, d;
        if (!TwoStepPath(cmd.expr, &a, &d)) break;
        const int32_t i = spans.Open("core.join", root, op.id);
        auto r = db.JoinByName(a, d);
        const double us = spans.Close(i);
        if (!r.ok()) Fail("JoinByName", r.status());
        if (!op.timed) break;
        const LazyJoinResult& jr = r.ValueOrDie();
        s.join_us.push_back(us);
        s.join_fetched.push_back(jr.stats.elements_fetched);
        s.join_skipped.push_back(jr.stats.segments_skipped);
        std::set<std::pair<SegmentId, uint64_t>> results;
        for (const LazyJoinPair& pair : jr.pairs) {
          results.emplace(pair.descendant_sid, pair.descendant_start);
        }
        s.join_results += results.size();
        s.join_fetched_total += jr.stats.elements_fetched;
        break;
      }
      case server::CommandKind::kTwig: {
        const int32_t i = spans.Open("core.twig", root, op.id);
        auto r = EvaluateTwig(&db, cmd.expr);
        const double us = spans.Close(i);
        if (!r.ok()) Fail("EvaluateTwig", r.status());
        if (op.timed) s.twig_us.push_back(us);
        break;
      }
      case server::CommandKind::kXPath: {
        const int32_t p = spans.Open("query.xpath_parse", root, op.id);
        auto steps = ParseXPath(cmd.expr);
        const double parse_us = spans.Close(p);
        if (!steps.ok()) Fail("ParseXPath", steps.status());
        const int32_t i = spans.Open("query.xpath", root, op.id);
        auto r = EvaluateXPath(&db, steps.ValueOrDie());
        const double us = spans.Close(i);
        if (!r.ok()) Fail("EvaluateXPath", r.status());
        if (!op.timed) break;
        const XPathResult& xr = r.ValueOrDie();
        s.xpath_parse_us.push_back(parse_us);
        s.xpath_us.push_back(us);
        s.xpath_joins.push_back(xr.joins_executed);
        s.xpath_pruned.push_back(xr.segments_pruned);
        s.xpath_skipped.push_back(xr.elements_skipped);
        break;
      }
      default:
        Fail("replay", Status::InvalidArgument("unexpected command"));
    }
    spans.Close(root);
  }

  // Pass 3, storage: the same updates through the durable store.
  uint64_t durable_ops = 0;
  for (const Op& op : ops) {
    if (op.query()) continue;
    const int32_t root = spans.Open("pass.storage", -1, op.id);
    const server::Command& cmd = op.cmds.front();
    Status st;
    if (op.kind() == server::CommandKind::kBatchBegin) {
      std::vector<UpdateOp> batch;
      for (const server::Command& c : op.cmds) {
        if (c.kind == server::CommandKind::kInsert) {
          batch.push_back(UpdateOp::Insert(c.body, c.gp));
        } else if (c.kind == server::CommandKind::kRemove) {
          batch.push_back(UpdateOp::Remove(c.gp, c.length));
        }
      }
      st = dur->ApplyBatch(batch).status();
      durable_ops += batch.size();
    } else if (op.kind() == server::CommandKind::kInsert) {
      st = dur->InsertSegment(cmd.body, cmd.gp).status();
      ++durable_ops;
    } else {
      st = dur->RemoveSegment(cmd.gp, cmd.length);
      ++durable_ops;
    }
    spans.Close(root);
    if (!st.ok()) Fail("durable apply", st);
  }

  // Storage: size, then recovery of the un-checkpointed directory (the
  // destructor writes nothing, so Open replays the whole WAL).
  const obs::MetricsSnapshot snap = obs::MetricsRegistry::Global().Snapshot();
  dur.reset();
  const uint64_t disk_bytes = DirBytes(durable_dir);
  const int64_t t0 = Now();
  auto reopened = DurableLazyDatabase::Open(durable_dir, dopts);
  const double recovery_s = (Now() - t0) / 1e9;
  if (!reopened.ok()) Fail("recovery", reopened.status());

  const size_t dec = insert_core_timed.size() / 10;
  std::vector<double> first_decile(insert_core_timed.begin(),
                                   insert_core_timed.begin() + dec);
  std::vector<double> last_decile(insert_core_timed.end() - dec,
                                  insert_core_timed.end());
  const LazyDatabaseStats stats = db.Stats();
  const bool spans_ok = spans.Write(argv[3]);

  std::string exec;
  for (const auto& [op, us] : s.exec_us_by_op) {
    if (!exec.empty()) exec += ",";
    exec += "[" + std::to_string(op) + "," + std::to_string(us) + "]";
  }
  std::printf(
      "{\"xml.parse_us\":%.3f,\"xml.parse_mb_per_s\":%.3f,"
      "\"core.insert_us.first_decile\":%.3f,"
      "\"core.insert_us.last_decile\":%.3f,\"core.segments\":%zu,"
      "\"core.remove_us\":%.3f,\"core.batch_us_per_op\":%.3f,"
      "\"core.join_us\":%.3f,\"core.join.elements_fetched\":%.1f,"
      "\"core.join.segments_skipped\":%.1f,\"core.join.useful_ratio\":%.6f,"
      "\"core.twig_us\":%.3f,\"query.xpath_parse_us\":%.3f,"
      "\"query.xpath_us\":%.3f,\"query.xpath.joins\":%.3f,"
      "\"query.xpath.segments_pruned\":%.3f,"
      "\"query.xpath.elements_skipped\":%.3f,"
      "\"server.format_us\":%.3f,\"server.response_bytes\":%.1f,"
      "\"core.update_log_bytes\":%zu,\"core.element_index_bytes\":%zu,"
      "\"storage.wal_bytes_per_op\":%.3f,\"storage.recovery_s\":%.6f,"
      "\"exec_us\":[%s],\"metrics\":%s}\n",
      Median(s.parse_us),
      s.parse_total_us > 0 ? s.parse_bytes / s.parse_total_us : 0.0,
      Median(first_decile), Median(last_decile), stats.num_segments,
      Median(s.remove_us), Median(s.batch_us_per_op), Median(s.join_us),
      Mean(s.join_fetched), Mean(s.join_skipped),
      s.join_fetched_total > 0 ? s.join_results / s.join_fetched_total : 0.0,
      Median(s.twig_us), Median(s.xpath_parse_us), Median(s.xpath_us),
      Mean(s.xpath_joins), Mean(s.xpath_pruned), Mean(s.xpath_skipped),
      Median(format_us),
      Median(s.response_bytes), stats.update_log_bytes(),
      stats.element_index_bytes,
      durable_ops > 0 ? static_cast<double>(disk_bytes) / durable_ops : 0.0,
      recovery_s, exec.c_str(),
      snap.ExportJson().c_str());
  return spans_ok ? 0 : 1;
}
