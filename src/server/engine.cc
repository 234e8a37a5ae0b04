#include "server/engine.h"

#include <mutex>
#include <utility>

namespace lazyxml {
namespace server {

Result<std::unique_ptr<ServerEngine>> ServerEngine::Open(
    ServerEngineOptions options) {
  if (options.data_dir.empty()) {
    auto mem = std::make_unique<ConcurrentLazyDatabase>(options.db);
    mem->SetBatchChunkOps(options.batch_chunk_ops);
    return std::unique_ptr<ServerEngine>(new ServerEngine(std::move(mem)));
  }
  options.durable.db = options.db;
  LAZYXML_ASSIGN_OR_RETURN(
      std::unique_ptr<DurableLazyDatabase> dur,
      DurableLazyDatabase::Open(options.data_dir, options.durable));
  return std::unique_ptr<ServerEngine>(new ServerEngine(std::move(dur)));
}

template <typename Fn>
auto ServerEngine::DurableWrite(Fn&& fn) {
  std::unique_lock lock(dur_mu_);
  LazyDatabase& db = dur_->database();
  const uint64_t before = db.mutation_epoch();
  auto r = fn(*dur_);
  if (db.mutation_epoch() != before) db.InvalidateScanCache();
  return r;
}

template <typename Fn>
std::invoke_result_t<Fn&, LazyDatabase*> ServerEngine::DurableRead(Fn&& fn) {
  {
    std::shared_lock lock(dur_mu_);
    if (!dur_->database().QueryNeedsExclusive()) return fn(&dur_->database());
  }
  std::unique_lock lock(dur_mu_);
  LAZYXML_RETURN_NOT_OK(dur_->Freeze());  // journals an LS freeze point
  dur_->database().Freeze();              // stale compact index / summary
  return fn(&dur_->database());
}

Result<SegmentId> ServerEngine::Append(std::string_view text,
                                       uint64_t* gp_out) {
  if (mem_ != nullptr) return mem_->AppendDocument(text, gp_out);
  return DurableWrite([&](DurableLazyDatabase& d) -> Result<SegmentId> {
    const uint64_t gp = d.database().update_log().super_document_length();
    auto r = d.InsertSegment(text, gp);
    if (r.ok() && gp_out != nullptr) *gp_out = gp;
    return r;
  });
}

Result<SegmentId> ServerEngine::Insert(std::string_view text, uint64_t gp) {
  if (mem_ != nullptr) return mem_->InsertSegment(text, gp);
  return DurableWrite(
      [&](DurableLazyDatabase& d) { return d.InsertSegment(text, gp); });
}

Status ServerEngine::Remove(uint64_t gp, uint64_t length) {
  if (mem_ != nullptr) return mem_->RemoveSegment(gp, length);
  return DurableWrite(
      [&](DurableLazyDatabase& d) { return d.RemoveSegment(gp, length); });
}

Status ServerEngine::ApplyBatch(std::span<const UpdateOp> ops,
                                BatchStats* stats_out) {
  if (mem_ != nullptr) return mem_->ApplyBatch(ops, stats_out);
  return DurableWrite(
      [&](DurableLazyDatabase& d) { return d.ApplyBatch(ops, stats_out); });
}

Status ServerEngine::Compact() {
  if (mem_ != nullptr) return mem_->CompactAll();
  return DurableWrite([](DurableLazyDatabase& d) { return d.CompactAll(); });
}

Status ServerEngine::Freeze() {
  if (mem_ != nullptr) {
    mem_->Freeze();
    return Status::OK();
  }
  std::unique_lock lock(dur_mu_);
  return dur_->Freeze();
}

Result<PathQueryResult> ServerEngine::Path(std::string_view expr) {
  if (mem_ != nullptr) return mem_->Path(expr);
  return DurableRead([&](LazyDatabase* db) { return EvaluatePath(db, expr); });
}

Result<TwigQueryResult> ServerEngine::Twig(std::string_view expr) {
  if (mem_ != nullptr) return mem_->Twig(expr);
  return DurableRead([&](LazyDatabase* db) { return EvaluateTwig(db, expr); });
}

Result<XPathResult> ServerEngine::Xpath(std::string_view expr) {
  if (mem_ != nullptr) return mem_->Xpath(expr);
  return DurableRead(
      [&](LazyDatabase* db) { return EvaluateXPath(db, expr); });
}

Result<check::CheckReport> ServerEngine::Check() {
  check::Checker checker;
  if (mem_ != nullptr) {
    return mem_->WithExclusive(
        [&checker](LazyDatabase& db) { return checker.Check(db); });
  }
  std::unique_lock lock(dur_mu_);
  return checker.Check(*dur_);
}

LazyDatabaseStats ServerEngine::Stats() {
  if (mem_ != nullptr) return mem_->Stats();
  std::shared_lock lock(dur_mu_);
  return dur_->database().Stats();
}

}  // namespace server
}  // namespace lazyxml
