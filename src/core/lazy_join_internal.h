// Internal machinery of the serial Lazy-Join (core/lazy_join.h). Not
// part of the stable API.
//
// A join is a per-query preparation step (PrepareJoinContext: validate
// the log, apply the path-summary sid filters, resolve both segment
// lists) followed by the §4.2 round loop over the prepared context
// (RunJoinRounds).
//
// Supporting casts:
//  * SegmentResolver — batched FindSegment: one SB-tree descent per
//    distinct sid per query instead of one per loop round;
//  * SpliceMemo — memoizes splice-position lookups per tag-list path
//    (the FindSplicePos linear rescan becomes one hash build + O(1)
//    probes);
//  * ScanFetcher — element-scan reads through the shared
//    ElementScanCache when configured, with a per-query two-slot
//    fallback that covers the in-segment -> push reuse and self-join
//    double fetches the one-entry fetch_cache used to miss.

#ifndef LAZYXML_CORE_LAZY_JOIN_INTERNAL_H_
#define LAZYXML_CORE_LAZY_JOIN_INTERNAL_H_

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "core/compact_index.h"
#include "core/element_index.h"
#include "core/lazy_join.h"
#include "core/scan_cache.h"
#include "core/tag_list.h"
#include "core/update_log.h"

namespace lazyxml {
namespace internal {

/// A tag-list with every entry's SegmentNode* resolved up front.
struct ResolvedEntries {
  std::span<const TagListEntry> entries;
  /// Parallel to `entries`.
  std::vector<const SegmentNode*> nodes;
};

/// Batched sid -> SegmentNode* resolution (one SB-tree descent per
/// distinct sid, shared by every loop round of the query).
class SegmentResolver {
 public:
  /// Resolves every entry sid and every sid on every entry path.
  Status ResolveList(const UpdateLog& log,
                     std::span<const TagListEntry> entries,
                     ResolvedEntries* out);

  /// Previously resolved node, or nullptr.
  const SegmentNode* Lookup(SegmentId sid) const {
    auto it = map_.find(sid);
    return it == map_.end() ? nullptr : it->second;
  }

 private:
  std::unordered_map<SegmentId, const SegmentNode*> map_;
};

/// Memoized splice-position lookup: for the path last queried, holds a
/// hash from ancestor sid to the splice position of that ancestor's
/// child on the path (paper Prop. 3's P value). One linear build per
/// path, O(1) per probe — replaces a linear rescan per probe.
class SpliceMemo {
 public:
  explicit SpliceMemo(const SegmentResolver* resolver)
      : resolver_(resolver) {}

  /// Splice position of `anc`'s child on `path`; false if `anc` is not
  /// an inner node of the path.
  bool Find(const std::vector<SegmentId>& path, SegmentId anc,
            uint64_t* p_out);

 private:
  const SegmentResolver* resolver_;
  const std::vector<SegmentId>* path_ = nullptr;  // memo key (identity)
  std::unordered_map<SegmentId, uint64_t> pos_;
};

/// A lazily decoding cursor over one compact list: materializes one
/// block at a time into a bounded buffer (kCompactBlockMaxRecords
/// records), so an unfiltered stack entry never holds a whole decoded
/// list. Indexing is by record position — the same positions the
/// materialized scan has — so the kernel's loops and prune cursors are
/// identical under either representation (see docs/COMPACT_INDEX.md).
class BlockCursor {
 public:
  BlockCursor() = default;
  /// `fetched` (may be null) accumulates records decoded from the store,
  /// mirroring LazyJoinStats::elements_fetched semantics lazily: only
  /// blocks actually touched count.
  explicit BlockCursor(CompactScanHandle scan, uint64_t* fetched = nullptr);

  size_t size() const { return size_; }

  /// Element at record position `i` (< size()); decodes the containing
  /// block only when `i` leaves the currently buffered block.
  const LocalElement& At(size_t i) {
    if (i >= cur_lo_ && i < cur_hi_) return buf_[i - cur_lo_];
    return Load(i);
  }

 private:
  const LocalElement& Load(size_t i);

  CompactScanHandle scan_;
  uint64_t* fetched_ = nullptr;
  std::vector<uint64_t> prefix_;  ///< cumulative record count per block
  std::vector<LocalElement> buf_;
  size_t size_ = 0;
  size_t cur_lo_ = 0;
  size_t cur_hi_ = 0;  ///< record range of the buffered block (empty: 0,0)
};

/// Element-scan reads for one join: shared cache first (when
/// configured), then a two-slot per-query fallback (one slot per tag
/// role), then the backing store — the element-index B+-tree, or the
/// compact index when `compact` is non-null. Only store reads (tree
/// scans / block decodes) count into `stats->elements_fetched`; any
/// cache hit counts into `stats->scan_cache_hits`.
///
/// In compact mode raw lists are decoded straight from the compact
/// index (which is itself in memory — re-caching them would duplicate
/// bytes), and straddle-filtered lists are cached *compressed*
/// (re-encoded blocks under ScanKind::kStraddle), so the shared cache's
/// effective capacity in records grows by the compression ratio.
class ScanFetcher {
 public:
  /// `versions` (may be null) overrides tree-store reads for pinned-epoch
  /// view queries (docs/MVCC.md): a list retired after the view's epoch is
  /// served from the version store instead of the live index. Compact-mode
  /// reads never consult it — a snapshot only carries a compact index that
  /// was built at exactly its epoch, and compact indexes are immutable.
  ScanFetcher(const ElementIndex* index, ElementScanCache* cache,
              uint64_t epoch, const CompactElementIndex* compact = nullptr,
              const ScanVersionSource* versions = nullptr)
      : index_(index),
        cache_(cache),
        epoch_(epoch),
        compact_(compact),
        versions_(versions) {}

  ElementScan Fetch(TagId tid, SegmentId sid, LazyJoinStats* stats);

  /// The Fig. 9 push filter of `seg`'s scan (elements straddling at least
  /// one child splice position), shared through the cache under
  /// ScanKind::kStraddle — the filtered scan is a pure function of
  /// (tid, sid) at a fixed epoch, so queries pushing the same segment
  /// reuse it instead of refiltering. In compact mode the filter
  /// consults each block's skip header first and skips provably
  /// straddler-free blocks without decoding them
  /// (stats->blocks_skipped / join.blocks_skipped_total).
  ElementScan FetchFiltered(TagId tid, const SegmentNode& seg,
                            LazyJoinStats* stats);

  /// A block-at-a-time cursor over the raw (tid, sid) list (compact mode
  /// only; the unfiltered ablation path uses it for stack entries).
  BlockCursor FetchCursor(TagId tid, SegmentId sid, LazyJoinStats* stats);

 private:
  const ElementIndex* index_;
  ElementScanCache* cache_;
  uint64_t epoch_;
  const CompactElementIndex* compact_;
  const ScanVersionSource* versions_;
  struct Slot {
    TagId tid = 0;
    SegmentId sid = 0;
    ElementScan scan;
  };
  Slot slots_[2];
};

/// Everything the round loop needs, prepared once per query.
struct JoinContext {
  const UpdateLog* log = nullptr;
  const ElementIndex* index = nullptr;
  /// Non-null selects compact scans (QueryOptions::use_compact_index).
  /// Must be record-for-record equal to *index (invariant I-COMPACT) —
  /// the join output is then byte-identical under either representation.
  const CompactElementIndex* compact = nullptr;
  TagId ancestor_tid = 0;
  TagId descendant_tid = 0;
  LazyJoinOptions options;
  ElementScanCache* cache = nullptr;  ///< may be null
  uint64_t cache_epoch = 0;
  /// Non-null for pinned-epoch view queries: overrides tree-store scan
  /// reads for (tag, sid) lists retired after the epoch (docs/MVCC.md).
  const ScanVersionSource* versions = nullptr;
  SegmentResolver resolver;
  ResolvedEntries sl_a;
  ResolvedEntries sl_d;
  /// Backing storage for the filtered entry spans when a sid filter is
  /// set (sl_a/sl_d.entries then view these instead of the tag-list).
  std::vector<TagListEntry> filtered_a;
  std::vector<TagListEntry> filtered_d;
  /// Filter accounting, set by PrepareJoinContext (LazyJoin copies it
  /// into the result stats).
  uint64_t segments_pruned = 0;
  uint64_t elements_skipped = 0;
};

/// Validates log state (frozen, sorted) and batch-resolves both lists.
/// `*empty` is set when either list is empty (join output is empty).
Status PrepareJoinContext(const UpdateLog& log, const ElementIndex& index,
                          TagId ancestor_tid, TagId descendant_tid,
                          const LazyJoinOptions& options,
                          ElementScanCache* cache, uint64_t cache_epoch,
                          const CompactElementIndex* compact,
                          JoinContext* ctx, bool* empty,
                          const ScanVersionSource* versions = nullptr);

/// Runs the serial kernel over every descendant round of `ctx`. Appends
/// pairs (in descendant-round-major order) and adds stats into `*out`.
Status RunJoinRounds(const JoinContext& ctx, LazyJoinResult* out);

}  // namespace internal
}  // namespace lazyxml

#endif  // LAZYXML_CORE_LAZY_JOIN_INTERNAL_H_
