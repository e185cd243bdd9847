// The client-side shard layout of a collection: which server group owns
// which slice of the global node-id space, and where inside its slice each
// group hands out the next document base. Pure bookkeeping — no ring, no
// crypto — so it is shared by both ring instantiations of Collection and
// unit-testable without a deployment. An unsharded collection is the map
// with one shard owning the whole id space.
//
// Invariants (enforced on every mutation and on FromRanges):
//   - shard ids are unique;
//   - shard ranges [base, base + span) are disjoint and fit the int32
//     node-id space;
//   - 0 <= next <= span (next is the shard-local allocation offset).
//
// Documents are routed by containment: a document whose node-id range sits
// inside a shard's range belongs to that shard's server group. Ranges make
// routing stateless — OwnerOfNode answers from the map alone, with no
// per-document table.
#ifndef POLYSSE_CORE_SHARD_MAP_H_
#define POLYSSE_CORE_SHARD_MAP_H_

#include <cstdint>
#include <vector>

#include "util/status.h"

namespace polysse {

/// Stable identity of one shard (= one server group) of a collection.
using ShardId = uint32_t;

/// One shard's slice of the node-id space. `next` is the allocation
/// offset: the next document base this shard hands out is base + next.
struct ShardRange {
  ShardId shard_id = 0;
  int32_t base = 0;
  int64_t span = 0;
  int64_t next = 0;

  int64_t end() const { return base + span; }
  int64_t free_space() const { return span - next; }
  bool Contains(int64_t first, int64_t count) const {
    return first >= base && first + count <= end();
  }
};

/// The shard table: every mutation preserves the class invariants above.
class ShardMap {
 public:
  /// One past the last usable node id (ids are int32 and non-negative):
  /// the span of a shard that owns the whole id space.
  static constexpr int64_t kIdSpaceEnd = static_cast<int64_t>(INT32_MAX) + 1;

  ShardMap() = default;

  /// Builds a map from persisted ranges, validating the invariants —
  /// the loader-side guard against a corrupt or hand-edited shard table.
  static Result<ShardMap> FromRanges(std::vector<ShardRange> ranges);

  /// Registers shard `id` owning [base, base + span), with nothing
  /// allocated yet.
  Status AddShard(ShardId id, int32_t base, int64_t span);

  /// Forgets shard `id`, reclaiming its node-id range for future shards.
  /// The caller is responsible for having drained its documents first.
  Status RemoveShard(ShardId id);

  /// Hands out the next `size` node ids of shard `id` (the new document's
  /// base), advancing the shard's allocation offset.
  Result<int32_t> Allocate(ShardId id, int64_t size);

  /// Resets shard `id`'s allocation offset (compaction rewinds it to the
  /// packed high-water mark).
  Status SetNext(ShardId id, int64_t next);

  /// The shard registered as `id`, or null.
  const ShardRange* Find(ShardId id) const;

  /// The shard whose range contains node id `node_id`, or null.
  const ShardRange* OwnerOfNode(int64_t node_id) const;

  /// The shard a new `size`-node document should go to: the one with the
  /// most free space (lowest id on ties) — keeps groups balanced without
  /// any migration. Fails when no shard fits the document.
  Result<ShardId> PickForAdd(int64_t size) const;

  /// The lowest base where a fresh `span`-wide shard range fits: the first
  /// gap between existing ranges large enough, else just past the last
  /// range. Fails when the int32 node-id space is exhausted — which is
  /// exactly what shard merging reclaims ranges to avoid.
  Result<int32_t> FreeRangeBase(int64_t span) const;

  /// Snapshot of the table in node-id (base) order.
  const std::vector<ShardRange>& shards() const { return shards_; }

  size_t size() const { return shards_.size(); }
  bool empty() const { return shards_.empty(); }

 private:
  ShardRange* FindMutable(ShardId id);

  std::vector<ShardRange> shards_;  ///< sorted by base
};

}  // namespace polysse

#endif  // POLYSSE_CORE_SHARD_MAP_H_
