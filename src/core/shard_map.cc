#include "core/shard_map.h"

#include <algorithm>
#include <cstdint>
#include <string>

namespace polysse {

Result<ShardMap> ShardMap::FromRanges(std::vector<ShardRange> ranges) {
  ShardMap map;
  for (const ShardRange& r : ranges) {
    RETURN_IF_ERROR(map.AddShard(r.shard_id, r.base, r.span));
    RETURN_IF_ERROR(map.SetNext(r.shard_id, r.next));
  }
  return map;
}

Status ShardMap::AddShard(ShardId id, int32_t base, int64_t span) {
  if (base < 0) return Status::InvalidArgument("shard base must be >= 0");
  if (span <= 0) return Status::InvalidArgument("shard span must be > 0");
  if (base + span > kIdSpaceEnd)
    return Status::InvalidArgument("shard range exceeds the node-id space");
  for (const ShardRange& s : shards_) {
    if (s.shard_id == id)
      return Status::InvalidArgument("shard id " + std::to_string(id) +
                                     " already exists");
    if (base < s.end() && s.base < base + span)
      return Status::InvalidArgument(
          "shard range overlaps an existing shard");
  }
  ShardRange shard{id, base, span, 0};
  auto pos = shards_.begin();
  while (pos != shards_.end() && pos->base < base) ++pos;
  shards_.insert(pos, shard);
  return Status::Ok();
}

Status ShardMap::RemoveShard(ShardId id) {
  for (auto it = shards_.begin(); it != shards_.end(); ++it) {
    if (it->shard_id == id) {
      shards_.erase(it);
      return Status::Ok();
    }
  }
  return Status::NotFound("shard id " + std::to_string(id) +
                          " is not in the map");
}

Result<int32_t> ShardMap::Allocate(ShardId id, int64_t size) {
  ShardRange* shard = FindMutable(id);
  if (shard == nullptr)
    return Status::NotFound("shard id " + std::to_string(id) +
                            " is not in the map");
  if (size <= 0) return Status::InvalidArgument("allocation must be > 0");
  if (shard->next + size > shard->span)
    return Status::FailedPrecondition("shard " + std::to_string(id) +
                                      " has no room for " +
                                      std::to_string(size) + " node ids");
  const int32_t base = static_cast<int32_t>(shard->base + shard->next);
  shard->next += size;
  return base;
}

Status ShardMap::SetNext(ShardId id, int64_t next) {
  ShardRange* shard = FindMutable(id);
  if (shard == nullptr)
    return Status::NotFound("shard id " + std::to_string(id) +
                            " is not in the map");
  if (next < 0 || next > shard->span)
    return Status::InvalidArgument(
        "allocation offset outside the shard's span");
  shard->next = next;
  return Status::Ok();
}

const ShardRange* ShardMap::Find(ShardId id) const {
  for (const ShardRange& s : shards_)
    if (s.shard_id == id) return &s;
  return nullptr;
}

ShardRange* ShardMap::FindMutable(ShardId id) {
  for (ShardRange& s : shards_)
    if (s.shard_id == id) return &s;
  return nullptr;
}

const ShardRange* ShardMap::OwnerOfNode(int64_t node_id) const {
  // Sorted by base: the owner is the last shard starting at or below.
  const ShardRange* owner = nullptr;
  for (const ShardRange& s : shards_) {
    if (s.base > node_id) break;
    owner = &s;
  }
  if (owner == nullptr || node_id >= owner->end()) return nullptr;
  return owner;
}

Result<ShardId> ShardMap::PickForAdd(int64_t size) const {
  const ShardRange* best = nullptr;
  for (const ShardRange& s : shards_) {
    if (s.free_space() < size) continue;
    if (best == nullptr || s.free_space() > best->free_space() ||
        (s.free_space() == best->free_space() &&
         s.shard_id < best->shard_id)) {
      best = &s;
    }
  }
  if (best == nullptr)
    return Status::FailedPrecondition(
        "no shard has room for a " + std::to_string(size) +
        "-node document; split a shard or merge to reclaim id space");
  return best->shard_id;
}

Result<int32_t> ShardMap::FreeRangeBase(int64_t span) const {
  if (span <= 0) return Status::InvalidArgument("shard span must be > 0");
  int64_t candidate = 0;
  for (const ShardRange& s : shards_) {  // sorted by base: gaps in order
    if (candidate + span <= s.base) return static_cast<int32_t>(candidate);
    candidate = std::max(candidate, s.end());
  }
  if (candidate + span > kIdSpaceEnd)
    return Status::FailedPrecondition(
        "node-id space exhausted: no free range of span " +
        std::to_string(span));
  return static_cast<int32_t>(candidate);
}

}  // namespace polysse
