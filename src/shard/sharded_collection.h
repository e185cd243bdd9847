// The sharded spellings of the one collection class. A sharded collection
// is a polysse::Collection (core/collection.h) created with
// DeployShape::num_shards > 1: scatter-gather search, online split/merge/
// compaction and the shard table all live there, and an unsharded
// collection is simply its one-shard case.
#ifndef POLYSSE_SHARD_SHARDED_COLLECTION_H_
#define POLYSSE_SHARD_SHARDED_COLLECTION_H_

#include "core/collection.h"

namespace polysse {

template <typename Ring>
using ShardedCollection = Collection<Ring>;
using FpShardedCollection = ShardedCollection<FpCyclotomicRing>;
using ZShardedCollection = ShardedCollection<ZQuotientRing>;
using ShardDeploy = DeployShape;
using ShardedResult = CollectionResult;

}  // namespace polysse

#endif  // POLYSSE_SHARD_SHARDED_COLLECTION_H_
