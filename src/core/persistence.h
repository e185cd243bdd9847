// On-disk persistence for deployments: the server's share store (one file
// the hosting provider keeps) and the client's secret state (seed + tag
// map — a few hundred bytes, per §4.2's thin-client design).
//
// Share-tree wire format (versioned):
//   magic "PSSE" | format u8 | ring header | node count |
//   per node: parent varint-signed | ring-serialized polynomial
// Children lists, paths and subtree sizes are reconstructed from the
// parent pointers on load, so the format stays minimal.
#ifndef POLYSSE_CORE_PERSISTENCE_H_
#define POLYSSE_CORE_PERSISTENCE_H_

#include <string>

#include "core/endpoint.h"
#include "core/server_store.h"
#include "core/tag_map.h"
#include "crypto/prf.h"
#include "ring/fp_cyclotomic_ring.h"
#include "ring/z_quotient_ring.h"
#include "util/bytes.h"
#include "util/status.h"

namespace polysse {

/// Which ring a serialized store uses (part of the header).
enum class StoredRingKind : uint8_t {
  kFpCyclotomic = 1,
  kZQuotient = 2,
};

/// Multi-document collection store container header (store_registry.h
/// writes/reads the body): magic | u8 container version | u8 ring kind.
/// The single authority for the "PSSC" layout — the sniffers here and the
/// registry (de)serializers both build on these constants.
inline constexpr char kCollectionStoreMagic[4] = {'P', 'S', 'S', 'C'};
inline constexpr uint8_t kCollectionStoreVersion = 1;
/// Byte offset of the ring-kind byte in both store header layouts.
inline constexpr size_t kStoreRingKindOffset = 5;

/// A ring as every store header names it: the ring-kind byte, then the
/// ring's parameters (the field modulus p as a varint, or the quotient
/// polynomial r(x)). The one writer and reader of both, for the
/// single-store ("PSSE") header and the collection container ("PSSC").
void SaveStoredRing(const FpCyclotomicRing& ring, ByteWriter* out);
void SaveStoredRing(const ZQuotientRing& ring, ByteWriter* out);
/// Reads what SaveStoredRing wrote for a `Ring`: Corruption for an
/// unknown kind byte, InvalidArgument for the other ring's.
template <typename Ring>
Result<Ring> LoadStoredRing(ByteReader* in);
template <>
Result<FpCyclotomicRing> LoadStoredRing<FpCyclotomicRing>(ByteReader* in);
template <>
Result<ZQuotientRing> LoadStoredRing<ZQuotientRing>(ByteReader* in);

/// Serializes a server store (ring parameters + share tree).
template <typename Ring>
void SaveServerStore(const ServerStore<Ring>& store, ByteWriter* out);

/// Peeks at the header to learn the ring kind without consuming the reader.
/// Understands both single-store ("PSSE") and collection-container ("PSSC")
/// files — the ring kind sits at the same offset in both.
Result<StoredRingKind> PeekStoredRingKind(std::span<const uint8_t> bytes);

/// True when `bytes` start a multi-document collection container ("PSSC",
/// store_registry.h) rather than a single share tree.
bool IsCollectionStoreFile(std::span<const uint8_t> bytes);

/// Loads a store SaveServerStore wrote over the same ring type.
template <typename Ring>
Result<ServerStore<Ring>> LoadServerStore(ByteReader* in);

/// Client secret state: master seed + private tag map (+ split options),
/// plus the deployment shape, document table and shard table a client
/// needs to Open or Connect a collection.
///
/// Key-file wire format (v4, the only one):
///   "PKEY" | u8 version (4) | seed | z_coeff_bits varint | tag map |
///   deployment: scheme u8 | num_servers | threshold | ring_kind u8 |
///     ring params (fp_p varint, or z_modulus) — enough for a purely
///     networked client to rebuild its ring and group |
///   documents: doc count | per doc {doc_id | base | size |
///     length-prefixed share_prefix} | next_base | next_epoch — the
///     share_prefix namespaces each document's PRF-derived client shares;
///     next_base/next_epoch let Add continue assigning fresh node-id ranges
///     and prefixes without ever reusing either |
///   shards: shard count | per shard {shard_id | base | span | next} —
///     each shard owns the disjoint node-id range [base, base + span) and
///     allocates document bases at base + next; every document range must
///     sit inside exactly one shard. An empty table (count 0) is an
///     unsharded collection: one shard owning the whole id space,
///     allocating at next_base.
/// Deserialize refuses any other version, and a key without ring
/// parameters, with Corruption.
struct ClientSecretFile {
  /// One outsourced document of a collection.
  struct DocEntry {
    uint64_t doc_id = 0;
    /// First node id of the document's global range; size = node count.
    int32_t base = 0;
    int64_t size = 0;
    /// PRF namespace for this document's derived shares ("" for the
    /// first document the collection ever added).
    std::string share_prefix;
  };

  std::array<uint8_t, DeterministicPrf::kSeedSize> seed{};
  TagMap tag_map;
  size_t z_coeff_bits = 256;
  ShareScheme scheme = ShareScheme::kTwoParty;
  int num_servers = 1;
  /// Shamir only; 0 otherwise.
  int threshold = 0;
  /// Ring parameters: let a purely networked client — no store file in
  /// reach — rebuild its ring. Must be set before Serialize.
  uint8_t ring_kind = 0;  ///< StoredRingKind value
  uint64_t fp_p = 0;      ///< kFpCyclotomic: the field modulus
  ZPoly z_modulus;        ///< kZQuotient: the quotient polynomial r(x)

  /// One shard of a sharded collection: the server group
  /// `shard_id` owns node ids [base, base + span) and hands out document
  /// bases at base + next.
  struct ShardEntry {
    uint32_t shard_id = 0;
    int32_t base = 0;
    int64_t span = 0;
    /// Allocation offset within the shard's range (0 <= next <= span).
    int64_t next = 0;
  };

  /// Collection document table.
  std::vector<DocEntry> docs;
  int64_t next_base = 0;
  uint64_t next_epoch = 0;
  /// Shard table. Empty = unsharded collection.
  std::vector<ShardEntry> shards;

  void Serialize(ByteWriter* out) const;
  static Result<ClientSecretFile> Deserialize(ByteReader* in);
};

/// Convenience file I/O (whole-file read/write).
Status WriteFileBytes(const std::string& path, std::span<const uint8_t> bytes);
Result<std::vector<uint8_t>> ReadFileBytes(const std::string& path);

}  // namespace polysse

#endif  // POLYSSE_CORE_PERSISTENCE_H_
