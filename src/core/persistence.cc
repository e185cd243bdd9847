#include "core/persistence.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <unordered_set>

namespace polysse {

namespace {

constexpr char kMagic[4] = {'P', 'S', 'S', 'E'};
constexpr uint8_t kFormatVersion = 1;
/// Client key files (layout on ClientSecretFile in persistence.h).
constexpr uint8_t kKeyFormatVersion = 4;

void WriteHeader(ByteWriter* out) {
  out->PutBytes(std::span<const uint8_t>(
      reinterpret_cast<const uint8_t*>(kMagic), 4));
  out->PutU8(kFormatVersion);
}

/// The single-store magic and format version, up to the ring-kind byte.
Status ReadHeader(ByteReader* in) {
  ASSIGN_OR_RETURN(std::vector<uint8_t> magic, in->GetBytes(4));
  if (std::memcmp(magic.data(), kMagic, 4) != 0)
    return Status::Corruption("not a polysse store (bad magic)");
  ASSIGN_OR_RETURN(uint8_t version, in->GetU8());
  if (version != kFormatVersion)
    return Status::Corruption("unsupported store format version " +
                              std::to_string(version));
  return Status::Ok();
}

Result<StoredRingKind> ReadRingKind(ByteReader* in) {
  ASSIGN_OR_RETURN(uint8_t kind, in->GetU8());
  if (kind != static_cast<uint8_t>(StoredRingKind::kFpCyclotomic) &&
      kind != static_cast<uint8_t>(StoredRingKind::kZQuotient))
    return Status::Corruption("unknown ring kind in store header");
  return static_cast<StoredRingKind>(kind);
}

Status ExpectRingKind(ByteReader* in, StoredRingKind want) {
  ASSIGN_OR_RETURN(StoredRingKind kind, ReadRingKind(in));
  if (kind != want)
    return Status::InvalidArgument(
        "store holds the other ring; use the matching loader");
  return Status::Ok();
}

template <typename Ring>
void SaveTree(const Ring& ring, const PolyTree<Ring>& tree, ByteWriter* out) {
  out->PutVarint64(tree.size());
  for (const auto& node : tree.nodes) {
    out->PutVarintSigned64(node.parent);
    ring.Serialize(node.poly, out);
  }
}

/// Rebuilds children / path / subtree_size from parent pointers. Parents
/// must precede children (preorder), which Save guarantees.
template <typename Ring>
Result<PolyTree<Ring>> LoadTree(const Ring& ring, ByteReader* in) {
  ASSIGN_OR_RETURN(uint64_t n, in->GetVarint64());
  if (n == 0) return Status::Corruption("store with zero nodes");
  if (n > (1ull << 28)) return Status::Corruption("absurd node count");
  // Every node costs at least two wire bytes (parent varint + polynomial),
  // so a count past the bytes left is a corrupt length, not a tree — reject
  // before the reserve turns it into a giant allocation.
  if (n > in->remaining())
    return Status::Corruption("store node count exceeds remaining bytes");
  PolyTree<Ring> tree;
  tree.nodes.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    ASSIGN_OR_RETURN(int64_t parent, in->GetVarintSigned64());
    ASSIGN_OR_RETURN(typename Ring::Elem poly, ring.Deserialize(in));
    if (i == 0) {
      if (parent != -1) return Status::Corruption("root must have parent -1");
    } else if (parent < 0 || static_cast<uint64_t>(parent) >= i) {
      return Status::Corruption("node parent out of preorder range");
    }
    tree.nodes.push_back(typename PolyTree<Ring>::Node{
        std::move(poly), 0, static_cast<int>(parent), {}, "", 1});
    if (i > 0) {
      auto& parent_node = tree.nodes[parent];
      int child_index = static_cast<int>(parent_node.children.size());
      parent_node.children.push_back(static_cast<int>(i));
      tree.nodes[i].path = parent_node.path.empty()
                               ? std::to_string(child_index)
                               : parent_node.path + "/" +
                                     std::to_string(child_index);
    }
  }
  // Subtree sizes bottom-up (children have larger indices in preorder).
  for (size_t i = tree.nodes.size(); i-- > 0;) {
    int sum = 1;
    for (int c : tree.nodes[i].children) sum += tree.nodes[c].subtree_size;
    tree.nodes[i].subtree_size = sum;
  }
  return tree;
}

}  // namespace

void SaveStoredRing(const FpCyclotomicRing& ring, ByteWriter* out) {
  out->PutU8(static_cast<uint8_t>(StoredRingKind::kFpCyclotomic));
  out->PutVarint64(ring.p());
}

void SaveStoredRing(const ZQuotientRing& ring, ByteWriter* out) {
  out->PutU8(static_cast<uint8_t>(StoredRingKind::kZQuotient));
  ring.modulus().Serialize(out);
}

template <>
Result<FpCyclotomicRing> LoadStoredRing<FpCyclotomicRing>(ByteReader* in) {
  RETURN_IF_ERROR(ExpectRingKind(in, StoredRingKind::kFpCyclotomic));
  ASSIGN_OR_RETURN(uint64_t p, in->GetVarint64());
  return FpCyclotomicRing::Create(p);
}

template <>
Result<ZQuotientRing> LoadStoredRing<ZQuotientRing>(ByteReader* in) {
  RETURN_IF_ERROR(ExpectRingKind(in, StoredRingKind::kZQuotient));
  ASSIGN_OR_RETURN(ZPoly r, ZPoly::Deserialize(in));
  return ZQuotientRing::Create(std::move(r));
}

template <typename Ring>
void SaveServerStore(const ServerStore<Ring>& store, ByteWriter* out) {
  WriteHeader(out);
  SaveStoredRing(store.ring(), out);
  SaveTree(store.ring(), store.tree(), out);
}

template <typename Ring>
Result<ServerStore<Ring>> LoadServerStore(ByteReader* in) {
  RETURN_IF_ERROR(ReadHeader(in));
  ASSIGN_OR_RETURN(Ring ring, LoadStoredRing<Ring>(in));
  ASSIGN_OR_RETURN(PolyTree<Ring> tree, LoadTree(ring, in));
  return ServerStore<Ring>(ring, std::move(tree));
}

template void SaveServerStore(const ServerStore<FpCyclotomicRing>&,
                              ByteWriter*);
template void SaveServerStore(const ServerStore<ZQuotientRing>&, ByteWriter*);
template Result<ServerStore<FpCyclotomicRing>>
LoadServerStore<FpCyclotomicRing>(ByteReader*);
template Result<ServerStore<ZQuotientRing>> LoadServerStore<ZQuotientRing>(
    ByteReader*);

Result<StoredRingKind> PeekStoredRingKind(std::span<const uint8_t> bytes) {
  // The kind byte sits at the same offset in both headers; the container's
  // version is its loader's to check.
  ByteReader reader(bytes);
  if (IsCollectionStoreFile(bytes)) {
    RETURN_IF_ERROR(reader.GetBytes(kStoreRingKindOffset).status());
  } else {
    RETURN_IF_ERROR(ReadHeader(&reader));
  }
  return ReadRingKind(&reader);
}

bool IsCollectionStoreFile(std::span<const uint8_t> bytes) {
  return bytes.size() >= 4 &&
         std::memcmp(bytes.data(), kCollectionStoreMagic, 4) == 0;
}

void ClientSecretFile::Serialize(ByteWriter* out) const {
  out->PutString("PKEY");
  out->PutU8(kKeyFormatVersion);
  out->PutBytes(std::span<const uint8_t>(seed.data(), seed.size()));
  out->PutVarint64(z_coeff_bits);
  tag_map.Serialize(out);
  // Deployment: how Open rebuilds the server group, and the ring
  // parameters a purely networked client needs.
  out->PutU8(static_cast<uint8_t>(scheme));
  out->PutVarint64(static_cast<uint64_t>(num_servers));
  out->PutVarint64(static_cast<uint64_t>(threshold));
  out->PutU8(ring_kind);
  if (ring_kind == static_cast<uint8_t>(StoredRingKind::kFpCyclotomic)) {
    out->PutVarint64(fp_p);
  } else if (ring_kind == static_cast<uint8_t>(StoredRingKind::kZQuotient)) {
    z_modulus.Serialize(out);
  }
  // The document table.
  out->PutVarint64(docs.size());
  for (const DocEntry& doc : docs) {
    out->PutVarint64(doc.doc_id);
    out->PutVarint64(static_cast<uint32_t>(doc.base));
    out->PutVarint64(static_cast<uint64_t>(doc.size));
    out->PutLengthPrefixedString(doc.share_prefix);
  }
  out->PutVarint64(static_cast<uint64_t>(next_base));
  out->PutVarint64(next_epoch);
  // The shard table (empty for unsharded collections).
  out->PutVarint64(shards.size());
  for (const ShardEntry& shard : shards) {
    out->PutVarint64(shard.shard_id);
    out->PutVarint64(static_cast<uint32_t>(shard.base));
    out->PutVarint64(static_cast<uint64_t>(shard.span));
    out->PutVarint64(static_cast<uint64_t>(shard.next));
  }
}

Result<ClientSecretFile> ClientSecretFile::Deserialize(ByteReader* in) {
  ASSIGN_OR_RETURN(std::vector<uint8_t> magic, in->GetBytes(4));
  if (std::memcmp(magic.data(), "PKEY", 4) != 0)
    return Status::Corruption("not a polysse client key file");
  ASSIGN_OR_RETURN(uint8_t version, in->GetU8());
  if (version != kKeyFormatVersion)
    return Status::Corruption("unsupported key file version " +
                              std::to_string(version));
  ClientSecretFile out;
  ASSIGN_OR_RETURN(std::vector<uint8_t> seed_bytes,
                   in->GetBytes(DeterministicPrf::kSeedSize));
  std::copy(seed_bytes.begin(), seed_bytes.end(), out.seed.begin());
  ASSIGN_OR_RETURN(uint64_t bits, in->GetVarint64());
  if (bits == 0 || bits > (1ull << 20))
    return Status::Corruption("implausible z_coeff_bits");
  out.z_coeff_bits = bits;
  ASSIGN_OR_RETURN(out.tag_map, TagMap::Deserialize(in));

  ASSIGN_OR_RETURN(uint8_t scheme, in->GetU8());
  if (scheme > static_cast<uint8_t>(ShareScheme::kShamir))
    return Status::Corruption("unknown share scheme in key file");
  out.scheme = static_cast<ShareScheme>(scheme);
  ASSIGN_OR_RETURN(uint64_t num_servers, in->GetVarint64());
  ASSIGN_OR_RETURN(uint64_t threshold, in->GetVarint64());
  if (num_servers == 0 || num_servers > (1ull << 16) ||
      threshold > num_servers)
    return Status::Corruption("implausible deployment shape in key file");
  out.num_servers = static_cast<int>(num_servers);
  out.threshold = static_cast<int>(threshold);
  ASSIGN_OR_RETURN(out.ring_kind, in->GetU8());
  if (out.ring_kind == static_cast<uint8_t>(StoredRingKind::kFpCyclotomic)) {
    ASSIGN_OR_RETURN(out.fp_p, in->GetVarint64());
  } else if (out.ring_kind ==
             static_cast<uint8_t>(StoredRingKind::kZQuotient)) {
    ASSIGN_OR_RETURN(out.z_modulus, ZPoly::Deserialize(in));
  } else {
    return Status::Corruption("unknown ring kind in key file");
  }

  ASSIGN_OR_RETURN(uint64_t doc_count, in->GetVarint64());
  if (doc_count > in->remaining())
    return Status::Corruption("absurd document count in key file");
  out.docs.reserve(doc_count);
  for (uint64_t i = 0; i < doc_count; ++i) {
    DocEntry doc;
    ASSIGN_OR_RETURN(doc.doc_id, in->GetVarint64());
    ASSIGN_OR_RETURN(uint64_t base, in->GetVarint64());
    ASSIGN_OR_RETURN(uint64_t size, in->GetVarint64());
    if (base > static_cast<uint64_t>(INT32_MAX) || size == 0 ||
        size > static_cast<uint64_t>(INT32_MAX) ||
        base + size - 1 > static_cast<uint64_t>(INT32_MAX))
      return Status::Corruption("implausible document range in key file");
    doc.base = static_cast<int32_t>(base);
    doc.size = static_cast<int64_t>(size);
    ASSIGN_OR_RETURN(doc.share_prefix, in->GetLengthPrefixedString());
    out.docs.push_back(std::move(doc));
  }
  // Table-level sanity: ids unique, node-id ranges disjoint. Connect
  // trusts this table without server stores to cross-check against, so a
  // corrupt table must fail here rather than mis-attribute results.
  {
    std::vector<const DocEntry*> by_base;
    by_base.reserve(out.docs.size());
    std::unordered_set<uint64_t> ids;
    for (const DocEntry& doc : out.docs) {
      if (!ids.insert(doc.doc_id).second)
        return Status::Corruption("duplicate doc id in key file table");
      by_base.push_back(&doc);
    }
    std::sort(by_base.begin(), by_base.end(),
              [](const DocEntry* a, const DocEntry* b) {
                return a->base < b->base;
              });
    for (size_t i = 1; i < by_base.size(); ++i) {
      if (by_base[i]->base < by_base[i - 1]->base + by_base[i - 1]->size)
        return Status::Corruption(
            "overlapping document ranges in key file table");
    }
  }
  ASSIGN_OR_RETURN(uint64_t next_base, in->GetVarint64());
  if (next_base > static_cast<uint64_t>(INT32_MAX) + 1)
    return Status::Corruption("implausible next_base in key file");
  out.next_base = static_cast<int64_t>(next_base);
  ASSIGN_OR_RETURN(out.next_epoch, in->GetVarint64());

  ASSIGN_OR_RETURN(uint64_t shard_count, in->GetVarint64());
  if (shard_count > in->remaining())
    return Status::Corruption("absurd shard count in key file");
  out.shards.reserve(shard_count);
  for (uint64_t i = 0; i < shard_count; ++i) {
    ShardEntry shard;
    ASSIGN_OR_RETURN(uint64_t shard_id, in->GetVarint64());
    if (shard_id > UINT32_MAX)
      return Status::Corruption("implausible shard id in key file");
    shard.shard_id = static_cast<uint32_t>(shard_id);
    ASSIGN_OR_RETURN(uint64_t base, in->GetVarint64());
    ASSIGN_OR_RETURN(uint64_t span, in->GetVarint64());
    ASSIGN_OR_RETURN(uint64_t next, in->GetVarint64());
    if (base > static_cast<uint64_t>(INT32_MAX) || span == 0 ||
        span > static_cast<uint64_t>(INT32_MAX) + 1 ||
        base + span > static_cast<uint64_t>(INT32_MAX) + 1)
      return Status::Corruption("implausible shard range in key file");
    if (next > span)
      return Status::Corruption(
          "shard allocation offset exceeds its span in key file");
    shard.base = static_cast<int32_t>(base);
    shard.span = static_cast<int64_t>(span);
    shard.next = static_cast<int64_t>(next);
    out.shards.push_back(shard);
  }
  // Shard-table sanity: ids unique, ranges disjoint, and when the table is
  // non-empty every document sits inside exactly one shard — scatter-gather
  // routes by this table, so a bogus assignment must fail here rather than
  // send a document's queries to the wrong group.
  if (!out.shards.empty()) {
    std::unordered_set<uint64_t> shard_ids;
    for (const ShardEntry& shard : out.shards) {
      if (!shard_ids.insert(shard.shard_id).second)
        return Status::Corruption("duplicate shard id in key file table");
    }
    std::vector<const ShardEntry*> by_base;
    by_base.reserve(out.shards.size());
    for (const ShardEntry& shard : out.shards) by_base.push_back(&shard);
    std::sort(by_base.begin(), by_base.end(),
              [](const ShardEntry* a, const ShardEntry* b) {
                return a->base < b->base;
              });
    for (size_t i = 1; i < by_base.size(); ++i) {
      if (by_base[i]->base < by_base[i - 1]->base + by_base[i - 1]->span)
        return Status::Corruption(
            "overlapping shard ranges in key file table");
    }
    for (const DocEntry& doc : out.docs) {
      bool owned = false;
      for (const ShardEntry& shard : out.shards) {
        if (doc.base >= shard.base &&
            doc.base + doc.size <= shard.base + shard.span) {
          owned = true;
          break;
        }
      }
      if (!owned)
        return Status::Corruption(
            "document outside every shard range in key file table");
    }
  }
  return out;
}

Status WriteFileBytes(const std::string& path,
                      std::span<const uint8_t> bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr)
    return Status::InvalidArgument("cannot open for writing: " + path);
  size_t written = std::fwrite(bytes.data(), 1, bytes.size(), f);
  std::fclose(f);
  if (written != bytes.size())
    return Status::Internal("short write to " + path);
  return Status::Ok();
}

Result<std::vector<uint8_t>> ReadFileBytes(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return Status::NotFound("cannot open: " + path);
  std::fseek(f, 0, SEEK_END);
  long size = std::ftell(f);
  std::fseek(f, 0, SEEK_SET);
  if (size < 0) {
    std::fclose(f);
    return Status::Internal("cannot stat: " + path);
  }
  std::vector<uint8_t> bytes(static_cast<size_t>(size));
  size_t got = std::fread(bytes.data(), 1, bytes.size(), f);
  std::fclose(f);
  if (got != bytes.size()) return Status::Internal("short read from " + path);
  return bytes;
}

}  // namespace polysse
