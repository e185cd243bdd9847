#include "index/secure_collection.h"

namespace polysse {

namespace {

/// Every document encrypts payloads in its own key namespace, derived from
/// the master seed and the document's unique share prefix — adding,
/// removing and re-adding a doc id never reuses a keystream.
DeterministicPrf DocPayloadPrf(const DeterministicPrf& seed,
                               const std::string& share_prefix) {
  const std::string label = "payload-doc/" + share_prefix;
  return DeterministicPrf(HmacSha256(
      std::span<const uint8_t>(seed.seed().data(), seed.seed().size()),
      std::span<const uint8_t>(
          reinterpret_cast<const uint8_t*>(label.data()), label.size())));
}

}  // namespace

Result<std::unique_ptr<SecureCollectionService>>
SecureCollectionService::Create(const DeterministicPrf& seed,
                                const FpCollection::Deploy& deploy,
                                const FpOutsourceOptions& options) {
  ASSIGN_OR_RETURN(std::unique_ptr<FpCollection> collection,
                   FpCollection::Create(seed, deploy, options));
  // Not make_unique: the constructor is private.
  return std::unique_ptr<SecureCollectionService>(
      new SecureCollectionService(std::move(collection), seed));
}

Status SecureCollectionService::Add(DocId doc_id, const XmlNode& document) {
  RETURN_IF_ERROR(collection_->Add(doc_id, document));
  ASSIGN_OR_RETURN(std::string prefix, collection_->share_prefix(doc_id));
  PayloadCodec codec(DocPayloadPrf(seed_, prefix));
  PayloadStore payloads = codec.Encrypt(document);
  content_.emplace(doc_id,
                   DocContent{std::move(payloads), std::move(codec)});
  return Status::Ok();
}

Status SecureCollectionService::Remove(DocId doc_id) {
  RETURN_IF_ERROR(collection_->Remove(doc_id));
  content_.erase(doc_id);
  return Status::Ok();
}

Result<SecureCollectionService::ContentResults>
SecureCollectionService::ResolveContent(const CollectionResult& structural) {
  ContentResults out;
  last_payload_bytes_ = 0;
  for (const auto& [doc_id, result] : structural.per_doc) {
    if (result.matches.empty()) continue;
    auto it = content_.find(doc_id);
    if (it == content_.end())
      return Status::Internal("matched document has no content store");
    std::vector<ContentMatch>& matches = out[doc_id];
    matches.reserve(result.matches.size());
    for (const MatchedNode& m : result.matches) {
      // Payload ids are preorder node ids, identical to the share tree's
      // document-local ids.
      ASSIGN_OR_RETURN(const PayloadStore::Entry* entry,
                       it->second.payloads.Get(static_cast<size_t>(m.node_id)));
      if (entry->path != m.path)
        return Status::Internal("payload/structure id misalignment at " +
                                m.path);
      last_payload_bytes_ += entry->ciphertext.size();
      ASSIGN_OR_RETURN(std::string text, it->second.codec.Decrypt(*entry));
      matches.push_back({m.path, std::move(text)});
    }
  }
  return out;
}

Result<SecureCollectionService::ContentResults> SecureCollectionService::Query(
    const std::string& xpath, XPathStrategy strategy, VerifyMode mode) {
  ASSIGN_OR_RETURN(CollectionResult structural,
                   collection_->SearchXPath(xpath, strategy, mode));
  return ResolveContent(structural);
}

Result<SecureCollectionService::ContentResults>
SecureCollectionService::Lookup(const std::string& tagname, VerifyMode mode) {
  ASSIGN_OR_RETURN(CollectionResult structural,
                   collection_->Search(tagname, mode));
  return ResolveContent(structural);
}

size_t SecureCollectionService::server_payload_bytes() const {
  size_t sum = 0;
  for (const auto& [doc_id, content] : content_) {
    sum += content.payloads.PersistedBytes();
  }
  return sum;
}

}  // namespace polysse
