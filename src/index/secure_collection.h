// The application-facing face of a multi-document deployment: a
// polysse::Collection for the paper's structural index joined with the §6
// encrypted content layer (index/payload_store), per document. One object
// that outsources whole documents incrementally and answers "give me the
// decrypted text of every element matching this query, in every document
// that has one".
//
//   auto svc = SecureCollectionService::Create(seed).value();
//   svc->Add(1, patient_file_1);
//   svc->Add(2, patient_file_2);
//   auto hits = svc->Query("//prescription/drug");   // {doc -> texts}
//
// One document is the same service with one Add (size the field with
// FpCollection::AutoPrime for its alphabet, as core/collection.h shows).
#ifndef POLYSSE_INDEX_SECURE_COLLECTION_H_
#define POLYSSE_INDEX_SECURE_COLLECTION_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/collection.h"
#include "index/payload_store.h"

namespace polysse {

/// One matched element with its decrypted text. `path` is document-local.
struct ContentMatch {
  std::string path;
  std::string text;
};

class SecureCollectionService {
 public:
  /// Decrypted matches per document; documents without matches are absent.
  using ContentResults = std::map<DocId, std::vector<ContentMatch>>;

  /// An empty collection service (F_p structural ring) with a live
  /// in-process deployment; documents arrive through Add.
  static Result<std::unique_ptr<SecureCollectionService>> Create(
      const DeterministicPrf& seed,
      const FpCollection::Deploy& deploy = {},
      const FpOutsourceOptions& options = {});

  SecureCollectionService(const SecureCollectionService&) = delete;
  SecureCollectionService& operator=(const SecureCollectionService&) = delete;

  /// Outsources structure (into the collection) and content (encrypted
  /// payload store) of one document against the live deployment.
  Status Add(DocId doc_id, const XmlNode& document);

  /// Retires a document's structure and content.
  Status Remove(DocId doc_id);

  /// XPath across every document's encrypted structure, then decrypt the
  /// matched elements' payloads. Servers learn evaluation points and which
  /// ciphertexts were fetched — never tags, text, or the query.
  Result<ContentResults> Query(
      const std::string& xpath,
      XPathStrategy strategy = XPathStrategy::kAllAtOnce,
      VerifyMode mode = VerifyMode::kVerified);

  /// Single-tag variant of Query.
  Result<ContentResults> Lookup(const std::string& tagname,
                                VerifyMode mode = VerifyMode::kVerified);

  /// Bytes of encrypted payloads fetched by the most recent query.
  size_t last_payload_bytes() const { return last_payload_bytes_; }

  /// Per-server structural share bytes (server 0's registry).
  size_t server_structure_bytes() const {
    return collection_->registry() != nullptr
               ? collection_->registry()->PersistedBytes()
               : 0;
  }
  /// Ciphertext bytes across every document's payload store.
  size_t server_payload_bytes() const;

  /// The structural collection underneath, for the full query surface.
  FpCollection& collection() { return *collection_; }

 private:
  /// The per-document content layer: ciphertexts plus their codec, keyed
  /// in a document-unique PRF namespace.
  struct DocContent {
    PayloadStore payloads;
    PayloadCodec codec;
  };

  SecureCollectionService(std::unique_ptr<FpCollection> collection,
                          DeterministicPrf seed)
      : collection_(std::move(collection)), seed_(std::move(seed)) {}

  Result<ContentResults> ResolveContent(const CollectionResult& structural);

  std::unique_ptr<FpCollection> collection_;
  DeterministicPrf seed_;
  std::map<DocId, DocContent> content_;
  size_t last_payload_bytes_ = 0;
};

}  // namespace polysse

#endif  // POLYSSE_INDEX_SECURE_COLLECTION_H_
