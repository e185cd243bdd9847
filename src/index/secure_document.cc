#include "index/secure_document.h"

namespace polysse {

Result<std::unique_ptr<SecureDocumentService>> SecureDocumentService::Outsource(
    const XmlNode& document, const DeterministicPrf& seed,
    const FpOutsourceOptions& options) {
  // Size the field for exactly this document's alphabet (the historical
  // single-document behavior).
  FpOutsourceOptions effective = options;
  if (effective.p == 0)
    effective.p = FpCollection::AutoPrime(document.DistinctTags().size(), {});
  ASSIGN_OR_RETURN(std::unique_ptr<SecureCollectionService> service,
                   SecureCollectionService::Create(seed, {}, effective));
  RETURN_IF_ERROR(service->Add(kDocId, document));
  // Not make_unique: the constructor is private.
  return std::unique_ptr<SecureDocumentService>(
      new SecureDocumentService(std::move(service)));
}

Result<std::vector<ContentMatch>> SecureDocumentService::Query(
    const std::string& xpath, XPathStrategy strategy, VerifyMode mode) {
  ASSIGN_OR_RETURN(SecureCollectionService::ContentResults results,
                   service_->Query(xpath, strategy, mode));
  auto it = results.find(kDocId);
  if (it == results.end()) return std::vector<ContentMatch>{};
  return std::move(it->second);
}

Result<std::vector<ContentMatch>> SecureDocumentService::Lookup(
    const std::string& tagname, VerifyMode mode) {
  ASSIGN_OR_RETURN(SecureCollectionService::ContentResults results,
                   service_->Lookup(tagname, mode));
  auto it = results.find(kDocId);
  if (it == results.end()) return std::vector<ContentMatch>{};
  return std::move(it->second);
}

}  // namespace polysse
