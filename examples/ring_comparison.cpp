// Side-by-side comparison of the paper's two rings on the same document:
// F_p[x]/(x^{p-1}-1) vs Z[x]/(x^2+1) — storage, query cost, and the
// Z-ring's evaluation-filter subtleties (safe tag values).
//
//   $ ./ring_comparison
#include <cstdio>

#include "core/collection.h"
#include "core/storage_model.h"
#include "xml/xml_generator.h"

int main() {
  using namespace polysse;

  XmlGeneratorOptions gen;
  gen.num_nodes = 200;
  gen.tag_alphabet = 12;
  gen.max_fanout = 4;
  gen.seed = 42;
  XmlNode doc = GenerateXmlTree(gen);
  DeterministicPrf seed = DeterministicPrf::FromString("ring-comparison");

  // The same document as the only member of one collection per ring; the
  // F_p field is sized for its alphabet, the Z ring needs no sizing.
  const DeployShape deploy;
  auto fp_dep = FpCollection::Create(
      seed, deploy,
      {.p = FpCollection::AutoPrime(doc.DistinctTags().size(), deploy)});
  auto z_dep = ZCollection::Create(seed, deploy);
  if (!fp_dep.ok() || !z_dep.ok() || !(*fp_dep)->Add(0, doc).ok() ||
      !(*z_dep)->Add(0, doc).ok()) {
    std::fprintf(stderr, "outsource failed\n");
    return 1;
  }

  StorageReport fp_report = MeasureStorage((*fp_dep)->ring(), doc,
                                           *(*fp_dep)->doc_store(0, 0).value());
  StorageReport z_report = MeasureStorage((*z_dep)->ring(), doc,
                                          *(*z_dep)->doc_store(0, 0).value(),
                                          (*fp_dep)->ring().p());
  std::printf("%s\n%s\n%s\n\n", StorageReportHeader().c_str(),
              StorageReportRow(fp_report, "Fp ring").c_str(),
              StorageReportRow(z_report, "Z[x]/(x^2+1)").c_str());

  std::printf("%-10s | %10s %12s | %10s %12s\n", "query", "Fp:visited",
              "Fp:bytes_dn", "Z:visited", "Z:bytes_dn");
  for (const std::string& tag : doc.DistinctTags()) {
    auto fr = (*fp_dep)->SearchDoc(0, tag, VerifyMode::kVerified);
    auto zr = (*z_dep)->SearchDoc(0, tag, VerifyMode::kVerified);
    if (!fr.ok() || !zr.ok()) continue;
    std::printf("//%-8s | %10zu %12zu | %10zu %12zu   (matches: %zu)\n",
                tag.c_str(), fr->stats.nodes_visited,
                fr->stats.transport.bytes_down, zr->stats.nodes_visited,
                zr->stats.transport.bytes_down, fr->matches.size());
    if (fr->matches.size() != zr->matches.size()) {
      std::printf("  *** rings disagree — should never happen\n");
      return 1;
    }
  }

  std::printf("\nnote how the Z-ring stores only deg(r)=2 coefficients per "
              "node but each coefficient\ngrows with the tree (max %zu bits "
              "here), while the Fp ring stores p-1 = %llu small ones.\n",
              z_report.max_coeff_bits,
              static_cast<unsigned long long>((*fp_dep)->ring().p() - 1));
  return 0;
}
