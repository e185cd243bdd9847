// Outsourced medical records: a realistic scenario for the paper's scheme.
// A hospital outsources patient records to an untrusted cloud store as a
// one-document collection, runs XPath queries over the encrypted tree,
// compares both §4.3 evaluation strategies, and demonstrates that a server
// tampering with its responses is caught.
//
//   $ ./medical_records [num_patients]
#include <cstdio>
#include <cstdlib>

#include "core/collection.h"
#include "xml/xml_generator.h"

int main(int argc, char** argv) {
  using namespace polysse;
  const size_t patients = argc > 1 ? std::strtoul(argv[1], nullptr, 10) : 50;

  XmlNode doc = MakeMedicalRecordsDocument(patients, /*seed=*/2004);
  std::printf("hospital document: %zu elements, %zu distinct tags, height %zu\n",
              doc.SubtreeSize(), doc.DistinctTagCount(), doc.Height());

  DeterministicPrf seed = DeterministicPrf::FromString("hospital-master-key");
  const DeployShape deploy;
  auto col = FpCollection::Create(
      seed, deploy,
      {.p = FpCollection::AutoPrime(doc.DistinctTags().size(), deploy)});
  if (!col.ok()) {
    std::fprintf(stderr, "%s\n", col.status().ToString().c_str());
    return 1;
  }
  if (Status s = (*col)->Add(0, doc); !s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }

  const char* queries[] = {
      "//prescription",
      "//patient/record/prescription/drug",
      "//record//test",
      "/hospital/patient/insurance",
  };
  std::printf("\n%-40s %8s %10s %10s %10s\n", "query", "matches",
              "visited", "evals", "bytes_down");
  for (const char* q : queries) {
    for (XPathStrategy strategy :
         {XPathStrategy::kLeftToRight, XPathStrategy::kAllAtOnce}) {
      auto r = (*col)->SearchXPath(q, strategy, VerifyMode::kVerified);
      if (!r.ok()) {
        std::fprintf(stderr, "query failed: %s\n",
                     r.status().ToString().c_str());
        return 1;
      }
      std::printf("%-34s %-5s %8zu %10zu %10zu %10zu\n", q,
                  strategy == XPathStrategy::kLeftToRight ? "(l2r)" : "(aao)",
                  r->per_doc[0].matches.size(), r->stats.nodes_visited,
                  r->stats.server_evals, r->stats.transport.bytes_down);
    }
  }

  // Bandwidth trade-off of the trusted-server mode (§4.3 closing remark).
  auto verified = (*col)->SearchDoc(0, "drug", VerifyMode::kVerified);
  auto trusted =
      (*col)->SearchDoc(0, "drug", VerifyMode::kTrustedConstOnly);
  if (verified.ok() && trusted.ok()) {
    std::printf("\n//drug with full verification: %zu B down; trusted "
                "const-only: %zu B down (%.1fx less, but no Eq. 3 checks)\n",
                verified->stats.transport.bytes_down,
                trusted->stats.transport.bytes_down,
                static_cast<double>(verified->stats.transport.bytes_down) /
                    static_cast<double>(
                        std::max<size_t>(1, trusted->stats.transport.bytes_down)));
  }

  // A malicious server rewrites a fetched share in flight without changing
  // the evaluations the pruning sees: verified mode refuses the answer.
  auto e = (*col)->client().tag_map().Value("patient");
  if (e.ok()) {
    const FpCyclotomicRing& ring = (*col)->ring();
    auto taint = ring.XMinus(*e);
    if (taint.ok()) {
      FaultConfig cheat;
      cheat.tamper_fetch = [&ring, &taint](FetchResponse& resp) {
        for (FetchEntry& entry : resp.entries) {
          if (entry.node_id != 1) continue;
          ByteReader r(entry.payload);
          auto poly = ring.Deserialize(&r);
          if (!poly.ok()) continue;
          ByteWriter w;
          ring.Serialize(ring.Add(*poly, *taint), &w);
          entry.payload = w.Take();
        }
      };
      (*col)->InjectFaults(0, cheat);
      auto cheated = (*col)->SearchDoc(0, "patient", VerifyMode::kVerified);
      std::printf("\nafter server tampering, verified lookup says: %s\n",
                  cheated.ok() ? "(undetected?!)"
                               : cheated.status().ToString().c_str());
    }
  }
  return 0;
}
