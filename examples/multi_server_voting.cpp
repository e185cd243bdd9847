// Secure multi-party computation demos from paper §3 and §4.2:
//   1. anonymous sum vote and veto vote with no trusted third party;
//   2. k-of-n multi-server outsourcing of a one-document collection, where
//      any t servers answer a query over the real wire protocol and t-1
//      servers learn nothing — including transparent failover when servers
//      die.
//
//   $ ./multi_server_voting
#include <cstdio>

#include "core/collection.h"
#include "mpc/voting.h"
#include "xml/xml_generator.h"

int main() {
  using namespace polysse;

  // ---------------------------------------------------- §3 voting demo --
  auto field = PrimeField::Create(101).value();
  ChaChaRng rng = ChaChaRng::FromString("election-2004");

  std::vector<uint64_t> votes = {1, 0, 1, 1, 0, 1, 0};
  auto sum = RunSumVote(field, votes, /*threshold=*/4, rng);
  if (!sum.ok()) {
    std::fprintf(stderr, "%s\n", sum.status().ToString().c_str());
    return 1;
  }
  std::printf("sum vote: %zu voters, tally = %llu in favour "
              "(%d share messages; no party saw another's vote)\n",
              votes.size(), static_cast<unsigned long long>(sum->tally),
              sum->messages_sent);

  auto veto_pass = RunVetoVote(field, {1, 1, 1, 1, 1}, /*threshold=*/1, rng);
  auto veto_fail = RunVetoVote(field, {1, 1, 0, 1, 1}, /*threshold=*/1, rng);
  if (veto_pass.ok() && veto_fail.ok()) {
    std::printf("veto vote: unanimous run -> %llu (passed), one dissent -> "
                "%llu (vetoed)\n",
                static_cast<unsigned long long>(veto_pass->tally),
                static_cast<unsigned long long>(veto_fail->tally));
  }

  // ------------------------------------- §4.2 multi-server extension --
  XmlNode doc = MakeMedicalRecordsDocument(10, 7);
  DeterministicPrf seed = DeterministicPrf::FromString("multi-server");

  const int t = 3, n = 5;
  DeployShape deploy;
  deploy.scheme = ShareScheme::kShamir;
  deploy.num_servers = n;
  deploy.threshold = t;
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
  std::printf("\nShamir multi-server: document of %zu nodes split across %d "
              "servers, threshold %d\n", (*col)->total_nodes(), n, t);

  auto expected =
      (*col)->SearchDoc(0, "prescription").value().matches.size();
  std::printf("//prescription with all %d servers up -> %zu matches\n", n,
              expected);

  // Kill n-t servers: any t still answer, with mid-query failover (each
  // query finds the dead servers afresh).
  for (int s = 0; s < n - t; ++s) {
    FaultConfig down;
    down.fail_after_calls = 0;
    (*col)->InjectFaults(static_cast<size_t>(s), down);
  }
  auto degraded = (*col)->SearchDoc(0, "prescription");
  if (degraded.ok()) {
    std::printf("with only %d servers reachable -> %zu matches "
                "(%zu transparent failovers)%s\n",
                t, degraded->matches.size(),
                degraded->stats.server_failovers,
                degraded->matches.size() == expected ? " (correct)"
                                                     : " (WRONG)");
  }

  // One more failure leaves t-1 servers: a clean refusal, never a wrong
  // answer — and t-1 servers' shares are information-theoretically
  // independent of the data.
  FaultConfig down;
  down.fail_after_calls = 0;
  (*col)->InjectFaults(static_cast<size_t>(n - t), down);
  auto starved = (*col)->SearchDoc(0, "prescription");
  std::printf("with %d servers reachable -> %s\n", t - 1,
              starved.ok() ? "(answered?!)"
                           : starved.status().ToString().c_str());
  std::printf("  any %d servers alone hold Shamir shares that are "
              "information-theoretically independent of the data\n", t - 1);
  return 0;
}
