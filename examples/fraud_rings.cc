// Fraud-ring detection: the e-commerce scenario that motivates MBE in the
// literature's introductions. Fake-review farms make groups of customer
// accounts buy the same set of products, which shows up as unusually large
// maximal bicliques in the customer x product purchase graph.
//
// This example plants a few "fraud rings" into a realistic power-law
// purchase graph, enumerates maximal bicliques with MBET, and flags every
// biclique whose size (customers x products) clears a suspicion threshold
// — then checks the planted rings were all caught.

#include <algorithm>
#include <cstdio>
#include <vector>

#include "api/mbe.h"
#include "gen/generators.h"

int main() {
  // 4000 customers, 1500 products, organic long-tail purchases.
  mbe::BipartiteGraph organic =
      mbe::gen::PowerLaw(4000, 1500, 20000, 0.75, 0.7, 2024);

  // Plant 5 fraud rings: 8 accounts x 6 products each.
  std::vector<mbe::gen::PlantedBiclique> rings;
  mbe::BipartiteGraph graph =
      mbe::gen::PlantBicliques(organic, 5, 8, 6, 99, &rings);
  std::printf("purchase graph: %s, planted rings: %zu\n",
              graph.Summary().c_str(), rings.size());

  // Enumerate and flag: a biclique with >= 6 accounts and >= 5 products
  // is suspicious (organic co-purchase blocks this dense are rare).
  constexpr size_t kMinAccounts = 6;
  constexpr size_t kMinProducts = 5;
  std::vector<mbe::Biclique> suspicious;
  mbe::CallbackSink sink(
      [&](std::span<const mbe::VertexId> accounts,
          std::span<const mbe::VertexId> products) {
        if (accounts.size() >= kMinAccounts && products.size() >= kMinProducts) {
          suspicious.push_back(mbe::Biclique{
              {accounts.begin(), accounts.end()},
              {products.begin(), products.end()}});
        }
      });

  mbe::RunOptions options;
  options.threads = 4;
  mbe::RunResult run;
  if (mbe::util::Status status =
          mbe::Enumerate(graph, mbe::GraphOptions(), options, &sink, &run);
      !status.ok()) {
    std::printf("enumeration failed: %s\n", status.ToString().c_str());
    return 1;
  }
  std::printf("enumerated %llu maximal bicliques in %.1fms, %zu suspicious\n",
              static_cast<unsigned long long>(run.stats.maximal),
              run.seconds * 1e3, suspicious.size());

  // Every planted ring must be inside some flagged biclique.
  size_t caught = 0;
  for (const auto& ring : rings) {
    const bool hit = std::any_of(
        suspicious.begin(), suspicious.end(), [&](const mbe::Biclique& b) {
          return std::includes(b.left.begin(), b.left.end(), ring.left.begin(),
                               ring.left.end()) &&
                 std::includes(b.right.begin(), b.right.end(),
                               ring.right.begin(), ring.right.end());
        });
    caught += hit ? 1 : 0;
  }
  std::printf("planted rings caught: %zu / %zu\n", caught, rings.size());

  for (size_t i = 0; i < std::min<size_t>(3, suspicious.size()); ++i) {
    const auto& b = suspicious[i];
    std::printf("  flagged: %zu accounts x %zu products\n", b.left.size(),
                b.right.size());
  }
  return caught == rings.size() ? 0 : 1;
}
