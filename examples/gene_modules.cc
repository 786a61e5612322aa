// Gene-expression biclustering: the bioinformatics application of MBE
// (Zhang et al., BMC Bioinformatics 2014). Rows are genes, columns are
// experimental conditions; an edge means "gene g is differentially
// expressed under condition c". Maximal bicliques are candidate
// *co-expression modules*: gene sets that respond together across a
// condition set.
//
// The example builds a block-structured gene x condition matrix (modules
// plus noise), enumerates modules with MBET, ranks them by area, and
// prints summary statistics a biologist would start from.

#include <algorithm>
#include <cstdio>
#include <vector>

#include "api/mbe.h"
#include "gen/generators.h"

int main() {
  // 1200 genes, 80 conditions, 6 co-expression modules, noisy background.
  mbe::BipartiteGraph graph = mbe::gen::BlockCommunity(
      /*num_left=*/1200, /*num_right=*/80, /*blocks=*/6,
      /*p_in=*/0.55, /*p_out=*/0.02, /*seed=*/7);
  std::printf("expression graph: %s\n", graph.Summary().c_str());

  mbe::CollectSink sink;
  mbe::RunOptions options;
  mbe::RunResult run;
  if (mbe::util::Status status =
          mbe::Enumerate(graph, mbe::GraphOptions(), options, &sink, &run);
      !status.ok()) {
    std::printf("enumeration failed: %s\n", status.ToString().c_str());
    return 1;
  }
  std::vector<mbe::Biclique> modules = sink.TakeSorted();

  // Keep modules with at least 4 genes over at least 4 conditions and rank
  // by the number of (gene, condition) cells they explain.
  std::erase_if(modules, [](const mbe::Biclique& b) {
    return b.left.size() < 4 || b.right.size() < 4;
  });
  std::sort(modules.begin(), modules.end(),
            [](const mbe::Biclique& a, const mbe::Biclique& b) {
              return a.num_edges() > b.num_edges();
            });

  std::printf("%llu maximal bicliques in %.1fms; %zu candidate modules "
              "(>=4x4)\n",
              static_cast<unsigned long long>(run.stats.maximal),
              run.seconds * 1e3, modules.size());
  for (size_t i = 0; i < std::min<size_t>(5, modules.size()); ++i) {
    std::printf("  module %zu: %zu genes x %zu conditions (%zu cells)\n",
                i + 1, modules[i].left.size(), modules[i].right.size(),
                modules[i].num_edges());
  }
  return modules.empty() ? 1 : 0;
}
