#include "core/subtree.h"

#include <algorithm>

namespace mbe {

SubtreeBuilder::SubtreeBuilder(const BipartiteGraph& graph)
    : graph_(graph),
      two_hop_(graph.num_right()),
      l_mask_(graph.num_left()) {}

bool SubtreeBuilder::Build(VertexId v, SubtreeRoot* root,
                           std::vector<VertexId>* absorbed, bool* pruned) {
  *pruned = false;
  root->seed = v;
  root->entries.clear();
  root->locs.clear();
  absorbed->clear();

  auto nbrs = graph_.RightNeighbors(v);
  if (nbrs.empty()) return false;
  root->l0.assign(nbrs.begin(), nbrs.end());

  two_hop_.RightTwoHop(graph_, v, &n2_);

  l_mask_.Set(root->l0);
  const size_t l0_size = root->l0.size();
  bool dominated = false;
  for (VertexId w : n2_) {
    RootEntry entry;
    entry.w = w;
    entry.forbidden = w < v;
    entry.loc_off = static_cast<uint32_t>(root->locs.size());
    for (VertexId x : graph_.RightNeighbors(w)) {
      if (l_mask_.Test(x)) root->locs.push_back(x);
    }
    entry.loc_len = static_cast<uint32_t>(root->locs.size() - entry.loc_off);
    if (entry.loc_len == 0) continue;  // unreachable from L0: N2 guarantees >0
    if (entry.loc_len == l0_size) {
      root->locs.resize(entry.loc_off);  // loc == L0: no need to keep it
      if (entry.forbidden) {
        // An earlier vertex dominates L0: the whole subtree is covered by
        // subtree(w). Prune.
        dominated = true;
        break;
      }
      absorbed->push_back(w);
      continue;
    }
    root->entries.push_back(entry);
  }
  l_mask_.Clear(root->l0);

  if (dominated) {
    *pruned = true;
    return false;
  }
  return true;
}

}  // namespace mbe
