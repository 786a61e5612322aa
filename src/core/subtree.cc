#include "core/subtree.h"

#include <algorithm>
#include <bit>

#include "util/bitset.h"

namespace mbe {

SubtreeBuilder::SubtreeBuilder(const BipartiteGraph& graph)
    : graph_(graph),
      slot_(graph.num_right(), 0),
      mark_(util::WordsFor(graph.num_right()), 0) {}

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
  const uint32_t l0_size = static_cast<uint32_t>(nbrs.size());

  // Count pass: slot_[w] = |N(w) ∩ L0| for every w sharing a left neighbor
  // with v (v itself included; it is skipped below).
  n2_.clear();
  for (VertexId u : nbrs) {
    for (VertexId w : graph_.LeftNeighbors(u)) {
      if (slot_[w]++ == 0) n2_.push_back(w);
    }
  }

  // Sort N2(v). When the words spanning its id range are fewer than its
  // vertices, reading them back from a bitmap in word order is cheaper
  // than a comparison sort; a wide, sparse range sorts instead.
  const auto [lo, hi] = std::minmax_element(n2_.begin(), n2_.end());
  const size_t first_word = *lo / 64, last_word = *hi / 64;
  if (last_word - first_word < n2_.size()) {
    util::SetBits(n2_, mark_);
    n2_.clear();
    for (size_t i = first_word; i <= last_word; ++i) {
      for (uint64_t word = mark_[i]; word != 0; word &= word - 1) {
        n2_.push_back(static_cast<VertexId>(i * 64 + std::countr_zero(word)));
      }
      mark_[i] = 0;
    }
  } else {
    std::sort(n2_.begin(), n2_.end());
  }

  // An earlier vertex whose local is all of L0 dominates it: every
  // biclique of this subtree is enumerated in that vertex's subtree.
  const auto later = std::lower_bound(n2_.begin(), n2_.end(), v);
  if (std::any_of(n2_.begin(), later,
                  [&](VertexId w) { return slot_[w] == l0_size; })) {
    for (VertexId w : n2_) slot_[w] = 0;
    *pruned = true;
    return false;
  }

  // The counts fix every entry's arena range, and slot_ becomes its fill
  // cursor. Later vertices whose local is all of L0 join R0 instead; they
  // and v get no cursor.
  constexpr uint32_t kNoCursor = ~0u;
  uint32_t total = 0;
  for (VertexId w : n2_) {
    uint32_t& slot = slot_[w];
    if (w == v || slot == l0_size) {
      if (w != v) absorbed->push_back(w);
      slot = kNoCursor;
      continue;
    }
    root->entries.push_back({w, w < v, total, slot});
    slot = total;
    total += root->entries.back().loc_len;
  }

  // Fill pass: visiting L0 in ascending order writes each entry's local
  // sorted and already in local ids (positions in l0).
  root->locs.resize(total);
  for (uint32_t i = 0; i < l0_size; ++i) {
    for (VertexId w : graph_.LeftNeighbors(nbrs[i])) {
      uint32_t& cursor = slot_[w];
      if (cursor != kNoCursor) root->locs[cursor++] = i;
    }
  }
  for (VertexId w : n2_) slot_[w] = 0;
  return true;
}

}  // namespace mbe
