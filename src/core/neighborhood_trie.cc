#include "core/neighborhood_trie.h"

#include <algorithm>
#include <numeric>

namespace mbe {

void NeighborhoodTrie::Build(std::span<const std::span<const VertexId>> lists,
                             std::span<const uint32_t> order) {
  PMBE_DCHECK(order.size() == lists.size());
  packed_.clear();
  first_group_.clear();
  next_group_.assign(lists.size(), -1);
  total_length_ = 0;
  max_depth_ = 0;

  // Node ids of the current path, one per depth.
  std::vector<int32_t> path;
  std::span<const VertexId> prev{};
  for (uint32_t g : order) {
    std::span<const VertexId> cur = lists[g];
    total_length_ += cur.size();
    if (cur.empty()) {
      // Empty lists always count 0; they are not represented in the trie.
      // Keep `prev`/`path` untouched: an empty list is a prefix of
      // everything, so it does not break the lexicographic ordering, and
      // clearing the running path here would make the next list re-insert
      // nodes the trie already has (duplicating its full path).
      continue;
    }
    // Shared path = common prefix with the previously inserted list
    // (correct because the insertion order is lexicographic).
    size_t common = 0;
    const size_t limit = std::min(prev.size(), cur.size());
    while (common < limit && prev[common] == cur[common]) ++common;
    PMBE_DCHECK(common <= path.size());
    path.resize(common);
    for (size_t d = common; d < cur.size(); ++d) {
      const int32_t id = static_cast<int32_t>(packed_.size());
      packed_.push_back(Pack(cur[d], static_cast<uint32_t>(d)));
      first_group_.push_back(-1);
      path.push_back(id);
    }
    max_depth_ = std::max(max_depth_, static_cast<uint32_t>(cur.size()));
    // Chain this group at its terminal node.
    const int32_t terminal = path.back();
    next_group_[g] = first_group_[terminal];
    first_group_[terminal] = static_cast<int32_t>(g);
    prev = cur;
  }
}

void NeighborhoodTrie::Build(
    std::span<const std::span<const VertexId>> lists) {
  std::vector<uint32_t> order(lists.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    return std::lexicographical_compare(lists[a].begin(), lists[a].end(),
                                        lists[b].begin(), lists[b].end());
  });
  Build(lists, order);
}

void NeighborhoodTrie::BuildUnordered(
    std::span<const std::span<const VertexId>> lists) {
  packed_.clear();
  first_group_.clear();
  next_group_.assign(lists.size(), -1);
  total_length_ = 0;
  max_depth_ = 0;

  // Working set of group ids with nonempty lists.
  std::vector<uint32_t> idx;
  idx.reserve(lists.size());
  for (uint32_t g = 0; g < lists.size(); ++g) {
    total_length_ += lists[g].size();
    if (!lists[g].empty()) idx.push_back(g);
  }

  // Recursive DFS: partition idx[lo, hi) — all sharing a prefix of length
  // `depth` — by their element at `depth`, emitting nodes in strict
  // preorder (ClassifyAll's depth-stack scan depends on it). Recursion
  // depth is bounded by the longest list, i.e. by |L| of the enumeration
  // node, the same bound as the enumeration recursion itself.
  auto rec = [&](auto&& self, size_t lo, size_t hi, uint32_t depth) -> void {
    max_depth_ = std::max(max_depth_, depth + 1);
    // Skip the sort when the range is already uniform (the common case
    // deep inside shared prefixes).
    bool uniform = true;
    const VertexId head = lists[idx[lo]][depth];
    for (size_t i = lo + 1; i < hi; ++i) {
      if (lists[idx[i]][depth] != head) {
        uniform = false;
        break;
      }
    }
    if (!uniform) {
      std::sort(idx.begin() + static_cast<ptrdiff_t>(lo),
                idx.begin() + static_cast<ptrdiff_t>(hi),
                [&](uint32_t a, uint32_t b) {
                  return lists[a][depth] < lists[b][depth];
                });
    }
    size_t run_lo = lo;
    while (run_lo < hi) {
      const VertexId v = lists[idx[run_lo]][depth];
      size_t run_hi = run_lo + 1;
      while (run_hi < hi && lists[idx[run_hi]][depth] == v) ++run_hi;

      const int32_t node = static_cast<int32_t>(packed_.size());
      packed_.push_back(Pack(v, depth));
      first_group_.push_back(-1);
      // Split the run into terminals (list ends here) and descenders.
      size_t descend_lo = run_lo;
      for (size_t i = run_lo; i < run_hi; ++i) {
        const uint32_t g = idx[i];
        if (lists[g].size() == depth + 1) {
          next_group_[g] = first_group_[node];
          first_group_[node] = static_cast<int32_t>(g);
          std::swap(idx[i], idx[descend_lo]);
          ++descend_lo;
        }
      }
      if (descend_lo < run_hi) self(self, descend_lo, run_hi, depth + 1);
      run_lo = run_hi;
    }
  };
  if (!idx.empty()) rec(rec, 0, idx.size(), 0);
}

size_t NeighborhoodTrie::ClassifyAll(const MembershipMask& mask,
                                     std::vector<uint32_t>* counts) const {
  counts->assign(next_group_.size(), 0);
  count_stack_.resize(max_depth_ + 1);
  uint32_t* stack = count_stack_.data();
  uint32_t* out = counts->data();
  const uint64_t* packed = packed_.data();
  const uint64_t* words = mask.words();
  const size_t n = packed_.size();
  // The node stream is sequential but the mask probes hop across the
  // word-packed bitmap, so pull the probe word of the node 8 ahead (and
  // the next cache line of the stream) while the stack update retires.
  constexpr size_t kPrefetchAhead = 8;
  for (size_t i = 0; i < n; ++i) {
    if (i + kPrefetchAhead < n) {
      const uint64_t ahead = packed[i + kPrefetchAhead];
      __builtin_prefetch(words + (static_cast<VertexId>(ahead) >> 6));
      if ((i & 7) == 0) __builtin_prefetch(packed + i + kPrefetchAhead);
    }
    const uint64_t node = packed[i];
    const VertexId vertex = static_cast<VertexId>(node);
    const uint32_t depth = static_cast<uint32_t>(node >> 32);
    PMBE_DCHECK(vertex < mask.universe());
    const uint32_t bit =
        static_cast<uint32_t>((words[vertex >> 6] >> (vertex & 63)) & 1);
    const uint32_t count = (depth ? stack[depth - 1] : 0u) + bit;
    stack[depth] = count;
    for (int32_t g = first_group_[i]; g >= 0; g = next_group_[g]) {
      out[g] = count;
    }
  }
  return n;
}

size_t NeighborhoodTrie::MemoryBytes() const {
  return packed_.capacity() * sizeof(uint64_t) +
         first_group_.capacity() * sizeof(int32_t) +
         next_group_.capacity() * sizeof(int32_t) +
         count_stack_.capacity() * sizeof(uint32_t);
}

}  // namespace mbe
