#include "core/mbet.h"

#include <algorithm>
#include <bit>

#include "util/bitset.h"
#include "util/fault.h"
#include "util/memory.h"

namespace mbe {

MbetEnumerator::MbetEnumerator(const BipartiteGraph& graph,
                               const MbetOptions& options)
    : graph_(graph),
      options_(options),
      builder_(graph),
      lp_mask_(graph.num_left()),
      ctx_(options.memory) {
  // MBETM stores no local lists, so there is nothing to build a trie over,
  // and its recomputation intersects global adjacency lists, so the local
  // renumbering (and with it the bitmap path) does not apply.
  if (options_.recompute_locals) options_.use_trie = false;
  renumber_ = !options_.recompute_locals;
#ifdef PMBE_FORCE_BITMAP
  options_.bitmap_density = 0.0;
#endif
}

MbetEnumerator::Level& MbetEnumerator::LevelAt(size_t depth) {
  while (levels_.size() <= depth) {
    levels_.push_back(std::make_unique<Level>());
  }
  return *levels_[depth];
}

void MbetEnumerator::EnumerateAll(ResultSink* sink) {
  for (VertexId v = 0; v < graph_.num_right(); ++v) {
    if (Stopped(sink)) return;
    EnumerateSubtree(v, sink);
  }
  ctx_.Trim();  // release pooled scratch so trackers balance to zero
}

void MbetEnumerator::EmitBiclique(std::span<const VertexId> l,
                                  std::span<const VertexId> r,
                                  ResultSink* sink) {
  if (renumber_) {
    // Local ids are positions in the sorted root_.l0, so the translated
    // list is ascending without a sort.
    emit_l_.clear();
    emit_l_.reserve(l.size());
    for (VertexId x : l) emit_l_.push_back(root_.l0[x]);
    sink->Emit(emit_l_, r);
  } else {
    sink->Emit(l, r);
  }
  ++stats_.maximal;
}

void MbetEnumerator::EnumerateSubtree(VertexId v, ResultSink* sink) {
  if (Stopped(sink)) return;
  // Size filter: every biclique of this subtree has L ⊆ N(v).
  if (graph_.RightDegree(v) < options_.min_left) return;
  bool pruned = false;
  if (!builder_.Build(v, &root_, &root_absorbed_, &pruned)) {
    if (pruned) ++stats_.subtrees_pruned;
    return;
  }

  Level& lvl = LevelAt(0);
  local_universe_ = root_.l0.size();
  if (renumber_) {
    // Renumber this subtree's left vertices into [0, |L0|): position in
    // the sorted l0 is the local id, so sorted global locals map to
    // sorted local locals.
    if (local_id_.size() < graph_.num_left()) {
      local_id_.resize(graph_.num_left(), 0);
    }
    for (size_t i = 0; i < root_.l0.size(); ++i) {
      local_id_[root_.l0[i]] = static_cast<VertexId>(i);
    }
    lvl.l.resize(local_universe_);
    for (size_t i = 0; i < local_universe_; ++i) {
      lvl.l[i] = static_cast<VertexId>(i);
    }
  } else {
    lvl.l = root_.l0;
  }
  lvl.r.clear();
  lvl.r.push_back(v);
  lvl.r.insert(lvl.r.end(), root_absorbed_.begin(), root_absorbed_.end());
  std::sort(lvl.r.begin(), lvl.r.end());

  lvl.groups.clear();
  lvl.locs.clear();
  lvl.members.clear();
  for (const RootEntry& entry : root_.entries) {
    Group g;
    g.mem_off = static_cast<uint32_t>(lvl.members.size());
    g.mem_len = 1;
    lvl.members.push_back(entry.w);
    g.loc_off = static_cast<uint32_t>(lvl.locs.size());
    g.loc_len = entry.loc_len;
    uint64_t hash = 1469598103934665603ULL;
    for (VertexId x : root_.LocOf(entry)) {
      const VertexId id = renumber_ ? local_id_[x] : x;
      lvl.locs.push_back(id);
      hash = (hash ^ (id + 1ULL)) * 1099511628211ULL;
    }
    g.loc_hash = hash;
    g.forbidden = entry.forbidden;
    lvl.groups.push_back(g);
  }
  Aggregate(&lvl);
  if (options_.recompute_locals) lvl.locs.clear();
  lvl.trie_built = false;

  // The subtree root biclique (N(v), {v} ∪ absorbed) is maximal by
  // construction: domination by an earlier vertex was excluded by the
  // builder, and all dominating later vertices were absorbed.
  if (lvl.r.size() >= options_.min_right) {
    EmitBiclique(lvl.l, lvl.r, sink);
  }

  bool has_candidate = false;
  uint64_t r_upper = lvl.r.size();
  for (const Group& g : lvl.groups) {
    if (!g.forbidden) {
      has_candidate = true;
      r_upper += g.mem_len;
    }
  }
  if (!has_candidate) return;
  if (r_upper < options_.min_right) return;
  if (options_.best_edges != nullptr &&
      lvl.l.size() * r_upper <= *options_.best_edges) {
    return;
  }
  Recurse(0, sink);
  if (ctx_.peak_bytes() > stats_.arena_peak_bytes) {
    stats_.arena_peak_bytes = ctx_.peak_bytes();
  }
}

void MbetEnumerator::Aggregate(Level* lvl) {
  std::vector<Group>& groups = lvl->groups;
  const size_t n = groups.size();
  if (!options_.use_aggregation || n < 2) return;
  const std::vector<VertexId>& locs = lvl->locs;
  auto same_class = [&locs](const Group& a, const Group& b) {
    return a.loc_hash == b.loc_hash && a.forbidden == b.forbidden &&
           a.loc_len == b.loc_len &&
           std::equal(locs.begin() + a.loc_off,
                      locs.begin() + a.loc_off + a.loc_len,
                      locs.begin() + b.loc_off);
  };

  // Hash pass: an open-addressing table of group index + 1 (0 = empty)
  // with at least 2n slots. A hit is confirmed on the full local list, so
  // every equal pair merges and no unequal pair does. A group that matches
  // an earlier one is chained onto it right after the head.
  EnumContext::Frame frame(&ctx_);
  std::vector<VertexId>* slots = frame.AcquireIds();
  const int bits = std::bit_width(2 * n - 1);
  slots->assign(size_t{1} << bits, 0);
  const size_t mask = slots->size() - 1;
  for (uint32_t i = 0; i < n; ++i) {
    Group& g = groups[i];
    const uint64_t key = g.loc_hash ^ (g.forbidden ? ~0ULL : 0ULL);
    size_t s = (key * 0x9e3779b97f4a7c15ULL) >> (64 - bits);
    for (;; s = (s + 1) & mask) {
      uint32_t& slot = (*slots)[s];
      if (slot == 0) {
        slot = i + 1;
        break;
      }
      Group& head = groups[slot - 1];
      if (same_class(head, g)) {
        g.merged = true;
        g.next = head.next;
        head.next = i;
        break;
      }
    }
  }

  // Compaction: each merged class's members are written once into fresh
  // arena space (the old runs become dead space, reclaimed when the level
  // is rebuilt), smallest member first — traversal order keys on
  // members[mem_off]. Groups keep their first-occurrence order.
  std::vector<VertexId>& members = lvl->members;
  size_t out = 0;
  for (size_t i = 0; i < n; ++i) {
    Group g = groups[i];
    if (g.merged) continue;
    if (g.next != kNoGroup) {
      const uint32_t merged_off = static_cast<uint32_t>(members.size());
      uint32_t total = 0;
      VertexId min_member = members[g.mem_off];
      size_t min_pos = merged_off;
      uint32_t min_len = g.mem_len;
      for (uint32_t k = static_cast<uint32_t>(i); k != kNoGroup;
           k = groups[k].next) {
        const Group& m = groups[k];
        // Every member list is min-first, so its head is its minimum.
        if (members[m.mem_off] < min_member) {
          min_member = members[m.mem_off];
          min_pos = members.size();
          min_len = m.mem_len;
        }
        // Append by index: the source run lives in the same vector.
        for (uint32_t x = 0; x < m.mem_len; ++x) {
          members.push_back(members[m.mem_off + x]);
        }
        total += m.mem_len;
      }
      std::swap(members[merged_off], members[min_pos]);
      // Counted as the vertices that joined the group holding the minimum.
      stats_.vertices_aggregated += total - min_len;
      g.mem_off = merged_off;
      g.mem_len = total;
      g.next = kNoGroup;
    }
    groups[out++] = g;
  }
  groups.resize(out);
}

void MbetEnumerator::Classify(Level& lvl) {
  const size_t n = lvl.groups.size();
  lvl.counts.resize(n);
  if (lvl.trie_built) {
    // One pass over the prefix tree classifies every group; shared
    // prefixes are probed once.
    stats_.trie_probes += lvl.trie.ClassifyAll(lp_mask_, &lvl.counts);
    stats_.local_scan_size += lvl.trie.total_list_length();
    return;
  }
  if (options_.recompute_locals) {
    // MBETM: no stored locals; count against the full adjacency of a
    // representative member (all members share the same local).
    for (size_t h = 0; h < n; ++h) {
      auto nbrs = graph_.RightNeighbors(lvl.members[lvl.groups[h].mem_off]);
      lvl.counts[h] =
          static_cast<uint32_t>(IntersectSizeWithMask(nbrs, lp_mask_));
      stats_.trie_probes += nbrs.size();
      stats_.local_scan_size += nbrs.size();
    }
    return;
  }
  if (lvl.words_built) {
    // Dense node: one AND+popcount per group over the fixed-width local
    // bitmaps. Probe accounting stays logical (|loc| per group, like the
    // direct scan) so the trie-vs-direct probe-ratio metric keeps its
    // meaning across representations; bitmap_kernel_calls records the
    // physical kernel used.
    const size_t words = lvl.words_per_group;
    const std::span<const uint64_t> lp(*lvl.lp_words);
    for (size_t h = 0; h < n; ++h) {
      const Group& g = lvl.groups[h];
      const std::span<const uint64_t> loc(lvl.loc_words->data() + h * words,
                                          words);
      lvl.counts[h] = static_cast<uint32_t>(IntersectSize(loc, lp));
      stats_.trie_probes += g.loc_len;
      stats_.local_scan_size += g.loc_len;
    }
    stats_.bitmap_kernel_calls += n;
    return;
  }
  // Direct per-group scan over stored locals (trie ablated). Pull the
  // next group's loc run toward L1 while the mask kernel chews on the
  // current one; the runs live in one arena but groups are visited in
  // aggregation order, so the hardware streamer does not cover the hops.
  for (size_t h = 0; h < n; ++h) {
    const Group& g = lvl.groups[h];
    if (h + 1 < n) {
      __builtin_prefetch(lvl.locs.data() + lvl.groups[h + 1].loc_off);
    }
    lvl.counts[h] =
        static_cast<uint32_t>(IntersectSizeWithMask(lvl.LocOf(g), lp_mask_));
    stats_.trie_probes += g.loc_len;
    stats_.local_scan_size += g.loc_len;
  }
}

MbetEnumerator::Level& MbetEnumerator::BuildChild(
    size_t depth, uint32_t traversed, std::vector<VertexId>* absorbed_members) {
  Level& lvl = *levels_[depth];
  Level& child = LevelAt(depth + 1);
  const uint32_t lp_size = static_cast<uint32_t>(child.l.size());

  absorbed_members->clear();
  child.groups.clear();
  child.locs.clear();
  child.members.clear();
  for (size_t h = 0; h < lvl.groups.size(); ++h) {
    if (h == traversed) continue;
    const Group& g = lvl.groups[h];
    const uint32_t count = lvl.counts[h];
    if (!g.forbidden && count == lp_size) {
      // Dominates L': belongs in R' of the child.
      ++stats_.candidates_absorbed;
      auto mem = lvl.MembersOf(g);
      absorbed_members->insert(absorbed_members->end(), mem.begin(), mem.end());
      continue;
    }
    if (count == 0) {
      if (!g.forbidden) {
        ++stats_.candidates_dropped;
        continue;
      }
      if (options_.prune_q) continue;
      // Ablation mode: keep dead Q groups alive (loc becomes empty).
    }
    Group c;
    c.forbidden = g.forbidden;
    c.mem_off = static_cast<uint32_t>(child.members.size());
    c.mem_len = g.mem_len;
    {
      auto mem = lvl.MembersOf(g);
      child.members.insert(child.members.end(), mem.begin(), mem.end());
    }
    c.loc_off = static_cast<uint32_t>(child.locs.size());
    c.loc_len = count;
    if (count > 0) {
      // Materialize loc ∩ L' straight into the child's arena, hashing on
      // the way.
      uint64_t hash = 1469598103934665603ULL;
      auto emit = [&](VertexId x) {
        child.locs.push_back(x);
        hash = (hash ^ (x + 1ULL)) * 1099511628211ULL;
      };
      if (options_.recompute_locals) {
        for (VertexId x : graph_.RightNeighbors(lvl.members[g.mem_off])) {
          if (lp_mask_.Test(x)) emit(x);
        }
      } else {
        for (VertexId x : lvl.LocOf(g)) {
          if (lp_mask_.Test(x)) emit(x);
        }
      }
      c.loc_hash = hash;
      PMBE_DCHECK(child.locs.size() - c.loc_off == count);
    }
    child.groups.push_back(c);
  }
  Aggregate(&child);
  if (options_.recompute_locals) child.locs.clear();
  child.trie_built = false;

  // R' = R ∪ traversed members ∪ absorbed. R is sorted along the whole
  // path; sort only the (small) additions and merge.
  {
    auto mem = lvl.MembersOf(lvl.groups[traversed]);
    absorbed_members->insert(absorbed_members->end(), mem.begin(), mem.end());
    std::sort(absorbed_members->begin(), absorbed_members->end());
    child.r.clear();
    child.r.reserve(lvl.r.size() + absorbed_members->size());
    std::merge(lvl.r.begin(), lvl.r.end(), absorbed_members->begin(),
               absorbed_members->end(), std::back_inserter(child.r));
  }
  return child;
}

uint64_t MbetEnumerator::LevelBytes(const Level& lvl) {
  uint64_t bytes = sizeof(Level);
  bytes += lvl.groups.size() * sizeof(Group);
  bytes += (lvl.locs.size() + lvl.members.size()) * sizeof(VertexId);
  bytes += (lvl.l.size() + lvl.r.size()) * sizeof(VertexId);
  bytes += lvl.counts.size() * sizeof(uint32_t);
  bytes += lvl.order.size() * sizeof(uint32_t);
  bytes += lvl.trie.MemoryBytes();
  return bytes;
}

void MbetEnumerator::Recurse(size_t depth, ResultSink* sink) {
  EnumContext::Frame frame(&ctx_);
  Level& lvl = *levels_[depth];
  ++stats_.nodes_expanded;

  // Adaptive trie: each candidate traversal runs one classification pass,
  // so the build only pays off on nodes wide enough to amortize it.
  if (options_.use_trie && !lvl.trie_built) {
    uint32_t cand_groups = 0;
    for (const Group& g : lvl.groups) cand_groups += g.forbidden ? 0 : 1;
    if (cand_groups >= options_.trie_min_groups) {
      // "trie.build" models the trie arena failing to allocate.
      if (PMBE_FAULT("trie.build")) util::CurrentMemoryBudget().ForceExhaust();
      if (util::CurrentMemoryBudget().UnderPressure() ||
          util::CurrentMemoryBudget().exhausted()) {
        // Degrade: classification falls back to per-candidate scans —
        // slower, identical results, no trie arena.
        util::CurrentMemoryBudget().NoteDegradation();
      } else {
        lvl.lists.clear();
        lvl.lists.reserve(lvl.groups.size());
        for (const Group& g : lvl.groups) lvl.lists.push_back(lvl.LocOf(g));
        lvl.trie.BuildUnordered(lvl.lists);
        lvl.trie_built = true;
      }
    }
  }

  // Adaptive bitmaps (docs/SET_REPRESENTATION.md): on nodes the trie does
  // not take, dense-enough locals are materialized once into fixed-width
  // bitmaps over the local universe, turning every classification pass at
  // this node into AND+popcount kernels.
  lvl.words_built = false;
  lvl.loc_words = nullptr;
  lvl.lp_words = nullptr;
  if (!lvl.trie_built && renumber_ && !lvl.groups.empty() &&
      options_.bitmap_density <= 1.0) {
    uint64_t total_loc = 0;
    for (const Group& g : lvl.groups) total_loc += g.loc_len;
    if (static_cast<double>(total_loc) >=
        options_.bitmap_density * static_cast<double>(local_universe_) *
            static_cast<double>(lvl.groups.size())) {
      // "bitmap.build" models the word arrays failing to allocate.
      if (PMBE_FAULT("bitmap.build")) util::CurrentMemoryBudget().ForceExhaust();
      if (util::CurrentMemoryBudget().UnderPressure() ||
          util::CurrentMemoryBudget().exhausted()) {
        // Degrade: stay on sorted lists — slower kernels, same results.
        util::CurrentMemoryBudget().NoteDegradation();
      } else {
        const size_t words = util::WordsFor(local_universe_);
        lvl.loc_words = frame.AcquireWords();
        lvl.lp_words = frame.AcquireWords();
        lvl.loc_words->assign(words * lvl.groups.size(), 0);
        lvl.lp_words->assign(words, 0);
        for (size_t h = 0; h < lvl.groups.size(); ++h) {
          util::SetBits(lvl.LocOf(lvl.groups[h]),
                        std::span<uint64_t>(lvl.loc_words->data() + h * words,
                                            words));
        }
        lvl.words_per_group = words;
        lvl.words_built = true;
        stats_.bitmap_conversions += lvl.groups.size();
      }
    }
  }

  // Charge this node's level state (groups, locals, trie) to both the
  // tracker and the hard memory budget for the duration of its subtree.
  // RAII: an exception unwinding through the subtree (throwing sink,
  // injected fault) must return the charge too.
  const util::ScopedCharge node_charge(util::CurrentMemoryBudget(),
                                       options_.memory, LevelBytes(lvl));

  // Candidate traversal order: ascending local size (small locals first is
  // the classic choice: their subtrees are shallow and they turn into
  // strong Q witnesses early), ties by smallest member id.
  lvl.order.clear();
  for (size_t i = 0; i < lvl.groups.size(); ++i) {
    if (!lvl.groups[i].forbidden) lvl.order.push_back(static_cast<uint32_t>(i));
  }
  std::sort(lvl.order.begin(), lvl.order.end(), [&](uint32_t a, uint32_t b) {
    const Group& ga = lvl.groups[a];
    const Group& gb = lvl.groups[b];
    if (ga.loc_len != gb.loc_len) return ga.loc_len < gb.loc_len;
    return lvl.members[ga.mem_off] < lvl.members[gb.mem_off];
  });

  std::vector<VertexId>* absorbed_members = frame.AcquireIds();

  for (uint32_t idx : lvl.order) {
    if (Stopped(sink)) break;
    Group& g = lvl.groups[idx];
    const uint32_t lp_size = g.loc_len;
    if (lp_size < options_.min_left) {
      // Every biclique under g has L ⊆ loc(g), all too small. Skip the
      // expansion but keep g as a Q witness for its siblings.
      g.forbidden = true;
      continue;
    }

    // Materialize L' into the child slot.
    Level& child = LevelAt(depth + 1);
    if (options_.recompute_locals) {
      lp_mask_.Set(lvl.l);
      IntersectWithMask(graph_.RightNeighbors(lvl.members[g.mem_off]),
                        lp_mask_, &child.l);
      lp_mask_.Clear(lvl.l);
      PMBE_DCHECK(child.l.size() == lp_size);
    } else {
      auto loc = lvl.LocOf(g);
      child.l.assign(loc.begin(), loc.end());
    }

    lp_mask_.Set(child.l);
    if (lvl.words_built) {
      util::ClearWords(*lvl.lp_words);
      util::SetBits(child.l, *lvl.lp_words);
    }
    Classify(lvl);

    // Maximality (node) check: a forbidden group dominating L' witnesses
    // that this child's bicliques are enumerated elsewhere.
    bool witness = false;
    for (size_t h = 0; h < lvl.groups.size(); ++h) {
      if (lvl.groups[h].forbidden && lvl.counts[h] == lp_size) {
        witness = true;
        break;
      }
    }
    if (witness) {
      ++stats_.non_maximal;
      lp_mask_.Clear(child.l);
      g.forbidden = true;  // acts as Q for the remaining siblings
      continue;
    }

    BuildChild(depth, idx, absorbed_members);
    lp_mask_.Clear(child.l);

    if (child.r.size() >= options_.min_right) {
      EmitBiclique(child.l, child.r, sink);
    }

    bool has_candidate = false;
    uint64_t r_upper = child.r.size();
    for (const Group& cg : child.groups) {
      if (!cg.forbidden) {
        has_candidate = true;
        r_upper += cg.mem_len;
      }
    }
    const bool r_reachable = r_upper >= options_.min_right;
    const bool bound_ok =
        options_.best_edges == nullptr ||
        child.l.size() * r_upper > *options_.best_edges;
    if (has_candidate && r_reachable && bound_ok) Recurse(depth + 1, sink);

    g.forbidden = true;
  }

}

}  // namespace mbe
