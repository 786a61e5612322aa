// Social recommendation: find "taste groups" — user cohorts that all like
// the same item set — in a user x item interaction graph, then use the
// groups for simple item recommendation: for a target user, look at the
// largest taste groups they belong to and recommend the items liked by
// adjacent groups.
//
// Demonstrates the streaming (callback) API: taste groups are consumed as
// they are enumerated without materializing the full result set.

#include <algorithm>
#include <cstdio>
#include <map>
#include <set>
#include <vector>

#include "api/mbe.h"
#include "gen/generators.h"

int main() {
  // 3000 users x 800 items with mild power-law popularity.
  mbe::BipartiteGraph graph =
      mbe::gen::PowerLaw(3000, 800, 24000, 0.7, 0.8, 31);
  std::printf("interaction graph: %s\n", graph.Summary().c_str());

  // Collect taste groups (>= 3 users, >= 3 items) indexed per user.
  struct Group {
    std::vector<mbe::VertexId> users;
    std::vector<mbe::VertexId> items;
  };
  std::vector<Group> groups;
  mbe::CallbackSink sink([&](std::span<const mbe::VertexId> users,
                             std::span<const mbe::VertexId> items) {
    if (users.size() >= 3 && items.size() >= 3) {
      groups.push_back(Group{{users.begin(), users.end()},
                             {items.begin(), items.end()}});
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
  std::printf("%llu bicliques in %.1fms; %zu taste groups (>=3x3)\n",
              static_cast<unsigned long long>(run.stats.maximal),
              run.seconds * 1e3, groups.size());
  if (groups.empty()) return 1;

  // Index groups by user.
  std::map<mbe::VertexId, std::vector<size_t>> by_user;
  for (size_t g = 0; g < groups.size(); ++g) {
    for (mbe::VertexId u : groups[g].users) by_user[u].push_back(g);
  }

  // Recommend for the user belonging to the most groups.
  mbe::VertexId target = by_user.begin()->first;
  for (const auto& [user, gs] : by_user) {
    if (gs.size() > by_user[target].size()) target = user;
  }
  auto liked = graph.LeftNeighbors(target);
  std::set<mbe::VertexId> already(liked.begin(), liked.end());

  // Score unseen items by (a) the target's own groups and (b) groups of
  // the target's peers — users sharing a group with the target — weighted
  // by how often they co-occur. Peer expansion is linear in the peers'
  // group lists, not quadratic in the group count.
  std::map<mbe::VertexId, size_t> peers;  // user -> shared-group count
  std::map<mbe::VertexId, size_t> score;
  for (size_t g : by_user[target]) {
    for (mbe::VertexId item : groups[g].items) {
      if (!already.count(item)) score[item] += 2;  // direct evidence
    }
    for (mbe::VertexId u : groups[g].users) {
      if (u != target) ++peers[u];
    }
  }
  // Strongest peers only, to keep the walk cheap and the signal clean.
  std::vector<std::pair<size_t, mbe::VertexId>> top_peers;
  for (const auto& [u, shared] : peers) {
    if (shared >= 2) top_peers.emplace_back(shared, u);
  }
  std::sort(top_peers.rbegin(), top_peers.rend());
  if (top_peers.size() > 20) top_peers.resize(20);
  for (const auto& [shared, peer] : top_peers) {
    for (size_t g : by_user[peer]) {
      for (mbe::VertexId item : groups[g].items) {
        if (!already.count(item)) score[item] += 1;
      }
    }
  }

  std::printf("user %u: member of %zu taste groups, %zu liked items\n",
              target, by_user[target].size(), already.size());
  std::vector<std::pair<size_t, mbe::VertexId>> ranked;
  for (const auto& [item, s] : score) ranked.emplace_back(s, item);
  std::sort(ranked.rbegin(), ranked.rend());
  std::printf("top recommendations:\n");
  for (size_t i = 0; i < std::min<size_t>(5, ranked.size()); ++i) {
    std::printf("  item %u (score %zu)\n", ranked[i].second, ranked[i].first);
  }
  return 0;
}
