#include "net/topology.hpp"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <ostream>
#include <stdexcept>
#include <string_view>

#include "net/network_params.hpp"

namespace cci::net {

const char* to_string(LinkClass c) {
  switch (c) {
    case LinkClass::kUp: return "up";
    case LinkClass::kDown: return "down";
    case LinkClass::kLocal: return "local";
    case LinkClass::kGlobal: return "global";
  }
  return "?";
}

const char* to_string(RoutingPolicy p) {
  return p == RoutingPolicy::kMinimal ? "minimal" : "adaptive";
}

Topology Topology::single_switch(double oversubscription) {
  if (oversubscription <= 0.0)
    throw std::invalid_argument("Topology::single_switch: oversubscription must be > 0");
  Topology t;
  t.kind_ = Kind::kSingleSwitch;
  t.oversubscription_ = oversubscription;
  t.switch_count_ = 1;
  t.max_hosts_ = 0;  // any node count: the crossbar scales with it
  t.group_count_ = 1;
  return t;
}

Topology Topology::fat_tree(int k, double oversubscription) {
  if (k < 2 || k % 2 != 0)
    throw std::invalid_argument("Topology::fat_tree: k must be even and >= 2");
  if (oversubscription <= 0.0)
    throw std::invalid_argument("Topology::fat_tree: oversubscription must be > 0");
  Topology t;
  t.kind_ = Kind::kFatTree;
  t.oversubscription_ = oversubscription;
  t.k_ = k;
  const int leaves = k;
  const int spines = k / 2;
  t.switch_count_ = leaves + spines;  // switches [0, k) are leaves, then spines
  t.max_hosts_ = leaves * (k / 2);
  t.group_count_ = leaves;  // PDES carve unit: one leaf + its hosts
  t.links_.reserve(static_cast<std::size_t>(leaves) * spines * 2);
  // Deterministic order: for each leaf, its uplinks then nothing else; the
  // down direction follows immediately so a (leaf, spine) pair's resources
  // are adjacent.
  for (int l = 0; l < leaves; ++l) {
    for (int s = 0; s < spines; ++s) {
      t.links_.push_back({l, leaves + s, LinkClass::kUp, oversubscription});
      t.links_.push_back({leaves + s, l, LinkClass::kDown, oversubscription});
    }
  }
  return t;
}

Topology Topology::dragonfly(int groups, int routers, int hosts) {
  if (groups < 1 || routers < 1 || hosts < 1)
    throw std::invalid_argument("Topology::dragonfly: groups/routers/hosts must be >= 1");
  Topology t;
  t.kind_ = Kind::kDragonfly;
  t.groups_ = groups;
  t.routers_ = routers;
  t.hosts_ = hosts;
  t.switch_count_ = groups * routers;  // switch id = g * routers + r
  t.max_hosts_ = groups * routers * hosts;
  t.group_count_ = groups;
  // Intra-group full mesh, both directions, group-major then (r1, r2).
  for (int g = 0; g < groups; ++g)
    for (int r1 = 0; r1 < routers; ++r1)
      for (int r2 = 0; r2 < routers; ++r2) {
        if (r1 == r2) continue;
        t.links_.push_back(
            {g * routers + r1, g * routers + r2, LinkClass::kLocal, 1.0});
      }
  // One global link per ordered group pair, attached at deterministic
  // gateway routers.
  for (int g = 0; g < groups; ++g)
    for (int h = 0; h < groups; ++h) {
      if (g == h) continue;
      t.links_.push_back({t.gateway_out(g, h), t.gateway_in(g, h), LinkClass::kGlobal, 1.0});
    }
  return t;
}

std::string Topology::switch_name(int s) const {
  char buf[kMaxSwitchName];
  return std::string(buf, format_switch_name(s, buf));
}

char* Topology::format_switch_name(int s, char* out) const {
  char* const end = out + kMaxSwitchName;
  const auto put = [&out](std::string_view text) {
    out = std::copy(text.begin(), text.end(), out);
  };
  const auto num = [&out, end](int v) { out = std::to_chars(out, end, v).ptr; };
  switch (kind_) {
    case Kind::kSingleSwitch:
      put("switch");
      break;
    case Kind::kFatTree:
      put(s < k_ ? "leaf" : "spine");
      num(s < k_ ? s : s - k_);
      break;
    case Kind::kDragonfly:
      put("g");
      num(s / routers_);
      put(".r");
      num(s % routers_);
      break;
  }
  return out;
}

int Topology::group_of_switch(int s) const {
  switch (kind_) {
    case Kind::kSingleSwitch:
      return 0;
    case Kind::kFatTree:
      return s < k_ ? s : -1;  // spines are shared by every group
    case Kind::kDragonfly:
      return s / routers_;
  }
  return 0;
}

double Topology::min_remote_delay(const NetworkParams& net) const {
  if (group_count_ <= 1) return net.min_remote_delay();
  // Cheapest link class that can cross a group boundary.
  double scale = 1.0;
  switch (kind_) {
    case Kind::kFatTree:
      // leaf -> spine -> leaf: two fabric hops, each at base latency.
      scale = latency_scale(LinkClass::kUp);
      break;
    case Kind::kDragonfly:
      scale = latency_scale(LinkClass::kGlobal);
      break;
    case Kind::kSingleSwitch:
      break;
  }
  return net.min_remote_delay() * scale;
}

sim::GroupGraph Topology::group_graph(int nodes) const {
  sim::GroupGraph graph;
  graph.groups = group_count_;
  graph.load.assign(static_cast<std::size_t>(group_count_), 0.0);
  for (int n = 0; n < nodes; ++n) {
    const int g = group_of_node(n);
    if (g >= 0) graph.load[static_cast<std::size_t>(g)] += 1.0;
  }
  if (group_count_ <= 1) return graph;
  const std::size_t G = static_cast<std::size_t>(group_count_);
  std::vector<double> pair_cap(G * G, 0.0);
  double shared_cap = 0.0;  ///< capacity into/out of group-less switches
  for (const Link& l : links_) {
    const int ga = group_of_switch(l.src);
    const int gb = group_of_switch(l.dst);
    if (ga >= 0 && gb >= 0) {
      if (ga == gb) continue;
      const std::size_t lo = static_cast<std::size_t>(std::min(ga, gb));
      const std::size_t hi = static_cast<std::size_t>(std::max(ga, gb));
      pair_cap[lo * G + hi] += l.bw_scale;
    } else {
      shared_cap += l.bw_scale;
    }
  }
  // Shared-switch capacity couples every pair uniformly (half of it is the
  // return direction, but a uniform clique only needs relative weights).
  const double pairs = static_cast<double>(G) * static_cast<double>(G - 1) / 2.0;
  const double share = pairs > 0.0 ? shared_cap / pairs : 0.0;
  for (std::size_t a = 0; a < G; ++a)
    for (std::size_t b = a + 1; b < G; ++b) {
      const double cap = pair_cap[a * G + b] + share;
      if (cap > 0.0)
        graph.edges.push_back(
            {static_cast<int>(a), static_cast<int>(b), cap});
    }
  return graph;
}

std::vector<int> Topology::cut_links(const std::vector<int>& group_shard) const {
  std::vector<int> cut;
  bool multi = false;
  for (std::size_t g = 1; g < group_shard.size(); ++g)
    if (group_shard[g] != group_shard[0]) multi = true;
  if (!multi) return cut;
  auto shard_of = [&](int group) {
    return group >= 0 && group < static_cast<int>(group_shard.size())
               ? group_shard[static_cast<std::size_t>(group)]
               : -1;
  };
  for (std::size_t li = 0; li < links_.size(); ++li) {
    const int ga = group_of_switch(links_[li].src);
    const int gb = group_of_switch(links_[li].dst);
    // A group-less endpoint (fat-tree spine) is shared fabric: its links
    // are boundary links whenever the carve is non-trivial.
    if (ga < 0 || gb < 0 || shard_of(ga) != shard_of(gb))
      cut.push_back(static_cast<int>(li));
  }
  return cut;
}

double Topology::min_cut_delay(const NetworkParams& net,
                               const std::vector<int>& cut) const {
  if (cut.empty()) return min_remote_delay(net);
  double scale = latency_scale(LinkClass::kGlobal);
  for (int li : cut)
    scale = std::min(scale, latency_scale(links_[static_cast<std::size_t>(li)].cls));
  return net.min_remote_delay() * scale;
}

void Topology::serialize(std::ostream& os) const {
  auto put_d = [&os](const char* key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    os << key << '=' << buf << ';';
  };
  os << "t.kind=" << static_cast<int>(kind_) << ';';
  os << "t.routing=" << to_string(routing_) << ';';
  put_d("t.threshold", adaptive_threshold_);
  put_d("t.oversub", oversubscription_);
  os << "t.k=" << k_ << ';';
  os << "t.groups=" << groups_ << ';';
  os << "t.routers=" << routers_ << ';';
  os << "t.hosts=" << hosts_ << ';';
}

}  // namespace cci::net
