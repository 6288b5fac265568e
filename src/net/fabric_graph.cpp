#include "net/fabric_graph.hpp"

#include <algorithm>
#include <charconv>
#include <stdexcept>
#include <string>

#include "sim/flow_model.hpp"
#include "sim/resource.hpp"

namespace cci::net {

FabricGraph::FabricGraph(const Topology& topo, const NetworkParams& net, int nodes)
    : topo_(topo), nodes_(nodes), switch_count_(topo.switch_count()) {
  if (nodes < 1) throw std::invalid_argument("FabricGraph: nodes must be >= 1");
  if (topo.max_hosts() > 0 && nodes > topo.max_hosts())
    throw std::invalid_argument("FabricGraph: topology attaches at most " +
                                std::to_string(topo.max_hosts()) + " hosts, got " +
                                std::to_string(nodes));
  const int S = switch_count_;
  const auto& links = topo_.links();
  link_at_.assign(static_cast<std::size_t>(S) * static_cast<std::size_t>(S), -1);
  for (std::size_t li = 0; li < links.size(); ++li)
    link_at_[static_cast<std::size_t>(links[li].src) * static_cast<std::size_t>(S) +
             static_cast<std::size_t>(links[li].dst)] = static_cast<int>(li);

  // Base capacities in key order: tx ports, rx ports, switch crossbars,
  // links.
  base_cap_.reserve(static_cast<std::size_t>(key_count()));
  base_cap_.assign(2 * static_cast<std::size_t>(nodes_), net.wire_bw);
  if (topo_.kind() == Topology::Kind::kSingleSwitch) {
    // The historical fabric: one crossbar scaled by the node count.
    base_cap_.push_back(net.wire_bw * static_cast<double>(nodes_) *
                        topo_.oversubscription());
  } else {
    // Crossbars are internally non-blocking: capacity is the hosts actually
    // attached (the built cluster, not the topology's maximum) plus the
    // ingress link capacity; congestion lives on ports and links.
    std::vector<int> hosts_at(static_cast<std::size_t>(S), 0);
    for (int n = 0; n < nodes_; ++n)
      ++hosts_at[static_cast<std::size_t>(topo_.host_switch(n))];
    std::vector<double> ingress(static_cast<std::size_t>(S), 0.0);
    for (const Topology::Link& l : links)
      ingress[static_cast<std::size_t>(l.dst)] += l.bw_scale;
    for (int s = 0; s < S; ++s) {
      const double ports = static_cast<double>(hosts_at[static_cast<std::size_t>(s)]) +
                           ingress[static_cast<std::size_t>(s)];
      base_cap_.push_back(net.wire_bw * std::max(ports, 1.0));
    }
  }
  for (const Topology::Link& l : links) base_cap_.push_back(net.wire_bw * l.bw_scale);
  res_.assign(static_cast<std::size_t>(key_count()), nullptr);
}

std::string FabricGraph::name(int key) const {
  // Formatted into one buffer: "link." + two switch names + '-' fits.
  char buf[8 + 2 * Topology::kMaxSwitchName];
  char* out = buf;
  const auto put = [&out](std::string_view text) {
    out = std::copy(text.begin(), text.end(), out);
  };
  if (key < 2 * nodes_) {
    put("node");
    out = std::to_chars(out, buf + sizeof buf, key % nodes_).ptr;
    put(key < nodes_ ? ".tx" : ".rx");
  } else if (key < link_key(0)) {
    if (topo_.kind() == Topology::Kind::kSingleSwitch) {
      put("switch");
    } else {
      put("switch.");
      out = topo_.format_switch_name(key - xbar_key(0), out);
    }
  } else {
    const Topology::Link& l = topo_.links()[static_cast<std::size_t>(key - link_key(0))];
    put("link.");
    out = topo_.format_switch_name(l.src, out);
    put("-");
    out = topo_.format_switch_name(l.dst, out);
  }
  return std::string(buf, out);
}

void FabricGraph::materialize(sim::FlowModel& model, int key) {
  res_[static_cast<std::size_t>(key)] =
      model.add_resource(*this, static_cast<std::uint32_t>(key), base_capacity(key));
}

sim::Resource* FabricGraph::find(std::string_view name) const {
  for (sim::Resource* r : switch_resources())
    if (r->name() == name) return r;
  return nullptr;
}

void FabricGraph::minimal_path(int src, int dst, std::vector<int>& keys) const {
  route(src, dst, minimal_via(src, dst), [&keys](int key) { keys.push_back(key); });
}

}  // namespace cci::net
