// Replayed max-min solves must be bitwise the full progressive filling.
//
// Two MaxMinSolvers receive the same seeded sequence of add_flow /
// remove_flow / set_capacity / solve.  The twin calls mark_all_dirty()
// before each solve, which drops every trace, so it always fills in full;
// the other replays its traces wherever it can.  After every solve the two
// must agree bit for bit on every rate, load and pressure, on the
// changed-flow list and on the drained load changes (a set: the drain does
// not promise an order).  On single-component sequences the changed-flow
// lists must also agree in order, and a solve of that component must
// advance the flow and resource visit counters by the same amounts.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "sim/maxmin.hpp"
#include "sim/rng.hpp"

namespace cci::sim {
namespace {

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

struct LiveFlow {
  MaxMinSolver::FlowId id;
  MaxMinFlow flow;
};

class Twins {
 public:
  /// `single_component`: every flow shares one component, so the twin's
  /// changed-flow order, and its visit counters after a solve that covers
  /// that component, are comparable exactly.
  explicit Twins(bool single_component) : single_(single_component) {}

  std::size_t add_resource(double capacity) {
    const std::size_t r = replay_.add_resource(capacity);
    EXPECT_EQ(full_.add_resource(capacity), r);
    return r;
  }
  MaxMinSolver::FlowId add_flow(const MaxMinFlow& flow) {
    const MaxMinSolver::FlowId id = replay_.add_flow(flow.weight, flow.rate_cap, flow.entries);
    EXPECT_EQ(full_.add_flow(flow.weight, flow.rate_cap, flow.entries), id);
    live_.push_back({id, flow});
    return id;
  }
  void remove(std::size_t i) {
    replay_.remove_flow(live_[i].id);
    full_.remove_flow(live_[i].id);
    live_.erase(live_.begin() + static_cast<std::ptrdiff_t>(i));
  }
  void set_capacity(std::size_t r, double capacity) {
    replay_.set_capacity(r, capacity);
    full_.set_capacity(r, capacity);
  }

  /// Solve both and compare everything the solver publishes.
  void solve_and_compare() {
    const MaxMinSolver::Stats a0 = replay_.stats();
    const MaxMinSolver::Stats b0 = full_.stats();
    full_.mark_all_dirty();
    replay_.solve();
    full_.solve();
    ++solves_;
    const std::string at = "solve " + std::to_string(solves_);
    for (const LiveFlow& lf : live_)
      ASSERT_EQ(bits(replay_.rate(lf.id)), bits(full_.rate(lf.id)))
          << at << " flow " << lf.id << ": " << replay_.rate(lf.id) << " vs "
          << full_.rate(lf.id);
    for (std::size_t r = 0; r < replay_.resource_count(); ++r) {
      ASSERT_EQ(bits(replay_.load(r)), bits(full_.load(r)))
          << at << " load " << r << ": " << replay_.load(r) << " vs " << full_.load(r);
      ASSERT_EQ(bits(replay_.pressure(r)), bits(full_.pressure(r)))
          << at << " pressure " << r << ": " << replay_.pressure(r) << " vs "
          << full_.pressure(r);
    }
    std::vector<MaxMinSolver::FlowId> ca = replay_.changed_flows();
    std::vector<MaxMinSolver::FlowId> cb = full_.changed_flows();
    if (single_) {
      ASSERT_EQ(ca, cb) << at;
    }
    std::sort(ca.begin(), ca.end());
    std::sort(cb.begin(), cb.end());
    ASSERT_EQ(ca, cb) << at;
    ASSERT_EQ(drain(replay_), drain(full_)) << at;
    // Visits are comparable when this solve covered every live flow: the
    // twin also fills the clean flowless components, which add none.
    if (single_ && replay_.stats().full_solves > a0.full_solves) {
      ASSERT_EQ(replay_.stats().flow_visits - a0.flow_visits,
                full_.stats().flow_visits - b0.flow_visits)
          << at;
      ASSERT_EQ(replay_.stats().resource_visits - a0.resource_visits,
                full_.stats().resource_visits - b0.resource_visits)
          << at;
    }
  }

  /// Component solves the replaying solver served without a full filling.
  [[nodiscard]] std::uint64_t replays() const {
    return replay_.stats().components_solved - replay_.stats().components_filled;
  }
  [[nodiscard]] const MaxMinSolver& replaying() const { return replay_; }
  [[nodiscard]] std::vector<LiveFlow>& live() { return live_; }

 private:
  static std::vector<std::size_t> drain(MaxMinSolver& s) {
    std::vector<std::size_t> out;
    s.drain_load_changes([&out](std::size_t r) { out.push_back(r); });
    std::sort(out.begin(), out.end());
    return out;
  }

  bool single_;
  MaxMinSolver replay_;
  MaxMinSolver full_;
  std::vector<LiveFlow> live_;
  int solves_ = 0;
};

class MaxMinReplay : public ::testing::TestWithParam<std::uint64_t> {};

// ---- rings over a shared chain of links -------------------------------------
//
// Ring tenants over the nodes of a line: every node sends to the node one
// or two hops on, each message a flow over its source's tx port, the chain
// links between and the destination's rx port.  A message completes and
// its sender sends the next, so flows churn while equal port and link
// capacities keep each round's lambda where it was; a change moves the
// freeze round of a few flows.  A zero-demand entry on a monitor resource
// keeps every flow in one component.

TEST_P(MaxMinReplay, RingsOverASharedChainOfLinks) {
  Rng rng(GetParam());
  Twins tw(/*single_component=*/true);
  const std::size_t n = 6 + rng.below(10);
  const std::size_t monitor = tw.add_resource(1.0);
  std::vector<std::size_t> tx, rx, link;
  for (std::size_t i = 0; i < n; ++i) {
    tx.push_back(tw.add_resource(10.0));
    rx.push_back(tw.add_resource(10.0));
  }
  for (std::size_t i = 0; i + 1 < n; ++i)
    link.push_back(tw.add_resource(rng.below(3) == 0 ? 10.0 : 25.0));
  const auto message = [&](std::size_t src, std::size_t stride) {
    const std::size_t dst = (src + stride) % n;
    MaxMinFlow f;
    f.weight = stride == 1 ? 1.0 : 2.0;
    f.rate_cap = src % 5 == 4 ? 4.0 : 0.0;
    f.entries.push_back({tx[src], 1.0});
    for (std::size_t l = std::min(src, dst); l < std::max(src, dst); ++l)
      f.entries.push_back({link[l], 1.0});
    f.entries.push_back({rx[dst], 1.0});
    f.entries.push_back({monitor, 0.0});
    return f;
  };
  for (std::size_t stride = 1; stride <= 2; ++stride)
    for (std::size_t src = 0; src < n; ++src)
      if (stride == 1 || src % 3 == 0) tw.add_flow(message(src, stride));
  tw.solve_and_compare();
  int solves = 0;
  for (int step = 0; step < 300; ++step) {
    const double u = rng.uniform();
    if (u < 0.85) {
      // A message completes and its sender sends the next.
      const std::size_t i = rng.below(tw.live().size());
      const MaxMinFlow next = tw.live()[i].flow;
      tw.remove(i);
      tw.add_flow(next);
    } else if (u < 0.9) {
      // One more message from some node.
      tw.add_flow(message(rng.below(n), 1 + rng.below(2)));
    } else if (u < 0.95 && tw.live().size() > n) {
      tw.remove(rng.below(tw.live().size()));
    } else {
      // A boundary exchange: a link's capacity changes, mostly to the
      // value it already has.
      tw.set_capacity(link[rng.below(link.size())],
                      rng.below(4) == 0 ? rng.uniform(5.0, 25.0) : 25.0);
    }
    tw.solve_and_compare();
    ++solves;
    if (HasFatalFailure()) return;
  }
  // Most solves replay; the visit counters matched the filling throughout.
  EXPECT_GT(tw.replays(), static_cast<std::uint64_t>(solves / 2));
  EXPECT_GT(tw.replaying().stats().replay_resource_visits, 0u);
}

// ---- random multi-hop flows with caps ---------------------------------------

MaxMinFlow random_flow(Rng& rng, std::size_t n_res) {
  MaxMinFlow f;
  f.weight = rng.uniform(0.1, 4.0);
  const double u = rng.uniform();
  f.rate_cap = u < 0.15 ? rng.uniform(0.01, 1.0) : (u < 0.3 ? rng.uniform(1.0, 50.0) : 0.0);
  const std::size_t hops = 1 + rng.below(4);
  for (std::size_t h = 0; h < hops; ++h)
    f.entries.push_back({rng.below(n_res), rng.uniform() < 0.1 ? 0.0 : rng.uniform(0.1, 3.0)});
  if (rng.uniform() < 0.1) f.entries.push_back(f.entries.front());  // a resource listed twice
  return f;
}

TEST_P(MaxMinReplay, RandomMultiHopFlowsWithCaps) {
  Rng rng(GetParam());
  Twins tw(/*single_component=*/false);
  const std::size_t n_res = 6 + rng.below(15);
  for (std::size_t r = 0; r < n_res; ++r) tw.add_resource(rng.uniform(0.5, 100.0));
  for (int i = 0; i < 8; ++i) tw.add_flow(random_flow(rng, n_res));
  tw.solve_and_compare();
  for (int step = 0; step < 300; ++step) {
    const double u = rng.uniform();
    if (u < 0.4 || tw.live().empty()) {
      tw.add_flow(random_flow(rng, n_res));
    } else if (u < 0.75) {
      tw.remove(rng.below(tw.live().size()));
    } else if (u < 0.9) {
      tw.set_capacity(rng.below(n_res), rng.uniform() < 0.1 ? 0.0 : rng.uniform(0.5, 100.0));
    } else {
      // Several changes before one solve.
      tw.remove(rng.below(tw.live().size()));
      tw.add_flow(random_flow(rng, n_res));
      tw.set_capacity(rng.below(n_res), rng.uniform(0.5, 100.0));
    }
    tw.solve_and_compare();
    if (HasFatalFailure()) return;
  }
}

// ---- corner cases -------------------------------------------------------------
//
// Zero demands, a resource listed twice, zero capacities, capacities within
// the slack of a tie, identical flows and binding caps.  Every flow names
// resource 0, but a resized resource no flow reaches is a component of its
// own.

TEST_P(MaxMinReplay, ZeroDemandsDuplicatesZeroCapacitiesAndSlackTies) {
  Rng rng(GetParam());
  Twins tw(/*single_component=*/false);
  const std::size_t n_res = 3 + rng.below(6);
  std::vector<double> caps;
  for (std::size_t r = 0; r < n_res; ++r) caps.push_back(rng.uniform(0.5, 20.0));
  caps[1] = caps[0] * (1.0 + rng.uniform(-2e-12, 2e-12));  // within the slack of a tie
  for (double c : caps) tw.add_resource(c);
  const auto flow = [&] {
    MaxMinFlow f;
    f.weight = rng.below(3) == 0 ? 1.5 : 1.0;
    f.rate_cap = rng.below(5) == 0 ? rng.uniform(0.1, 5.0) : 0.0;
    f.entries.push_back({0, rng.below(8) == 0 ? 0.0 : 1.0});
    const std::size_t hops = 1 + rng.below(3);
    for (std::size_t h = 0; h < hops; ++h)
      f.entries.push_back({rng.below(n_res), rng.below(6) == 0 ? 0.0 : rng.uniform(0.5, 2.0)});
    if (rng.below(6) == 0) f.entries.push_back(f.entries.back());
    return f;
  };
  for (int i = 0; i < 6; ++i) tw.add_flow(flow());
  tw.solve_and_compare();
  for (int step = 0; step < 250; ++step) {
    const double u = rng.uniform();
    if (u < 0.35 || tw.live().empty()) {
      // Sometimes an exact copy of a live flow: an exact tie.
      if (!tw.live().empty() && rng.below(4) == 0)
        tw.add_flow(tw.live()[rng.below(tw.live().size())].flow);
      else
        tw.add_flow(flow());
    } else if (u < 0.7) {
      tw.remove(rng.below(tw.live().size()));
    } else {
      const std::size_t r = rng.below(n_res);
      const double v = rng.uniform();
      tw.set_capacity(r, v < 0.2 ? 0.0 : (v < 0.5 ? caps[0] * (1.0 + rng.uniform(-2e-12, 2e-12))
                                                  : rng.uniform(0.5, 20.0)));
    }
    tw.solve_and_compare();
    if (HasFatalFailure()) return;
  }
}

// ---- flowless and flow-carrying merges, and partition rebuilds --------------

TEST_P(MaxMinReplay, MergesAndPartitionRebuilds) {
  Rng rng(GetParam());
  Twins tw(/*single_component=*/false);
  // Islands of resources; flows mostly stay on one island, sometimes reach
  // an idle resource (a flowless merge) or another island (a merge of two
  // flow-carrying components).
  const std::size_t islands = 3 + rng.below(3);
  constexpr std::size_t kPerIsland = 4;
  for (std::size_t r = 0; r < islands * kPerIsland; ++r) tw.add_resource(rng.uniform(1.0, 40.0));
  const auto flow = [&](std::size_t island) {
    MaxMinFlow f;
    f.weight = rng.uniform(0.5, 2.0);
    f.rate_cap = rng.below(5) == 0 ? rng.uniform(0.5, 10.0) : 0.0;
    const std::size_t hops = 1 + rng.below(3);
    for (std::size_t h = 0; h < hops; ++h)
      f.entries.push_back({island * kPerIsland + rng.below(kPerIsland), rng.uniform(0.5, 2.0)});
    return f;
  };
  for (int i = 0; i < 12; ++i) tw.add_flow(flow(rng.below(islands)));
  tw.solve_and_compare();
  for (int step = 0; step < 400; ++step) {
    const double u = rng.uniform();
    if (u < 0.08) {
      // Reach a fresh, idle resource: a flowless merge.
      const std::size_t fresh = tw.add_resource(rng.uniform(1.0, 40.0));
      MaxMinFlow f = flow(rng.below(islands));
      f.entries.push_back({fresh, rng.uniform(0.5, 2.0)});
      tw.add_flow(f);
    } else if (u < 0.13) {
      // Bridge two islands: a merge of two flow-carrying components.
      MaxMinFlow f = flow(rng.below(islands));
      MaxMinFlow g = flow(rng.below(islands));
      f.entries.insert(f.entries.end(), g.entries.begin(), g.entries.end());
      tw.add_flow(f);
    } else if (u < 0.55 || tw.live().empty()) {
      tw.add_flow(flow(rng.below(islands)));
    } else if (u < 0.92) {
      tw.remove(rng.below(tw.live().size()));
    } else if (u < 0.96) {
      // A burst of removals: more than 64 and more than the live flows
      // left trigger a partition rebuild at the next solve.
      const std::size_t burst = tw.live().size() * 3 / 4;
      for (std::size_t i = 0; i < burst; ++i) tw.remove(rng.below(tw.live().size()));
    } else {
      tw.set_capacity(rng.below(islands * kPerIsland), rng.uniform(1.0, 40.0));
    }
    tw.solve_and_compare();
    if (HasFatalFailure()) return;
  }
  EXPECT_GT(tw.replays(), 0u);
  EXPECT_GT(tw.replaying().stats().partition_rebuilds, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MaxMinReplay,
                         ::testing::Values(1ull, 7ull, 42ull, 901ull, 0xC0FFEEull, 0xBADC0DEull));

// ---- hand-built sequences -------------------------------------------------------

TEST(MaxMinReplayCase, RemovingTheOnlyFlowFrozenInARound) {
  // Round 1 freezes the capped flow alone (lambda 1); round 2 the two
  // sharing resource 0.  Removing the capped flow leaves no value equal to
  // round 1's lambda, so the replay must give way to a full filling.
  Twins tw(/*single_component=*/true);
  tw.add_resource(10.0);
  tw.add_resource(10.0);
  tw.add_flow({1.0, 1.0, {{0, 1.0}, {1, 1.0}}});
  tw.add_flow({1.0, 0.0, {{0, 1.0}}});
  tw.add_flow({1.0, 0.0, {{0, 1.0}, {1, 1.0}}});
  tw.solve_and_compare();
  const std::uint64_t filled = tw.replaying().stats().components_filled;
  tw.remove(0);
  tw.solve_and_compare();
  EXPECT_EQ(tw.replaying().stats().components_filled, filled + 1);
  // The filling's new trace replays: a capacity set to the value it has.
  tw.set_capacity(1, 10.0);
  tw.solve_and_compare();
  EXPECT_EQ(tw.replaying().stats().components_filled, filled + 1);
  EXPECT_EQ(tw.replays(), 1u);
}

TEST(MaxMinReplayCase, ComponentsWhoseReplaysFailBackOff) {
  // One resource: every added flow lowers lambda, so every replay falls
  // back.  After the second fallback in a row the component fills its
  // next solve without trying, then tries again and waits 3 solves.
  Twins tw(/*single_component=*/true);
  tw.add_resource(12.0);
  tw.add_flow({1.0, 0.0, {{0, 1.0}}});
  tw.solve_and_compare();  // no trace yet: filled
  std::vector<std::uint64_t> tried;  // replay work per solve
  for (int i = 0; i < 8; ++i) {
    const std::uint64_t before = tw.replaying().stats().replay_resource_visits;
    tw.add_flow({1.0, 0.0, {{0, 1.0}}});
    tw.solve_and_compare();
    tried.push_back(tw.replaying().stats().replay_resource_visits - before);
  }
  const std::vector<bool> attempted = {true, true, false, true, false, false, false, true};
  for (std::size_t i = 0; i < attempted.size(); ++i)
    EXPECT_EQ(tried[i] > 0, attempted[i]) << "solve " << i;
  EXPECT_EQ(tw.replays(), 0u);
  EXPECT_EQ(tw.replaying().stats().components_filled, 9u);
}

TEST(MaxMinReplayCase, SlotReusedBeforeTheNextSolve) {
  // Unit weights and demands over integral capacities keep every sum
  // exact, so a flow re-registered under a later seq leaves each lambda
  // where it was and the solve replays.
  Twins tw(/*single_component=*/true);
  for (double c : {8.0, 12.0, 6.0}) tw.add_resource(c);
  tw.add_flow({1.0, 0.0, {{0, 1.0}, {1, 1.0}}});
  tw.add_flow({1.0, 0.0, {{1, 1.0}, {2, 1.0}}});
  tw.add_flow({1.0, 0.0, {{0, 1.0}, {2, 1.0}}});
  tw.solve_and_compare();
  // Remove a traced flow and re-register it in its freed slot.
  const MaxMinSolver::FlowId old_id = tw.live()[1].id;
  const MaxMinFlow again = tw.live()[1].flow;
  tw.remove(1);
  EXPECT_EQ(tw.add_flow(again), old_id);
  tw.solve_and_compare();
  EXPECT_EQ(tw.replays(), 1u);
  // Before one solve: remove a traced flow, add a flow in its slot, drop
  // that one too, and reuse the slot once more.
  const MaxMinFlow first = tw.live()[0].flow;
  const MaxMinSolver::FlowId slot = tw.live()[0].id;
  tw.remove(0);
  EXPECT_EQ(tw.add_flow({1.0, 3.0, {{1, 1.0}}}), slot);
  tw.remove(tw.live().size() - 1);
  EXPECT_EQ(tw.add_flow(first), slot);
  tw.solve_and_compare();
  EXPECT_EQ(tw.replays(), 2u);
}

}  // namespace
}  // namespace cci::sim
