// Properties and examples for the weighted bottleneck max-min solver.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <initializer_list>
#include <limits>
#include <numeric>
#include <string>

#include "obs/metrics.hpp"
#include "sim/flow_model.hpp"
#include "sim/maxmin.hpp"
#include "sim/rng.hpp"

namespace cci::sim {
namespace {

constexpr double kTol = 1e-9;

TEST(MaxMin, SingleFlowGetsFullCapacity) {
  MaxMinProblem p;
  p.capacity = {10.0};
  p.flows.push_back({1.0, 0.0, {{0, 1.0}}});
  auto sol = solve_max_min(p);
  EXPECT_NEAR(sol.rate[0], 10.0, kTol);
  EXPECT_NEAR(sol.load[0], 10.0, kTol);
}

TEST(MaxMin, EqualFlowsShareEqually) {
  MaxMinProblem p;
  p.capacity = {12.0};
  for (int i = 0; i < 4; ++i) p.flows.push_back({1.0, 0.0, {{0, 1.0}}});
  auto sol = solve_max_min(p);
  for (int i = 0; i < 4; ++i) EXPECT_NEAR(sol.rate[static_cast<std::size_t>(i)], 3.0, kTol);
}

TEST(MaxMin, WeightsScaleShares) {
  MaxMinProblem p;
  p.capacity = {9.0};
  p.flows.push_back({2.0, 0.0, {{0, 1.0}}});
  p.flows.push_back({1.0, 0.0, {{0, 1.0}}});
  auto sol = solve_max_min(p);
  EXPECT_NEAR(sol.rate[0], 6.0, kTol);
  EXPECT_NEAR(sol.rate[1], 3.0, kTol);
}

TEST(MaxMin, RateCapFreesCapacityForOthers) {
  MaxMinProblem p;
  p.capacity = {10.0};
  p.flows.push_back({1.0, 2.0, {{0, 1.0}}});  // capped at 2
  p.flows.push_back({1.0, 0.0, {{0, 1.0}}});
  auto sol = solve_max_min(p);
  EXPECT_NEAR(sol.rate[0], 2.0, kTol);
  EXPECT_NEAR(sol.rate[1], 8.0, kTol);
}

TEST(MaxMin, DemandScalesUsage) {
  // Flow consuming 2 units per rate unit gets half the rate on the same pipe.
  MaxMinProblem p;
  p.capacity = {8.0};
  p.flows.push_back({1.0, 0.0, {{0, 2.0}}});
  auto sol = solve_max_min(p);
  EXPECT_NEAR(sol.rate[0], 4.0, kTol);
  EXPECT_NEAR(sol.load[0], 8.0, kTol);
}

TEST(MaxMin, TwoHopFlowBottlenecksOnTightestResource) {
  MaxMinProblem p;
  p.capacity = {10.0, 4.0};
  p.flows.push_back({1.0, 0.0, {{0, 1.0}, {1, 1.0}}});
  auto sol = solve_max_min(p);
  EXPECT_NEAR(sol.rate[0], 4.0, kTol);
  EXPECT_NEAR(sol.load[0], 4.0, kTol);
  EXPECT_NEAR(sol.load[1], 4.0, kTol);
}

TEST(MaxMin, ClassicThreeFlowLine) {
  // Textbook line network: flow A crosses both links, B and C one each.
  // Capacities 10 each: A=5, B=5, C=5.
  MaxMinProblem p;
  p.capacity = {10.0, 10.0};
  p.flows.push_back({1.0, 0.0, {{0, 1.0}, {1, 1.0}}});  // A
  p.flows.push_back({1.0, 0.0, {{0, 1.0}}});            // B
  p.flows.push_back({1.0, 0.0, {{1, 1.0}}});            // C
  auto sol = solve_max_min(p);
  EXPECT_NEAR(sol.rate[0], 5.0, kTol);
  EXPECT_NEAR(sol.rate[1], 5.0, kTol);
  EXPECT_NEAR(sol.rate[2], 5.0, kTol);
}

TEST(MaxMin, UnevenLineGivesLeftoverToSingleHopFlow) {
  // Link0 cap 10 shared by A and B; link1 cap 2 crossed only by A.
  // A bottlenecks on link1 at 2; B then gets 8.
  MaxMinProblem p;
  p.capacity = {10.0, 2.0};
  p.flows.push_back({1.0, 0.0, {{0, 1.0}, {1, 1.0}}});
  p.flows.push_back({1.0, 0.0, {{0, 1.0}}});
  auto sol = solve_max_min(p);
  EXPECT_NEAR(sol.rate[0], 2.0, kTol);
  EXPECT_NEAR(sol.rate[1], 8.0, kTol);
}

TEST(MaxMin, FlowWithoutDemandsIsUnconstrained) {
  MaxMinProblem p;
  p.capacity = {1.0};
  p.flows.push_back({1.0, 0.0, {}});
  auto sol = solve_max_min(p);
  EXPECT_TRUE(std::isinf(sol.rate[0]));
}

TEST(MaxMin, FlowWithoutDemandsButCappedGetsCap) {
  MaxMinProblem p;
  p.flows.push_back({1.0, 3.5, {}});
  auto sol = solve_max_min(p);
  EXPECT_NEAR(sol.rate[0], 3.5, kTol);
}

TEST(MaxMin, ZeroCapacityResourceStallsItsFlows) {
  MaxMinProblem p;
  p.capacity = {0.0, 10.0};
  p.flows.push_back({1.0, 0.0, {{0, 1.0}}});
  p.flows.push_back({1.0, 0.0, {{1, 1.0}}});
  auto sol = solve_max_min(p);
  EXPECT_NEAR(sol.rate[0], 0.0, kTol);
  EXPECT_NEAR(sol.rate[1], 10.0, kTol);
}

// ---- randomized property sweep -------------------------------------------

struct RandomCase {
  std::uint64_t seed;
};

class MaxMinProperty : public ::testing::TestWithParam<std::uint64_t> {};

MaxMinProblem random_problem(Rng& rng) {
  MaxMinProblem p;
  std::size_t n_res = 1 + rng.below(6);
  std::size_t n_flows = 1 + rng.below(12);
  for (std::size_t r = 0; r < n_res; ++r) p.capacity.push_back(rng.uniform(0.5, 100.0));
  for (std::size_t f = 0; f < n_flows; ++f) {
    MaxMinFlow flow;
    flow.weight = rng.uniform(0.1, 4.0);
    flow.rate_cap = rng.uniform() < 0.3 ? rng.uniform(0.1, 50.0) : 0.0;
    std::size_t hops = 1 + rng.below(n_res);
    for (std::size_t h = 0; h < hops; ++h) {
      std::size_t r = rng.below(n_res);
      flow.entries.push_back({r, rng.uniform(0.1, 3.0)});
    }
    p.flows.push_back(std::move(flow));
  }
  return p;
}

TEST_P(MaxMinProperty, FeasibleParetoAndBottlenecked) {
  Rng rng(GetParam());
  for (int iter = 0; iter < 40; ++iter) {
    MaxMinProblem p = random_problem(rng);
    auto sol = solve_max_min(p);

    // Feasibility: per-resource usage within capacity (+slack).
    std::vector<double> usage(p.capacity.size(), 0.0);
    for (std::size_t f = 0; f < p.flows.size(); ++f) {
      EXPECT_GE(sol.rate[f], -kTol);
      if (p.flows[f].rate_cap > 0.0) {
        EXPECT_LE(sol.rate[f], p.flows[f].rate_cap * (1.0 + 1e-9));
      }
      for (const auto& e : p.flows[f].entries) usage[e.resource] += sol.rate[f] * e.demand;
    }
    for (std::size_t r = 0; r < p.capacity.size(); ++r) {
      EXPECT_LE(usage[r], p.capacity[r] * (1.0 + 1e-6) + 1e-9)
          << "resource " << r << " overcommitted";
      EXPECT_NEAR(usage[r], sol.load[r], 1e-6 * std::max(1.0, usage[r]));
    }

    // Pareto efficiency / bottleneck property: every flow is blocked either
    // by its own cap or by at least one saturated resource it crosses.
    for (std::size_t f = 0; f < p.flows.size(); ++f) {
      if (p.flows[f].entries.empty()) continue;
      bool capped = p.flows[f].rate_cap > 0.0 &&
                    sol.rate[f] >= p.flows[f].rate_cap * (1.0 - 1e-6);
      if (capped) continue;
      bool bottlenecked = false;
      for (const auto& e : p.flows[f].entries) {
        if (e.demand <= 0.0) continue;
        if (usage[e.resource] >= p.capacity[e.resource] * (1.0 - 1e-6)) {
          bottlenecked = true;
          break;
        }
      }
      EXPECT_TRUE(bottlenecked) << "flow " << f << " could still grow";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MaxMinProperty,
                         ::testing::Values(1ull, 2ull, 3ull, 42ull, 1337ull, 0xDEADBEEFull));

// ---- bitwise oracle ---------------------------------------------------------
//
// A plain dense transcription of progressive filling, independent of the
// solver's data structures: every round zero-fills and re-sums the weighted
// demand of every resource, scans every resource for lambda and for
// bottlenecks, and walks every flow, with the same slack and the same
// no-freeze fallback.  On a connected problem (one component, so one lambda
// per round) the solver must reproduce it bit for bit: any reordered sum or
// recomputed ratio shows up here, where the 1e-9 property checks above
// would absorb it.

struct DenseSolution {
  std::vector<double> rate;
  std::vector<double> load;
  std::vector<double> pressure;
};

DenseSolution dense_progressive_filling(const MaxMinProblem& p) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kSlack = 1e-12;
  const std::size_t n_res = p.capacity.size();
  const std::size_t n_flows = p.flows.size();
  DenseSolution out;
  out.rate.assign(n_flows, 0.0);
  out.load.assign(n_res, 0.0);
  out.pressure.assign(n_res, 0.0);
  std::vector<double> cap_left = p.capacity;
  std::vector<double> wd(n_res);
  std::vector<char> bottleneck(n_res);
  std::vector<char> fixed(n_flows, 0);
  std::size_t n_fixed = 0;
  auto cap_lambda = [&](std::size_t f) {
    return p.flows[f].rate_cap > 0.0 ? p.flows[f].rate_cap / p.flows[f].weight : kInf;
  };
  auto freeze = [&](std::size_t f, double lambda) {
    const double rate = p.flows[f].weight * std::min(lambda, cap_lambda(f));
    out.rate[f] = rate;
    for (const auto& e : p.flows[f].entries) {
      const double used = rate * e.demand;
      cap_left[e.resource] -= used;
      out.load[e.resource] += used;
    }
    fixed[f] = 1;
    ++n_fixed;
  };
  while (n_fixed < n_flows) {
    std::fill(wd.begin(), wd.end(), 0.0);
    for (std::size_t f = 0; f < n_flows; ++f)
      if (!fixed[f])
        for (const auto& e : p.flows[f].entries) wd[e.resource] += p.flows[f].weight * e.demand;
    double lambda = kInf;
    for (std::size_t r = 0; r < n_res; ++r)
      if (wd[r] > 0.0) lambda = std::min(lambda, std::max(0.0, cap_left[r]) / wd[r]);
    for (std::size_t f = 0; f < n_flows; ++f)
      if (!fixed[f]) lambda = std::min(lambda, cap_lambda(f));
    if (!std::isfinite(lambda)) {
      for (std::size_t f = 0; f < n_flows; ++f)
        if (!fixed[f]) out.rate[f] = kInf;
      break;
    }
    for (std::size_t r = 0; r < n_res; ++r)
      bottleneck[r] = wd[r] > 0.0 &&
                      std::max(0.0, cap_left[r]) / wd[r] <= lambda * (1.0 + kSlack) + kSlack;
    bool froze_any = false;
    for (std::size_t f = 0; f < n_flows; ++f) {
      if (fixed[f]) continue;
      bool saturated = cap_lambda(f) <= lambda * (1.0 + kSlack);
      for (const auto& e : p.flows[f].entries)
        if (bottleneck[e.resource] && e.demand > 0.0) saturated = true;
      if (!saturated) continue;
      freeze(f, lambda);
      froze_any = true;
    }
    if (!froze_any)
      for (std::size_t f = 0; f < n_flows; ++f)
        if (!fixed[f]) freeze(f, lambda);
  }
  // Demand pressure: each flow's solo rate spread over its entries, in flow
  // order, then entry order.
  for (const MaxMinFlow& flow : p.flows) {
    double solo = flow.rate_cap > 0.0 ? flow.rate_cap : kInf;
    for (const auto& e : flow.entries)
      if (e.demand > 0.0) solo = std::min(solo, p.capacity[e.resource] / e.demand);
    if (!std::isfinite(solo)) continue;
    for (const auto& e : flow.entries)
      if (p.capacity[e.resource] > 0.0)
        out.pressure[e.resource] += solo * e.demand / p.capacity[e.resource];
  }
  return out;
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// Solve `p` with a fresh MaxMinSolver and require every rate, load and
/// pressure to equal the dense reference bit for bit.
void expect_matches_oracle(const MaxMinProblem& p) {
  MaxMinSolver solver;
  for (double c : p.capacity) solver.add_resource(c);
  for (const MaxMinFlow& flow : p.flows) solver.add_flow(flow.weight, flow.rate_cap, flow.entries);
  solver.solve();
  const DenseSolution want = dense_progressive_filling(p);
  for (std::size_t f = 0; f < p.flows.size(); ++f)
    EXPECT_EQ(bits(solver.rate(f)), bits(want.rate[f]))
        << "flow " << f << ": " << solver.rate(f) << " vs " << want.rate[f];
  for (std::size_t r = 0; r < p.capacity.size(); ++r) {
    EXPECT_EQ(bits(solver.load(r)), bits(want.load[r]))
        << "load " << r << ": " << solver.load(r) << " vs " << want.load[r];
    EXPECT_EQ(bits(solver.pressure(r)), bits(want.pressure[r]))
        << "pressure " << r << ": " << solver.pressure(r) << " vs " << want.pressure[r];
  }
}

/// Seeded connected problem: each flow shares a resource with the previous
/// one (as tenants on a ring do), mixing in the corner cases below.
MaxMinProblem connected_problem(Rng& rng) {
  MaxMinProblem p;
  const std::size_t n_res = 2 + rng.below(14);
  const std::size_t n_flows = 1 + rng.below(24);
  for (std::size_t r = 0; r < n_res; ++r) p.capacity.push_back(rng.uniform(0.5, 100.0));
  // A zero-capacity resource.
  if (rng.uniform() < 0.15) p.capacity[rng.below(n_res)] = 0.0;
  // Capacities within the slack of a tie.
  if (rng.uniform() < 0.3) {
    const std::size_t a = rng.below(n_res);
    const std::size_t b = rng.below(n_res);
    p.capacity[b] = p.capacity[a] * (1.0 + rng.uniform(-2e-12, 2e-12));
  }
  for (std::size_t f = 0; f < n_flows; ++f) {
    if (f > 0 && rng.uniform() < 0.1) {
      p.flows.push_back(p.flows.back());  // identical flows: an exact tie
      continue;
    }
    MaxMinFlow flow;
    flow.weight = rng.uniform(0.1, 4.0);
    // Binding rate caps: some well below any fair share.
    const double u = rng.uniform();
    flow.rate_cap = u < 0.15 ? rng.uniform(0.01, 1.0) : (u < 0.3 ? rng.uniform(1.0, 50.0) : 0.0);
    if (f > 0) {
      const auto& prev = p.flows.back().entries;
      flow.entries.push_back({prev[rng.below(prev.size())].resource, rng.uniform(0.1, 3.0)});
    }
    const std::size_t hops = 1 + rng.below(4);
    for (std::size_t h = 0; h < hops; ++h) {
      const double d = rng.uniform() < 0.1 ? 0.0 : rng.uniform(0.1, 3.0);  // zero-demand entries
      flow.entries.push_back({rng.below(n_res), d});
    }
    // One flow listing a resource twice.
    if (rng.uniform() < 0.15) flow.entries.push_back(flow.entries.front());
    p.flows.push_back(std::move(flow));
  }
  return p;
}

class MaxMinOracle : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MaxMinOracle, SolverMatchesDenseFillingBitwise) {
  Rng rng(GetParam());
  for (int iter = 0; iter < 200; ++iter) expect_matches_oracle(connected_problem(rng));
}

INSTANTIATE_TEST_SUITE_P(Seeds, MaxMinOracle,
                         ::testing::Values(1ull, 7ull, 42ull, 901ull, 0xC0FFEEull));

TEST(MaxMinOracle, FlowListingAResourceTwice) {
  MaxMinProblem p;
  p.capacity = {9.0, 5.0};
  p.flows.push_back({1.0, 0.0, {{0, 1.0}, {1, 0.5}, {0, 2.0}}});
  p.flows.push_back({0.7, 0.0, {{0, 1.0}}});
  p.flows.push_back({1.3, 0.0, {{1, 1.0}, {1, 0.25}}});
  expect_matches_oracle(p);
}

TEST(MaxMinOracle, ZeroDemandEntries) {
  MaxMinProblem p;
  p.capacity = {4.0, 10.0, 3.0};
  p.flows.push_back({1.0, 0.0, {{0, 1.0}, {1, 0.0}}});
  p.flows.push_back({2.0, 0.0, {{1, 0.0}, {2, 1.0}}});
  p.flows.push_back({1.0, 0.0, {{2, 0.0}}});  // demands nothing: unbounded
  p.flows.push_back({1.0, 6.0, {{2, 0.0}, {1, 0.0}}});  // demands nothing: its cap
  expect_matches_oracle(p);
}

TEST(MaxMinOracle, ZeroCapacityResource) {
  MaxMinProblem p;
  p.capacity = {0.0, 10.0, 7.0};
  p.flows.push_back({1.0, 0.0, {{1, 1.0}, {0, 1.0}}});
  p.flows.push_back({1.0, 0.0, {{1, 1.0}, {2, 2.0}}});
  p.flows.push_back({1.5, 0.0, {{2, 1.0}}});
  expect_matches_oracle(p);
}

TEST(MaxMinOracle, BindingRateCaps) {
  MaxMinProblem p;
  p.capacity = {10.0, 8.0};
  p.flows.push_back({1.0, 0.5, {{0, 1.0}}});
  p.flows.push_back({2.0, 1.25, {{0, 1.0}, {1, 1.0}}});
  p.flows.push_back({1.0, 0.0, {{1, 1.0}}});
  p.flows.push_back({0.5, 3.0, {{1, 2.0}, {0, 0.5}}});
  expect_matches_oracle(p);
}

TEST(MaxMinOracle, IdenticalFlowsTieExactly) {
  MaxMinProblem p;
  p.capacity = {7.0, 11.0};
  for (int i = 0; i < 5; ++i) p.flows.push_back({1.1, 0.0, {{0, 0.3}, {1, 0.9}}});
  p.flows.push_back({1.1, 0.0, {{1, 0.9}}});
  expect_matches_oracle(p);
}

TEST(MaxMinOracle, CapacitiesWithinSlackOfATie) {
  // Resources 0 and 1 bottleneck at lambdas 5e-13 apart relative: both
  // must freeze their flows in the same round, in both implementations.
  MaxMinProblem p;
  p.capacity = {10.0, 10.0 * (1.0 + 5e-13), 10.0 * (1.0 + 5e-12)};
  p.flows.push_back({1.0, 0.0, {{0, 1.0}}});
  p.flows.push_back({1.0, 0.0, {{0, 1.0}, {1, 1.0}}});
  p.flows.push_back({1.0, 0.0, {{1, 1.0}, {2, 1.0}}});
  p.flows.push_back({1.0, 0.0, {{2, 1.0}}});
  expect_matches_oracle(p);
}

// ---- load-change report -----------------------------------------------------

std::vector<std::uint64_t> load_bits(const MaxMinSolver& solver) {
  std::vector<std::uint64_t> out(solver.resource_count());
  for (std::size_t r = 0; r < out.size(); ++r) out[r] = bits(solver.load(r));
  return out;
}

/// Flow adds, removals, capacity changes and fresh resources interleaved
/// with solves on the oracle's seeded problems, draining the change report
/// every few solves.  A drain must list each resource whose load bits
/// differ from the previous drain, exactly once, and nothing no solve in
/// between changed.  The first drain lists every resource.
TEST_P(MaxMinOracle, LoadChangeReportListsEveryChangedLoadOnce) {
  Rng rng(GetParam());
  for (int iter = 0; iter < 20; ++iter) {
    const MaxMinProblem p = connected_problem(rng);
    MaxMinSolver solver;
    for (double c : p.capacity) solver.add_resource(c);
    std::vector<MaxMinSolver::FlowId> live;
    std::size_t next_flow = 0;
    const auto add_flow = [&] {
      const MaxMinFlow& f = p.flows[next_flow++ % p.flows.size()];
      live.push_back(solver.add_flow(f.weight, f.rate_cap, f.entries));
    };
    for (int i = 0; i < 3; ++i) add_flow();
    solver.solve();

    const auto drain = [&solver] {
      std::vector<std::size_t> listed;
      solver.drain_load_changes([&listed](std::size_t r) { listed.push_back(r); });
      return listed;
    };
    const std::vector<std::size_t> first = drain();
    ASSERT_EQ(first.size(), solver.resource_count());
    for (std::size_t r = 0; r < first.size(); ++r) EXPECT_EQ(first[r], r);

    std::vector<std::uint64_t> at_drain = load_bits(solver);
    std::vector<char> solved_change(solver.resource_count(), 0);
    for (int step = 0; step < 200; ++step) {
      const double u = rng.uniform();
      if (u < 0.45 || live.empty()) {
        add_flow();
      } else if (u < 0.8) {
        const std::size_t i = rng.below(live.size());
        solver.remove_flow(live[i]);
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(i));
      } else if (u < 0.95) {
        // Sometimes the capacity it already has: a solve that moves nothing.
        const std::size_t r = rng.below(p.capacity.size());
        solver.set_capacity(r, rng.uniform() < 0.3 ? solver.capacity(r) : rng.uniform(0.5, 100.0));
      } else {
        // A resource added after tracking started, loaded by a new flow.
        const std::size_t r = solver.add_resource(rng.uniform(0.5, 100.0));
        at_drain.push_back(bits(0.0));
        solved_change.push_back(0);
        live.push_back(solver.add_flow(1.0, 0.0, {{r, 1.0}, {rng.below(p.capacity.size()), 0.5}}));
      }
      const std::vector<std::uint64_t> before = load_bits(solver);
      solver.solve();
      const std::vector<std::uint64_t> after = load_bits(solver);
      for (std::size_t r = 0; r < after.size(); ++r)
        if (after[r] != before[r]) solved_change[r] = 1;
      if (rng.below(3) != 0) continue;

      const std::vector<std::size_t> listed = drain();
      std::vector<int> times(solver.resource_count(), 0);
      for (std::size_t r : listed) {
        ASSERT_LT(r, times.size());
        ++times[r];
      }
      for (std::size_t r = 0; r < times.size(); ++r) {
        EXPECT_LE(times[r], 1) << "resource " << r << " listed twice";
        if (after[r] != at_drain[r]) {
          EXPECT_EQ(times[r], 1) << "changed load not listed: " << r;
        }
        if (!solved_change[r]) {
          EXPECT_EQ(times[r], 0) << "unchanged load listed: " << r;
        }
      }
      at_drain = after;
      solved_change.assign(solved_change.size(), 0);
    }
  }
}

// ---- resources read the solver --------------------------------------------

TEST(ResourceLoads, GaugesMatchOnceTheRegistryTurnsOn) {
  obs::Registry reg;  // private registry, off like the process one at startup
  obs::Registry::ScopedThreadLocal scope(reg);
  Engine engine;
  FlowModel model(engine);
  Resource* a = model.add_resource("loads.a", 10.0);
  Resource* b = model.add_resource("loads.b", 4.0);
  Resource* c = model.add_resource("loads.c", 6.0);
  auto spec = [](double work, std::initializer_list<ActivitySpec::Demand> demands) {
    ActivitySpec s;
    s.work = work;
    s.demands = demands;
    return s;
  };
  model.start(spec(100.0, {{a, 1.0}, {b, 1.0}}));
  model.start(spec(50.0, {{b, 2.0}, {c, 1.0}}));
  // Registry and tracer off: nothing reads the solved resources.
  EXPECT_TRUE(model.solver().touched_resources().empty());

  // Turned on between two change points: the next re-solve binds the
  // gauges and writes them for every resource it solved.
  reg.set_enabled(true);
  model.start(spec(70.0, {{a, 1.0}, {c, 0.5}}));
  const std::vector<std::size_t>& touched = model.solver().touched_resources();
  ASSERT_EQ(touched.size(), 3u);
  for (Resource* r : {a, b, c}) {
    ASSERT_NE(std::find(touched.begin(), touched.end(), r->index()), touched.end());
    EXPECT_GT(r->load(), 0.0) << r->name();
    EXPECT_EQ(reg.gauge("sim.resource." + r->name() + ".utilization").value(), r->utilization())
        << r->name();
    EXPECT_EQ(reg.gauge("sim.resource." + r->name() + ".pressure").value(), r->pressure())
        << r->name();
  }

  // Once the last flow has left, the solved loads read zero.
  engine.run();
  for (Resource* r : {a, b, c}) {
    EXPECT_EQ(r->load(), 0.0) << r->name();
    EXPECT_EQ(r->pressure(), 0.0) << r->name();
    EXPECT_EQ(reg.gauge("sim.resource." + r->name() + ".utilization").value(), 0.0);
  }
}

}  // namespace
}  // namespace cci::sim
