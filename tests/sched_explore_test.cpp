// Explorer-driven determinism oracles over the real concurrent layers:
// campaign jobs=8 vs serial, 2-shard ShardGroup runs, boundary-proxy
// exchange across 3 fabric shards, the planted merge-order mutation, and a
// bounded-exhaustive small campaign.  These tests only bite in instrumented
// builds (-DCCI_SCHED=ON); elsewhere the whole suite skips so default ctest
// stays seed-equivalent.
//
// Environment knobs (all optional):
//   CCI_SCHED_SEEDS      how many random seeds per oracle test (default 5;
//                        CI cranks this to 50)
//   CCI_SCHED_TRACE_DIR  where to save the schedule trace of any failing
//                        seed, for upload as a CI artifact and offline
//                        --sched-replay
#include <gtest/gtest.h>

#ifndef CCI_SCHED

TEST(SchedExplore, RequiresInstrumentedBuild) {
  GTEST_SKIP() << "built without -DCCI_SCHED=ON; schedule hooks compile to nothing";
}

#else  // CCI_SCHED

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/campaign.hpp"
#include "core/fabric_lab.hpp"
#include "kernels/stream.hpp"
#include "obs/metrics.hpp"
#include "sched/explorer.hpp"
#include "sim/flow_model.hpp"
#include "sim/shard.hpp"

namespace cci {
namespace {

int seeds_from_env() {
  const char* env = std::getenv("CCI_SCHED_SEEDS");
  if (env == nullptr || *env == '\0') return 5;
  const int n = std::atoi(env);
  return n > 0 ? n : 5;
}

/// Save `trace` under CCI_SCHED_TRACE_DIR (if set) so CI can upload it;
/// returns a human-readable pointer for the assertion message.
std::string save_failing_trace(const sched::Trace& trace, const std::string& tag) {
  const char* dir = std::getenv("CCI_SCHED_TRACE_DIR");
  if (dir == nullptr || *dir == '\0')
    return "set CCI_SCHED_TRACE_DIR to save the failing trace";
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  const std::string path = (std::filesystem::path(dir) / (tag + ".trace")).string();
  try {
    trace.save(path);
  } catch (const std::exception& e) {
    return std::string("failed to save trace: ") + e.what();
  }
  return "failing trace saved to " + path;
}

core::Scenario quick_base() {
  core::Scenario s;
  s.kernel = kernels::triad_traits();
  s.message_bytes = 4;
  s.pingpong_iterations = 2;
  s.pingpong_warmup = 0;
  s.compute_repetitions = 1;
  s.target_pass_seconds = 0.002;
  return s;
}

core::Campaign quick_campaign() {
  core::Campaign c("sched_explore_campaign",
                   core::SweepSpec(quick_base())
                       .cores("cores", {0, 2, 4})
                       .message_bytes("msg_bytes", {4, 65536}));
  c.column("lat_us", core::Campaign::latency_together_us())
      .column("bw_ratio", core::Campaign::bandwidth_ratio());
  return c;
}

core::CampaignOptions campaign_opts(int jobs) {
  core::CampaignOptions o;
  o.jobs = jobs;
  return o;
}

std::string table_text(const core::Campaign& c, const core::CampaignRun& run) {
  std::ostringstream os;
  run.table(c).print(os);
  return os.str();
}

std::string timeline_text(const core::Campaign& c, const core::CampaignRun& run) {
  std::ostringstream os;
  run.write_timeline_csv(os, c.name(), true);
  return os.str();
}

/// RAII for the planted merge mutation so a failing assertion cannot leak
/// the broken merge into later tests.
struct MutationGuard {
  explicit MutationGuard(bool on) { sched::set_mutation_merge_overwrite(on); }
  ~MutationGuard() { sched::set_mutation_merge_overwrite(false); }
};

// ---- campaign oracle --------------------------------------------------------

TEST(SchedExplore, CampaignJobs8MatchesSerialAcrossRandomSchedules) {
  const core::Campaign c = quick_campaign();
  core::CampaignOptions serial = campaign_opts(1);
  serial.timeline_period = 1e-3;
  const core::CampaignRun ref = core::CampaignEngine(serial).run(c);
  const std::string ref_table = table_text(c, ref);
  const std::string ref_timeline = timeline_text(c, ref);

  const int seeds = seeds_from_env();
  for (int seed = 1; seed <= seeds; ++seed) {
    sched::Options o;
    o.mode = sched::Options::Mode::kRandom;
    o.seed = static_cast<std::uint64_t>(seed);
    sched::Session session(o);
    core::CampaignOptions par = campaign_opts(8);
    par.timeline_period = 1e-3;
    const core::CampaignRun run = core::CampaignEngine(par).run(c);
    ASSERT_EQ(session.error(), "") << "seed " << seed;
    const bool tables_match = table_text(c, run) == ref_table;
    const bool timelines_match = timeline_text(c, run) == ref_timeline;
    if (!tables_match || !timelines_match)
      FAIL() << "jobs=8 diverged from serial under schedule seed " << seed << " ("
             << (tables_match ? "timeline CSV" : "campaign table") << "); "
             << save_failing_trace(session.trace(),
                                   "campaign_jobs8_seed" + std::to_string(seed));
  }
}

// ---- adaptive-routing oracle ------------------------------------------------

/// Adaptive-routing campaign over an oversubscribed fat-tree: two tenants
/// fight for the minimal spine, so every point's values depend on the
/// exact sequence of RNG tie-broken routing decisions.  Those draws come
/// from the per-point cluster seed, never from thread timing — the table
/// must be schedule-invariant at jobs=8.
core::Campaign fabric_campaign() {
  core::Scenario base;
  base.topology =
      net::Topology::fat_tree(4, 0.5).routing(net::RoutingPolicy::kAdaptive);
  core::JobSpec victim, aggressor;
  victim.label = "victim";
  victim.nodes = {0, 2};
  aggressor.label = "aggressor";
  aggressor.nodes = {1, 3};
  for (core::JobSpec* j : {&victim, &aggressor}) {
    j->message_bytes = std::size_t{4} << 20;
    j->iterations = 3;
  }
  base.jobs = {std::move(victim), std::move(aggressor)};
  core::SweepSpec spec(base);
  spec.seed_policy(core::SeedPolicy::kFixed)
      .values("offered_load", {0.5, 1.0}, [](core::Scenario& s, double v) {
        for (core::JobSpec& j : s.jobs) j.offered_load = v;
      });
  core::Campaign c("sched_fabric_campaign", std::move(spec));
  c.column("elapsed_ms", 3, core::Campaign::Metric{})
      .column("reroutes", 0, core::Campaign::Metric{})
      .evaluator("sched_fabric.v1",
                 [](const core::SweepPoint& p) -> std::vector<double> {
                   core::FabricLab lab(p.scenario);
                   core::FabricReport r = lab.run();
                   return {r.elapsed * 1e3, static_cast<double>(r.reroutes)};
                 });
  return c;
}

TEST(SchedExplore, AdaptiveRoutingTableIsScheduleInvariantAtJobs8) {
  const core::Campaign c = fabric_campaign();
  const std::string ref_table =
      table_text(c, core::CampaignEngine(campaign_opts(1)).run(c));

  const int seeds = seeds_from_env();
  for (int seed = 1; seed <= seeds; ++seed) {
    sched::Options o;
    o.mode = sched::Options::Mode::kRandom;
    o.seed = static_cast<std::uint64_t>(seed);
    sched::Session session(o);
    const core::CampaignRun run = core::CampaignEngine(campaign_opts(8)).run(c);
    ASSERT_EQ(session.error(), "") << "seed " << seed;
    if (table_text(c, run) != ref_table)
      FAIL() << "adaptive-routing table diverged under schedule seed " << seed << "; "
             << save_failing_trace(session.trace(),
                                   "fabric_jobs8_seed" + std::to_string(seed));
  }
}

// ---- sharded-sim oracle -----------------------------------------------------

/// Window-barrier arrivals the session decided for shard workers.  Zero
/// means the workers ran outside the session: a byte comparison would still
/// pass, having explored nothing.  Each seeded session below runs after the
/// uncontrolled reference, on the same coordinating thread.
std::size_t shard_barrier_decisions(const sched::Session& session) {
  std::size_t n = 0;
  for (const sched::Decision& d : session.decisions())
    if (d.kind == sched::Kind::kBarrierArrive && d.thread.rfind("sim.shard.", 0) == 0) ++n;
  return n;
}

/// Tiny churn workload on a 2-shard group; returns per-group completion
/// instants — the observable that must not depend on the schedule.
std::vector<std::vector<sim::Time>> run_sharded_churn() {
  sim::ShardGroup::Options go;
  go.shards = 2;
  sim::ShardGroup group(go);  // shard-closed: no cross-shard traffic
  struct Group {
    std::unique_ptr<sim::FlowModel> model;
    std::vector<sim::Time> completions;
  };
  std::vector<Group> groups(4);
  for (int g = 0; g < 4; ++g) {
    Group& ng = groups[g];
    group.with_shard(g % 2, [&ng, g](sim::Engine& eng) {
      ng.model = std::make_unique<sim::FlowModel>(eng);
      sim::Resource* a = ng.model->add_resource("g" + std::to_string(g) + ".a", 4.0);
      sim::Resource* b = ng.model->add_resource("g" + std::to_string(g) + ".b", 5.0);
      const sim::LabelId label = eng.intern("churn");
      struct Churn {
        static sim::Coro run(sim::Engine& eng, sim::FlowModel& model, sim::Resource* a,
                             sim::Resource* b, sim::LabelId label,
                             std::vector<sim::Time>* done) {
          for (int i = 0; i < 12; ++i) {
            sim::ActivitySpec spec;
            spec.label = label;
            spec.work = 1.0 + 0.25 * static_cast<double>(i % 4);
            spec.demands.push_back({a, 1.0});
            if (i % 2 != 0) spec.demands.push_back({b, 0.5});
            co_await *model.start(spec);
            done->push_back(eng.now());
          }
        }
      };
      for (int p = 0; p < 2; ++p)
        eng.spawn(Churn::run(eng, *ng.model, p % 2 == 0 ? a : b, p % 2 == 0 ? b : a,
                             label, &ng.completions));
    });
  }
  group.run();
  std::vector<std::vector<sim::Time>> out;
  out.reserve(groups.size());
  for (int g = 0; g < 4; ++g) {
    Group& ng = groups[g];
    out.push_back(ng.completions);
    group.with_shard(g % 2, [&ng](sim::Engine&) { ng.model.reset(); });
  }
  return out;
}

TEST(SchedExplore, TwoShardRunsAreScheduleInvariant) {
  const auto ref = run_sharded_churn();  // uncontrolled reference
  const int seeds = seeds_from_env();
  for (int seed = 1; seed <= seeds; ++seed) {
    sched::Options o;
    o.mode = sched::Options::Mode::kRandom;
    o.seed = static_cast<std::uint64_t>(seed);
    sched::Session session(o);
    const auto got = run_sharded_churn();
    ASSERT_EQ(session.error(), "") << "seed " << seed;
    EXPECT_GT(shard_barrier_decisions(session), 0u) << "seed " << seed;
    if (got != ref)
      FAIL() << "2-shard completions diverged under schedule seed " << seed << "; "
             << save_failing_trace(session.trace(),
                                   "shards2_seed" + std::to_string(seed));
  }
}

// ---- boundary-exchange oracle -----------------------------------------------

/// Everything a sharded fabric run decides at its window barriers, as exact
/// text: tenant rows, link peaks, and the window and exchange counts.
std::string fabric_report_text(const core::FabricReport& r) {
  std::ostringstream os;
  char buf[256];
  for (const core::TenantReport& t : r.tenants) {
    const trace::Stats& d = t.delivery_latency;
    std::snprintf(buf, sizeof buf, "tenant %s %.17g %.17g %.17g | %zu %.17g %.17g %.17g\n",
                  t.label.c_str(), t.bytes, t.finish, t.achieved_bw, d.n, d.median,
                  d.mean, d.max);
    os << buf;
  }
  for (const core::LinkReport& l : r.links) {
    std::snprintf(buf, sizeof buf, "link %s %.17g\n", l.name.c_str(), l.peak);
    os << buf;
  }
  os << "windows " << r.windows << " exchanges " << r.exchanges << '\n';
  return os.str();
}

/// One ring over every host of a 4-group dragonfly, carved into 3 shards:
/// the ring crosses groups, so the carve cuts global links and the shards
/// couple only through boundary-proxy exchange and the barrier probe.
core::FabricReport run_boundary_exchange() {
  core::Scenario s;
  s.topology = net::Topology::dragonfly(4, 2, 2);
  core::JobSpec ring;
  ring.label = "ring";
  ring.iterations = 2;
  ring.pattern = core::TrafficPattern::kRing;
  for (int n = 0; n < 16; ++n) ring.nodes.push_back(n);
  s.jobs = {ring};
  return core::FabricLab(std::move(s)).run_sharded(3);
}

TEST(SchedExplore, BoundaryExchangeIsScheduleInvariant) {
  const core::FabricReport ref = run_boundary_exchange();  // uncontrolled reference
  ASSERT_GT(ref.boundary_links, 0) << "the carve must cut links";
  ASSERT_GT(ref.windows, 1u) << "the run must cross window barriers";
  const std::string ref_text = fabric_report_text(ref);

  const int seeds = seeds_from_env();
  for (int seed = 1; seed <= seeds; ++seed) {
    sched::Options o;
    o.mode = sched::Options::Mode::kRandom;
    o.seed = static_cast<std::uint64_t>(seed);
    sched::Session session(o);
    const std::string got = fabric_report_text(run_boundary_exchange());
    ASSERT_EQ(session.error(), "") << "seed " << seed;
    EXPECT_GT(shard_barrier_decisions(session), 0u) << "seed " << seed;
    if (got != ref_text)
      FAIL() << "boundary exchange diverged under schedule seed " << seed << "; "
             << save_failing_trace(session.trace(),
                                   "boundary_seed" + std::to_string(seed));
  }
}

// ---- mutation: the explorer must catch a planted merge-order bug ------------

TEST(SchedExplore, PlantedMergeBugIsCaughtReplayedAndMinimized) {
  const core::Campaign c = quick_campaign();
  obs::Registry& reg = obs::Registry::process();
  const bool was_enabled = reg.enabled();
  reg.set_enabled(true);

  reg.reset();
  core::CampaignEngine(campaign_opts(1)).run(c);
  const double expected = reg.counter("sim.engine.events_dispatched").value();
  ASSERT_GT(expected, 0.0);

  MutationGuard mutation(true);
  constexpr int kBudget = 10;  // schedules the explorer gets to find the bug
  sched::Trace failing;
  double broken_total = 0.0;
  int caught_at = 0;
  for (int seed = 1; seed <= kBudget && caught_at == 0; ++seed) {
    reg.reset();
    sched::Options o;
    o.mode = sched::Options::Mode::kRandom;
    o.seed = static_cast<std::uint64_t>(seed);
    sched::Session session(o);
    core::CampaignEngine(campaign_opts(4)).run(c);
    if (!session.error().empty()) continue;
    const double got = reg.counter("sim.engine.events_dispatched").value();
    if (got != expected) {
      caught_at = seed;
      failing = session.trace();
      broken_total = got;
    }
  }
  ASSERT_GT(caught_at, 0) << "planted merge bug not caught within " << kBudget
                          << " schedules";

  // The recorded schedule replays the failure bitwise: same wrong total.
  {
    reg.reset();
    sched::Options o;
    o.mode = sched::Options::Mode::kReplay;
    o.replay = failing;
    sched::Session session(o);
    core::CampaignEngine(campaign_opts(4)).run(c);
    ASSERT_EQ(session.error(), "");
    EXPECT_EQ(reg.counter("sim.engine.events_dispatched").value(), broken_total);
  }

  // Greedy minimization: the shrunken override trace must still fail.
  const auto fails = [&](const sched::Trace& cand) {
    reg.reset();
    sched::Options o;
    o.mode = sched::Options::Mode::kOverrides;
    o.replay = cand;
    sched::Session session(o);
    core::CampaignEngine(campaign_opts(4)).run(c);
    if (!session.error().empty()) return false;
    return reg.counter("sim.engine.events_dispatched").value() != expected;
  };
  const sched::Trace minimized = sched::minimize_trace(failing, fails);
  EXPECT_LE(minimized.size(), sched::to_overrides(failing).size());
  EXPECT_TRUE(fails(minimized)) << minimized.serialize();

  reg.reset();
  reg.set_enabled(was_enabled);
}

// ---- bounded exhaustive enumeration over a small campaign -------------------

TEST(SchedExplore, BoundedExhaustiveSmallCampaignNeverDiverges) {
  core::Campaign c("sched_exhaustive_campaign",
                   core::SweepSpec(quick_base()).cores("cores", {0, 2}));
  c.column("lat_us", core::Campaign::latency_together_us());
  const std::string ref_table = table_text(c, core::CampaignEngine(campaign_opts(1)).run(c));

  bool diverged = false;
  std::string divergence;
  const auto result = sched::explore_exhaustive(
      2, 120,
      [&] {
        const core::CampaignRun run = core::CampaignEngine(campaign_opts(2)).run(c);
        if (table_text(c, run) != ref_table) diverged = true;
      },
      [&](const sched::Session& session) {
        if (!session.error().empty()) {
          divergence = session.error();
          return false;
        }
        if (diverged) {
          divergence = "table diverged; " +
                       save_failing_trace(session.trace(), "exhaustive_campaign");
          return false;
        }
        return true;
      });
  EXPECT_FALSE(result.stopped) << divergence;
  EXPECT_GT(result.schedules, 1);
}

}  // namespace
}  // namespace cci

#endif  // CCI_SCHED
