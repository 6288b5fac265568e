// The schedule explorer itself, driven by hand-made threads calling the
// sched:: runtime directly — these tests run in every build (the hook
// *macros* compile out without CCI_SCHED, but the library is always there).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <mutex>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "sched/explorer.hpp"

namespace cci::sched {
namespace {

/// Two controlled threads, each hitting `points_per_thread` kQueuePop
/// points and appending "<name><i>" to a shared log while holding the
/// scheduler token.  Returns the log; optionally exports the error string
/// and the recorded full trace.
std::vector<std::string> run_pair_workload(const Options& o, int points_per_thread,
                                           std::string* err = nullptr,
                                           Trace* full = nullptr) {
  std::vector<std::string> log;
  std::mutex log_mu;  // belt-and-braces for aborted (free-running) schedules
  Session session(o);
  expect_thread("a");
  expect_thread("b");
  auto body = [&](const char* name) {
    ThreadScope scope(name);
    for (int i = 0; i < points_per_thread; ++i) {
      point(Kind::kQueuePop, static_cast<std::uint64_t>(i));
      std::lock_guard<std::mutex> lk(log_mu);
      log.push_back(std::string(name) + std::to_string(i));
    }
  };
  std::thread ta(body, "a");
  std::thread tb(body, "b");
  await_thread_exit("a");
  await_thread_exit("b");
  {
    BlockedScope scope;
    ta.join();
    tb.join();
  }
  if (err != nullptr) *err = session.error();
  if (full != nullptr) *full = session.trace();
  return log;
}

TEST(SchedKind, NamesRoundTrip) {
  for (int i = 0; i <= static_cast<int>(Kind::kBlockedExit); ++i) {
    const Kind k = static_cast<Kind>(i);
    Kind back = Kind::kThreadBegin;
    ASSERT_TRUE(kind_from_name(kind_name(k), back)) << kind_name(k);
    EXPECT_EQ(back, k);
  }
  Kind out = Kind::kThreadBegin;
  EXPECT_FALSE(kind_from_name("no_such_kind", out));
}

TEST(SchedTrace, FullShapeSerializeParseRoundTrips) {
  Trace t;
  t.steps.push_back(Decision{0, "main", Kind::kCacheRead, 42, {"main"}});
  t.steps.push_back(Decision{1, "a", Kind::kQueuePop, 0, {"a", "b", "main"}});
  t.steps.push_back(Decision{2, "b#2", Kind::kBarrierArrive, 7, {"b#2", "main"}});
  const Trace back = Trace::parse(t.serialize());
  ASSERT_FALSE(back.sparse);
  ASSERT_EQ(back.steps.size(), t.steps.size());
  for (std::size_t i = 0; i < t.steps.size(); ++i) {
    EXPECT_EQ(back.steps[i].step, t.steps[i].step);
    EXPECT_EQ(back.steps[i].thread, t.steps[i].thread);
    EXPECT_EQ(back.steps[i].kind, t.steps[i].kind);
    EXPECT_EQ(back.steps[i].id, t.steps[i].id);
    EXPECT_EQ(back.steps[i].runnable, t.steps[i].runnable);
  }
  // Byte-stable: serializing the parse reproduces the original text.
  EXPECT_EQ(back.serialize(), t.serialize());
}

TEST(SchedTrace, OverridesShapeSerializeParseRoundTrips) {
  Trace t;
  t.sparse = true;
  t.overrides[3] = "b";
  t.overrides[17] = "campaign.worker.1";
  const Trace back = Trace::parse(t.serialize());
  EXPECT_TRUE(back.sparse);
  EXPECT_EQ(back.overrides, t.overrides);
}

TEST(SchedTrace, ParseRejectsGarbage) {
  EXPECT_THROW(Trace::parse(""), std::runtime_error);
  EXPECT_THROW(Trace::parse("bogus header\nend\n"), std::runtime_error);
  EXPECT_THROW(Trace::parse("cci-sched-trace v1 full\n"), std::runtime_error);  // no end
  EXPECT_THROW(Trace::parse("cci-sched-trace v1 full\nstep x\nend\n"),
               std::runtime_error);
}

TEST(SchedTrace, ParseRejectsEachMalformationNamingTheLine) {
  const std::string full = "cci-sched-trace v1 full\n";
  const std::string sparse = "cci-sched-trace v1 overrides\n";
  const struct {
    std::string text;
    std::string line;  ///< the error must name this line number
  } cases[] = {
      {sparse + "override 3 t1 junk\nend\n", "line 2"},              // trailing token
      {"cci-sched-trace v1 full junk\nend\n", "line 1"},              // header garbage
      {sparse + "override -1 t1\nend\n", "line 2"},                   // negative step
      {sparse + "override 3 a\noverride 3 b\nend\n", "line 3"},       // duplicate step
      {sparse + "override 5 a\noverride 3 b\nend\n", "line 3"},       // decreasing step
      {full + "override 3 t1\nend\n", "line 2"},                      // other shape
      {sparse + "step 0 main cache_read 1 main\nend\n", "line 2"},    // other shape
      {sparse + "override 3 t1\nend\nmore\n", "line 4"},              // after end
      {full + "step 0 main cache_read -1 main\nend\n", "line 2"},     // negative id
      {full + "step 0 main cache_read 1 main,\nend\n", "line 2"},     // empty name
      {full + "step 00 main cache_read 1 main\nend\n", "line 2"},     // non-canonical
  };
  for (const auto& c : cases) {
    try {
      (void)Trace::parse(c.text);
      ADD_FAILURE() << "accepted:\n" << c.text;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(c.line), std::string::npos)
          << e.what() << "\nfor:\n" << c.text;
    }
  }
}

/// Seeded generator of valid traces of either shape: steps strictly
/// increasing with gaps, any kind, ids across the whole u64 range, and a
/// name-sorted runnable set that contains the granted thread.
Trace random_trace(std::mt19937_64& rng, bool sparse) {
  static const std::vector<std::string> kNames = {"a", "b#2", "campaign.worker.1", "main",
                                                  "shard.3"};
  Trace t;
  t.sparse = sparse;
  std::size_t step = rng() % 3;
  const int n = static_cast<int>(rng() % 10);  // 0 = header + end only
  for (int i = 0; i < n; ++i) {
    const std::string& thread = kNames[rng() % kNames.size()];
    if (sparse) {
      t.overrides[step] = thread;
    } else {
      Decision d;
      d.step = step;
      d.thread = thread;
      d.kind = static_cast<Kind>(rng() % (static_cast<int>(Kind::kBlockedExit) + 1));
      d.id = rng() % 3 == 0 ? rng() : rng() % 100;
      for (const std::string& name : kNames)
        if (name == thread || rng() % 2 == 0) d.runnable.push_back(name);
      t.steps.push_back(std::move(d));
    }
    step += 1 + (rng() % 4 == 0 ? rng() % 1000 : 0);
  }
  return t;
}

using TokenLines = std::vector<std::vector<std::string>>;

TokenLines split_tokens(const std::string& text) {
  TokenLines lines;
  std::istringstream is(text);
  std::string line;
  while (std::getline(is, line)) {
    std::istringstream ls(line);
    std::vector<std::string> toks;
    std::string tok;
    while (ls >> tok) toks.push_back(tok);
    lines.push_back(std::move(toks));
  }
  return lines;
}

std::string join_tokens(const TokenLines& lines) {
  std::string out;
  for (const auto& toks : lines) {
    for (std::size_t j = 0; j < toks.size(); ++j) out += (j != 0 ? " " : "") + toks[j];
    out += '\n';
  }
  return out;
}

/// Replacements for token (i, j) that no valid trace can contain there.
/// Thread names are free-form, so they get none: deletion and insertion
/// still cover them.
std::vector<std::string> invalid_replacements(const TokenLines& lines, std::size_t i,
                                              std::size_t j, bool sparse) {
  const std::string& tok = lines[i][j];
  if (i == 0 || i + 1 == lines.size()) return {"?junk"};  // header, end
  switch (j) {
    case 0:  // line tag
      return {"?junk", sparse ? "step" : "override"};
    case 1: {  // step number
      std::vector<std::string> out = {"-1", "+1", "0" + tok, "?junk"};
      if (i > 1) {
        out.push_back(lines[i - 1][1]);  // duplicate of the previous step
        out.push_back("0");              // not after the previous step
      }
      return out;
    }
    case 2:  // thread
      return {};
    case 3:  // kind
      return {"?junk"};
    case 4:  // id
      return {"-1", "0" + tok, "?junk"};
    default:  // runnable list
      return {tok + ",", "," + tok};
  }
}

TEST(SchedTrace, GeneratedTracesRoundTripAndEveryTokenCorruptionThrows) {
  std::mt19937_64 rng(2024);
  int corruptions = 0;
  for (int round = 0; round < 200; ++round) {
    const bool sparse = round % 2 == 1;
    const std::string text = random_trace(rng, sparse).serialize();
    ASSERT_EQ(Trace::parse(text).serialize(), text) << text;
    const TokenLines lines = split_tokens(text);
    ASSERT_EQ(join_tokens(lines), text);
    const auto expect_rejected = [&](const TokenLines& bad, const std::string& what) {
      ++corruptions;
      EXPECT_THROW((void)Trace::parse(join_tokens(bad)), std::runtime_error)
          << what << " accepted:\n" << join_tokens(bad);
    };
    for (std::size_t i = 0; i < lines.size(); ++i) {
      for (std::size_t j = 0; j < lines[i].size(); ++j) {
        TokenLines del = lines;
        del[i].erase(del[i].begin() + static_cast<std::ptrdiff_t>(j));
        expect_rejected(del, "deleting '" + lines[i][j] + "'");
        TokenLines ins = lines;
        ins[i].insert(ins[i].begin() + static_cast<std::ptrdiff_t>(j) + 1, "?junk");
        expect_rejected(ins, "inserting after '" + lines[i][j] + "'");
        for (const std::string& r : invalid_replacements(lines, i, j, sparse)) {
          TokenLines rep = lines;
          rep[i][j] = r;
          expect_rejected(rep, "replacing '" + lines[i][j] + "' by '" + r + "'");
        }
      }
    }
    TokenLines after_end = lines;
    after_end.push_back({"?junk"});
    expect_rejected(after_end, "text after end");
  }
  EXPECT_GT(corruptions, 2000);
}

TEST(SchedSession, PointsAreNoOpsWithoutASession) {
  EXPECT_FALSE(active());
  EXPECT_FALSE(controlled());
  point(Kind::kQueuePop, 0);  // must simply return
  yield_wait(1);
  expect_thread("nobody");
  await_thread_exit("nobody");
  ThreadScope scope("uncontrolled");
  BlockedScope blocked;
}

TEST(SchedSession, SameSeedSameSchedule) {
  Options o;
  o.mode = Options::Mode::kRandom;
  o.seed = 1234;
  std::string e1;
  std::string e2;
  Trace t1;
  Trace t2;
  const auto log1 = run_pair_workload(o, 4, &e1, &t1);
  const auto log2 = run_pair_workload(o, 4, &e2, &t2);
  EXPECT_EQ(e1, "");
  EXPECT_EQ(e2, "");
  EXPECT_EQ(log1, log2);
  EXPECT_EQ(t1.serialize(), t2.serialize());
  EXPECT_EQ(log1.size(), 8u);
}

TEST(SchedSession, DifferentSeedsExploreDifferentSchedules) {
  std::set<std::string> seen;
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    Options o;
    o.mode = Options::Mode::kRandom;
    o.seed = seed;
    std::string err;
    const auto log = run_pair_workload(o, 3, &err);
    ASSERT_EQ(err, "") << "seed " << seed;
    std::string flat;
    for (const auto& s : log) flat += s + ",";
    seen.insert(flat);
  }
  // 16 seeds over interleavings of 2x3 points: more than one distinct order.
  EXPECT_GT(seen.size(), 1u);
}

TEST(SchedSession, PctModeIsSeedDeterministicToo) {
  Options o;
  o.mode = Options::Mode::kPct;
  o.seed = 99;
  o.pct_depth = 3;
  std::string e1;
  std::string e2;
  const auto log1 = run_pair_workload(o, 4, &e1);
  const auto log2 = run_pair_workload(o, 4, &e2);
  EXPECT_EQ(e1, "");
  EXPECT_EQ(e2, "");
  EXPECT_EQ(log1, log2);
}

TEST(SchedSession, RecordedTraceReplaysBitwise) {
  Options record;
  record.mode = Options::Mode::kRandom;
  record.seed = 7;
  std::string err;
  Trace full;
  const auto recorded_log = run_pair_workload(record, 4, &err, &full);
  ASSERT_EQ(err, "");

  Options replay;
  replay.mode = Options::Mode::kReplay;
  replay.replay = full;
  Trace replayed;
  const auto replay_log = run_pair_workload(replay, 4, &err, &replayed);
  EXPECT_EQ(err, "");
  EXPECT_EQ(replay_log, recorded_log);
  EXPECT_EQ(replayed.serialize(), full.serialize());
}

TEST(SchedSession, ReplayOfTheWrongWorkloadAbortsWithDivergence) {
  Options record;
  record.mode = Options::Mode::kRandom;
  record.seed = 7;
  std::string err;
  Trace full;
  run_pair_workload(record, 4, &err, &full);
  ASSERT_EQ(err, "");

  Options replay;
  replay.mode = Options::Mode::kReplay;
  replay.replay = full;
  run_pair_workload(replay, 2, &err);  // fewer points: workload diverges
  EXPECT_NE(err.find("divergence"), std::string::npos) << err;
}

TEST(SchedSession, OverridesReproduceTheRecordedOrder) {
  Options record;
  record.mode = Options::Mode::kRandom;
  record.seed = 21;
  std::string err;
  Trace full;
  const auto recorded_log = run_pair_workload(record, 4, &err, &full);
  ASSERT_EQ(err, "");

  Options replay;
  replay.mode = Options::Mode::kOverrides;
  replay.replay = to_overrides(full);
  const auto replay_log = run_pair_workload(replay, 4, &err);
  EXPECT_EQ(err, "");
  EXPECT_EQ(replay_log, recorded_log);
}

TEST(SchedSession, CondWaitDeadlockIsDetectedNotHung) {
  Options o;
  o.mode = Options::Mode::kRandom;
  o.seed = 3;
  std::atomic<bool> flag{false};
  Session session(o);
  expect_thread("waiter");
  std::thread t([&flag] {
    ThreadScope scope("waiter");
    while (!flag.load()) yield_wait(1);
  });
  await_thread_exit("waiter");  // both sides now wait on a cond nobody can set
  EXPECT_NE(session.error().find("deadlock"), std::string::npos) << session.error();
  flag.store(true);  // release the free-running waiter
  t.join();
  EXPECT_THROW(session.finish(), ScheduleError);
}

TEST(SchedSession, NativeWaitWithoutBlockedScopeTimesOutWithDiagnostic) {
  Options o;
  o.mode = Options::Mode::kPrefix;
  o.prefix = {"a"};  // force the granted thread to be the one that blocks
  o.timeout = std::chrono::milliseconds(200);
  std::promise<void> gate;
  std::shared_future<void> release = gate.get_future().share();
  Session session(o);
  expect_thread("a");
  std::thread t([release] {
    ThreadScope scope("a");
    release.wait();  // native wait while holding the token: a schedule bug
  });
  point(Kind::kQueuePop, 0);  // parks "main"; "a" is granted and wedges
  EXPECT_NE(session.error().find("waited"), std::string::npos) << session.error();
  gate.set_value();
  t.join();
}

TEST(SchedMinimize, ShrinksAnOrderBugToItsDecisiveOverride) {
  // Planted order bug: the failure shows iff "b" logs before "a" ever logs.
  const auto first_is_b = [](const std::vector<std::string>& log) {
    return !log.empty() && log.front()[0] == 'b';
  };
  // Find a failing random schedule.
  Trace failing;
  bool found = false;
  for (std::uint64_t seed = 1; seed <= 64 && !found; ++seed) {
    Options o;
    o.mode = Options::Mode::kRandom;
    o.seed = seed;
    std::string err;
    Trace full;
    const auto log = run_pair_workload(o, 3, &err, &full);
    if (err.empty() && first_is_b(log)) {
      failing = full;
      found = true;
    }
  }
  ASSERT_TRUE(found) << "no random schedule let b run first in 64 seeds";

  const auto fails = [&first_is_b](const Trace& cand) {
    Options o;
    o.mode = Options::Mode::kOverrides;
    o.replay = cand;
    std::string err;
    const auto log = run_pair_workload(o, 3, &err);
    return err.empty() && first_is_b(log);
  };
  ASSERT_TRUE(fails(to_overrides(failing)));  // sanity: sparse form still fails
  const Trace minimized = minimize_trace(failing, fails);
  // "b" needs exactly two non-default grants to log first: one to leave its
  // thread-begin park and one for its first pop, both before "a"'s first pop.
  // The default policy picks "a" at both steps, so two overrides are provably
  // minimal — the minimizer must land there, never above.
  EXPECT_EQ(minimized.overrides.size(), 2u) << minimized.serialize();
  EXPECT_TRUE(fails(minimized));
}

TEST(SchedExhaustive, EnumeratesAllInterleavingsOfATinyWorkload) {
  std::set<std::string> orders;
  const auto result = explore_exhaustive(
      8, 512,
      [&orders] {
        std::vector<std::string> log;
        std::mutex log_mu;
        expect_thread("a");
        expect_thread("b");
        auto body = [&](const char* name) {
          ThreadScope scope(name);
          for (int i = 0; i < 2; ++i) {
            point(Kind::kQueuePop, static_cast<std::uint64_t>(i));
            std::lock_guard<std::mutex> lk(log_mu);
            log.push_back(std::string(name) + std::to_string(i));
          }
        };
        std::thread ta(body, "a");
        std::thread tb(body, "b");
        await_thread_exit("a");
        await_thread_exit("b");
        {
          BlockedScope scope;
          ta.join();
          tb.join();
        }
        std::string flat;
        for (const auto& s : log) flat += s + ",";
        orders.insert(flat);
      },
      [](const Session& s) { return s.error().empty(); });
  EXPECT_TRUE(result.exhausted) << result.schedules << " schedules";
  EXPECT_FALSE(result.stopped);
  // Interleavings of two 2-step sequences: C(4,2) = 6 distinct log orders.
  EXPECT_EQ(orders.size(), 6u);
}

TEST(SchedExhaustive, PreemptionBoundPrunesTheFrontier) {
  const auto count_with_bound = [](int bound) {
    const auto result = explore_exhaustive(
        bound, 512,
        [] {
          expect_thread("a");
          expect_thread("b");
          auto body = [](const char* name) {
            ThreadScope scope(name);
            for (int i = 0; i < 2; ++i)
              point(Kind::kQueuePop, static_cast<std::uint64_t>(i));
          };
          std::thread ta(body, "a");
          std::thread tb(body, "b");
          await_thread_exit("a");
          await_thread_exit("b");
          BlockedScope scope;
          ta.join();
          tb.join();
        },
        [](const Session& s) { return s.error().empty(); });
    EXPECT_TRUE(result.exhausted);
    return result.schedules;
  };
  const int tight = count_with_bound(0);
  const int loose = count_with_bound(8);
  EXPECT_GE(tight, 1);
  EXPECT_LT(tight, loose);
}

}  // namespace
}  // namespace cci::sched
