// EventQueue: retime semantics, cancelled-entry compaction, node recycling,
// and the resume-entry dispatch path.
#include <gtest/gtest.h>

#include <algorithm>
#include <coroutine>
#include <exception>
#include <utility>
#include <vector>

#include "sim/engine.hpp"
#include "sim/event_queue.hpp"
#include "sim/rng.hpp"

namespace cci::sim {
namespace {

/// Dispatch loop in miniature: peek() + pop() the earliest live event and
/// return its time (kNever once the queue is drained).
Time pop_next(EventQueue& q) {
  Time t = kNever;
  if (!q.peek(t)) return kNever;
  return q.pop().time;
}

/// Run every pending event in order, the way Engine::run dispatches them.
void drain(EventQueue& q) {
  Time t = kNever;
  while (q.peek(t)) q.pop().run();
}

/// Minimal coroutine type owning its frame: created suspended, runs when
/// the queue resumes it, then parks at its final suspend point.
struct Probe {
  struct promise_type {
    Probe get_return_object() {
      return Probe{std::coroutine_handle<promise_type>::from_promise(*this)};
    }
    std::suspend_always initial_suspend() noexcept { return {}; }
    std::suspend_always final_suspend() noexcept { return {}; }
    void return_void() noexcept {}
    void unhandled_exception() noexcept { std::terminate(); }
  };
  explicit Probe(std::coroutine_handle<promise_type> handle) : h(handle) {}
  Probe(Probe&& o) noexcept : h(std::exchange(o.h, {})) {}
  Probe(const Probe&) = delete;
  Probe& operator=(const Probe&) = delete;
  Probe& operator=(Probe&&) = delete;
  ~Probe() {
    if (h) h.destroy();
  }
  std::coroutine_handle<promise_type> h;
};

/// Appends `id` to `log` when resumed.
Probe log_on_resume(std::vector<int>& log, int id) {
  log.push_back(id);
  co_return;
}

TEST(EventQueue, CancelRescheduleDoesNotGrowHeapUnboundedly) {
  // The engine's old change-point pattern: cancel the completion timer and
  // schedule a fresh one, thousands of times.  Every cancelled node used to
  // linger in the heap until its (possibly far-future) time surfaced; the
  // compaction pass now bounds the heap to ~2x the live entries.
  EventQueue q;
  EventQueue::Handle timer;
  for (int i = 0; i < 100000; ++i) {
    timer.cancel();
    timer = q.schedule(1e9 + i, [] {});  // far future: never pops naturally
  }
  EXPECT_EQ(q.live_size(), 1u);
  EXPECT_LE(q.size_estimate(), 16u);  // compaction threshold, not 100000
}

TEST(EventQueue, RetimeLeavesNoGarbageAtAll) {
  EventQueue q;
  EventQueue::Handle timer = q.schedule(1e9, [] {});
  for (int i = 0; i < 100000; ++i) EXPECT_TRUE(q.retime(timer, 1e9 + i));
  EXPECT_EQ(q.size_estimate(), 1u);
  EXPECT_EQ(q.live_size(), 1u);
  EXPECT_TRUE(timer.pending());
}

TEST(EventQueue, RetimeMovesEventAndKeepsCallback) {
  EventQueue q;
  std::vector<int> order;
  auto a = q.schedule(1.0, [&] { order.push_back(1); });
  q.schedule(2.0, [&] { order.push_back(2); });
  ASSERT_TRUE(q.retime(a, 3.0));  // 1 -> after 2
  drain(q);
  EXPECT_EQ(order, (std::vector<int>{2, 1}));
}

TEST(EventQueue, RetimeResequencesLikeAFreshSchedule) {
  // Two events at the same instant run in scheduling order; a retimed event
  // counts as freshly scheduled (exactly what cancel+reschedule used to do).
  EventQueue q;
  std::vector<int> order;
  auto a = q.schedule(1.0, [&] { order.push_back(1); });
  q.schedule(5.0, [&] { order.push_back(2); });
  ASSERT_TRUE(q.retime(a, 5.0));
  drain(q);
  EXPECT_EQ(order, (std::vector<int>{2, 1}));
}

TEST(EventQueue, RetimeFailsOnFiredCancelledOrInertHandles) {
  EventQueue q;
  EventQueue::Handle inert;
  EXPECT_FALSE(q.retime(inert, 1.0));

  auto fired = q.schedule(1.0, [] {});
  (void)pop_next(q);
  EXPECT_FALSE(q.retime(fired, 2.0));
  EXPECT_FALSE(fired.pending());

  auto cancelled = q.schedule(1.0, [] {});
  cancelled.cancel();
  EXPECT_FALSE(q.retime(cancelled, 2.0));
}

TEST(EventQueue, RecycledNodesDoNotResurrectOldHandles) {
  EventQueue q;
  auto h1 = q.schedule(1.0, [] {});
  (void)pop_next(q);  // node goes to the free-list
  auto h2 = q.schedule(2.0, [] {});  // recycles the same node
  EXPECT_FALSE(h1.pending());
  EXPECT_TRUE(h2.pending());
  h1.cancel();  // stale handle: must be inert, not cancel h2's event
  EXPECT_TRUE(h2.pending());
  EXPECT_EQ(q.live_size(), 1u);
}

TEST(EventQueue, CompactionPreservesPopOrder) {
  Rng rng(17);
  EventQueue q;
  std::vector<EventQueue::Handle> handles;
  std::vector<double> expected;
  for (int i = 0; i < 400; ++i) {
    double t = rng.uniform(0.0, 100.0);
    handles.push_back(q.schedule(t, [] {}));
    expected.push_back(t);
  }
  // Cancel ~three quarters, triggering at least one compaction sweep.
  std::vector<double> surviving;
  for (std::size_t i = 0; i < handles.size(); ++i) {
    if (i % 4 != 0) {
      handles[i].cancel();
    } else {
      surviving.push_back(expected[i]);
    }
  }
  std::sort(surviving.begin(), surviving.end());
  EXPECT_EQ(q.live_size(), surviving.size());
  std::vector<double> popped;
  for (Time t = pop_next(q); t != kNever; t = pop_next(q)) popped.push_back(t);
  EXPECT_EQ(popped, surviving);
}

TEST(EventQueue, LiveSizeExcludesLazilyCancelledEntries) {
  EventQueue q;
  auto a = q.schedule(1.0, [] {});
  q.schedule(2.0, [] {});
  q.schedule(3.0, [] {});
  EXPECT_EQ(q.live_size(), 3u);
  a.cancel();
  EXPECT_EQ(q.live_size(), 2u);
  EXPECT_GE(q.size_estimate(), q.live_size());
}

TEST(EventQueue, RetimeBurstSweepsCancelledEntriesLeftByPops) {
  // Pops shrink the heap without re-checking the cancelled fraction, so a
  // heap can sit at > 50% cancelled entries indefinitely if no further
  // cancel arrives.  A retime burst through such a heap must trigger the
  // sweep itself (it used to sift through the garbage forever).
  EventQueue q;
  std::vector<EventQueue::Handle> far;
  for (int i = 0; i < 100; ++i) q.schedule(static_cast<double>(i), [] {});
  for (int i = 0; i < 80; ++i)
    far.push_back(q.schedule(1e9 + i, [] {}));  // never pops naturally
  auto live_far = q.schedule(2e9, [] {});
  // 80 cancels against a heap of 181: never crosses the half bound.
  for (auto& h : far) h.cancel();
  ASSERT_EQ(q.live_size(), 101u);
  // Pop the 100 near entries: the heap shrinks to 81 slots of which 80 are
  // cancelled — way past the bound, with no cancel left to notice it.
  for (int i = 0; i < 100; ++i) (void)pop_next(q);
  ASSERT_EQ(q.live_size(), 1u);
  ASSERT_GT(q.size_estimate(), 40u);
  EXPECT_TRUE(q.retime(live_far, 3e9));
  EXPECT_EQ(q.size_estimate(), 1u);  // retime compacted before sifting
  EXPECT_EQ(q.live_size(), 1u);
  q.check_live_size();
}

TEST(EventQueue, CheckLiveSizeAuditHoldsThroughChurn) {
  Rng rng(23);
  EventQueue q;
  std::vector<EventQueue::Handle> handles;
  for (int round = 0; round < 50; ++round) {
    for (int i = 0; i < 20; ++i)
      handles.push_back(q.schedule(rng.uniform(0.0, 100.0), [] {}));
    for (std::size_t i = 0; i < handles.size(); i += 3) handles[i].cancel();
    for (std::size_t i = 1; i < handles.size(); i += 3)
      q.retime(handles[i], rng.uniform(0.0, 100.0));
    for (int i = 0; i < 5; ++i) (void)pop_next(q);
    ASSERT_NO_THROW(q.check_live_size()) << "round " << round;
  }
}

TEST(EventQueue, ResumeAndCallbackEntriesShareOneFifoOrder) {
  // Both entry kinds draw from one sequence counter: at one instant they
  // interleave exactly in scheduling order, whatever their kind.
  EventQueue q;
  std::vector<int> log;
  Probe r1 = log_on_resume(log, 1);
  Probe r3 = log_on_resume(log, 3);
  Probe r5 = log_on_resume(log, 5);
  q.schedule(2.0, [&] { log.push_back(6); });  // later instant, scheduled first
  q.schedule_resume(1.0, r1.h);
  q.schedule(1.0, [&] { log.push_back(2); });
  q.schedule_resume(1.0, r3.h);
  q.schedule(1.0, [&] { log.push_back(4); });
  q.schedule_resume(1.0, r5.h);
  q.schedule(0.5, [&] { log.push_back(0); });  // earlier instant, scheduled last
  drain(q);
  EXPECT_EQ(log, (std::vector<int>{0, 1, 2, 3, 4, 5, 6}));
  EXPECT_TRUE(r1.h.done() && r3.h.done() && r5.h.done());
}

TEST(EventQueue, CancelledCallbackAmongResumeEntriesIsPruned) {
  EventQueue q;
  std::vector<int> log;
  std::vector<Probe> probes;
  for (int i = 0; i < 8; ++i) probes.push_back(log_on_resume(log, i));
  // A cancelled callback at the very top, and more between resume entries.
  auto top = q.schedule(0.5, [&] { log.push_back(-1); });
  std::vector<EventQueue::Handle> cancelled;
  for (int i = 0; i < 8; ++i) {
    q.schedule_resume(1.0, probes[static_cast<std::size_t>(i)].h);
    cancelled.push_back(q.schedule(1.0, [&] { log.push_back(-1); }));
  }
  top.cancel();
  for (auto& h : cancelled) h.cancel();
  EXPECT_EQ(q.live_size(), 8u);
  ASSERT_NO_THROW(q.check_live_size());
  Time t = kNever;
  ASSERT_TRUE(q.peek(t));
  EXPECT_EQ(t, 1.0);  // the cancelled top entry was pruned, not reported
  ASSERT_NO_THROW(q.check_live_size());
  drain(q);
  EXPECT_EQ(log, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
  EXPECT_EQ(q.live_size(), 0u);
  EXPECT_EQ(q.size_estimate(), 0u);
  ASSERT_NO_THROW(q.check_live_size());
}

TEST(EventQueue, CancelledResumeEntryNeverResumes) {
  EventQueue q;
  std::vector<int> log;
  Probe p = log_on_resume(log, 1);
  auto h = q.schedule_resume(1.0, p.h);
  EXPECT_TRUE(h.pending());
  EXPECT_TRUE(q.retime(h, 2.0));
  h.cancel();
  drain(q);
  EXPECT_TRUE(log.empty());
  EXPECT_FALSE(p.h.done());
}

TEST(EngineRetime, RetimedCallbackFiresAtNewTime) {
  Engine engine;
  Time fired_at = -1.0;
  auto h = engine.call_at(1.0, [&] { fired_at = engine.now(); });
  EXPECT_TRUE(engine.retime(h, 4.0));
  engine.run();
  EXPECT_DOUBLE_EQ(fired_at, 4.0);
}

}  // namespace
}  // namespace cci::sim
