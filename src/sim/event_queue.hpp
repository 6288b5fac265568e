// A cancellable timer queue: the single ordering structure of the engine.
//
// Entries are (time, sequence, action) nodes in an index-tracked binary
// heap.  Sequence numbers give deterministic FIFO ordering among entries
// scheduled for the same instant, which is what makes whole simulations
// reproducible run-to-run.
//
// An action is either a std::function callback (schedule) or a bare
// coroutine handle to resume (schedule_resume).  Process wake-ups — spawn,
// sleep, yield, resume_soon — are the bulk of all events, and a handle
// entry costs none of the std::function construct/move/destroy a wrapping
// lambda would.  Both kinds share the pooled nodes and one sequence
// counter, so mixing them never changes the dispatch order.
//
// Dispatch is a peek() + pop() pair: peek() prunes cancelled entries off
// the top once and reports the earliest live time; pop() then removes that
// entry without pruning again.  earlier_than_top() answers, without
// touching the heap, whether a fresh entry would pop next — the engine's
// test for running a wake-up in place.
//
// Churn control (the engine's re-solve loop retimes one timer per change
// point, thousands of times per simulated second):
//
//  * retime() repositions a pending entry in place — no abandoned node is
//    left behind, unlike the classic cancel-and-reschedule pattern;
//  * entry nodes are pooled on an intrusive free-list and recycled as soon
//    as they fire or get pruned, so steady-state operation performs no
//    allocation;
//  * cancellation is lazy (the entry is skipped when it surfaces), but a
//    compaction pass eagerly sweeps cancelled entries whenever they exceed
//    half the heap, bounding the heap to <= 2x its live size.
//
// Handles are small (pointer + generation) and may be freely copied.  They
// must not outlive the owning queue (in practice: the Engine).
#pragma once

#include <cassert>
#include <coroutine>
#include <cstdint>
#include <deque>
#include <functional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "sim/time.hpp"

namespace cci::sim {

class EventQueue {
 public:
  using Callback = std::function<void()>;

  /// Handle used to cancel or retime a scheduled event.  Default-constructed
  /// handles are inert; cancelling twice is harmless.
  class Handle {
   public:
    Handle() = default;
    /// True if the event is still pending (not fired, not cancelled).
    [[nodiscard]] bool pending() const {
      return entry_ && entry_->gen == gen_ && entry_->state == State::kPending;
    }
    void cancel() {
      if (pending()) entry_->owner->cancel_entry(entry_);
    }

   private:
    friend class EventQueue;
    enum class State : std::uint8_t { kFree, kPending, kCancelled, kFired };
    struct Entry {
      Time time = kNever;
      std::uint64_t seq = 0;
      std::uint64_t gen = 0;  ///< bumped on recycle; stale handles go inert
      std::coroutine_handle<> resume;  ///< set: resume entry (fn unused)
      Callback fn;
      EventQueue* owner = nullptr;
      Entry* next_free = nullptr;  ///< intrusive free-list link
      std::size_t heap_pos = 0;
      State state = State::kFree;
    };
    Handle(Entry* e, std::uint64_t gen) : entry_(e), gen_(gen) {}
    Entry* entry_ = nullptr;
    std::uint64_t gen_ = 0;
  };

  /// A popped event: run() resumes the coroutine or calls the callback.
  struct Event {
    Time time = kNever;
    std::coroutine_handle<> resume;
    Callback fn;
    void run() {
      if (resume)
        resume.resume();
      else
        fn();
    }
  };

  /// Schedule `fn` to run at absolute time `t`.
  Handle schedule(Time t, Callback fn) {
    Entry* e = push(t);
    e->fn = std::move(fn);
    return Handle(e, e->gen);
  }

  /// Schedule coroutine `h` to be resumed at absolute time `t`.  Same
  /// ordering and handle semantics as schedule(), without a Callback.
  Handle schedule_resume(Time t, std::coroutine_handle<> h) {
    Entry* e = push(t);
    e->resume = h;
    return Handle(e, e->gen);
  }

  /// Move a pending event to time `t`, keeping its callback.  The event is
  /// re-sequenced as if freshly scheduled, so same-instant FIFO ordering is
  /// identical to a cancel-and-reschedule (but with zero heap garbage).
  /// Returns false (and does nothing) if the handle is not pending.
  bool retime(const Handle& h, Time t) {
    if (!h.pending() || h.entry_->owner != this) return false;
    // Pops shrink the heap without sweeping, so the cancelled fraction can
    // drift past the half bound between cancellations; retime bursts (the
    // flow model's per-change-point timer moves) would then sift through a
    // bloated heap thousands of times.  Re-check the bound here too.
    maybe_compact();
    Entry* e = h.entry_;
    e->time = t;
    e->seq = next_seq_++;
    sift_up(e->heap_pos);
    sift_down(e->heap_pos);
    return true;
  }

  /// Prune cancelled entries off the top; true when a live event remains,
  /// with its time stored in `t`.
  [[nodiscard]] bool peek(Time& t) const {
    prune();
    if (heap_.empty()) return false;
    t = heap_.front()->time;
    return true;
  }

  /// Remove and return the event the last peek() reported, marking it
  /// fired.  Precondition: that peek() returned true and the queue has not
  /// changed since.
  Event pop() {
    Entry* e = heap_.front();
    assert(e->state == Handle::State::kPending);
    remove_at(0);
    Event out{e->time, e->resume, std::move(e->fn)};
    e->state = Handle::State::kFired;
    free_entry(e);
    return out;
  }

  /// True when an entry scheduled now at time `t` would pop before every
  /// queued one: the heap is empty, or `t` is strictly earlier than the top
  /// entry, live or cancelled.  Prunes nothing.
  [[nodiscard]] bool earlier_than_top(Time t) const {
    return heap_.empty() || t < heap_.front()->time;
  }

  /// Heap slots currently occupied (live + not-yet-swept cancelled).
  [[nodiscard]] std::size_t size_estimate() const { return heap_.size(); }
  /// Events that are actually pending.
  [[nodiscard]] std::size_t live_size() const { return heap_.size() - n_cancelled_; }

  /// Invariant audit (O(n)): every heap entry's backlink is correct, only
  /// pending/cancelled entries occupy heap slots, and the cancelled count
  /// backing live_size() matches the heap contents.  Throws std::logic_error
  /// on violation.  Run by the engine under the watchdog; not a hot path.
  void check_live_size() const {
    std::size_t cancelled = 0;
    for (std::size_t i = 0; i < heap_.size(); ++i) {
      const Entry* e = heap_[i];
      if (e->heap_pos != i)
        throw std::logic_error("EventQueue: heap_pos backlink out of sync");
      if (e->state == Handle::State::kCancelled)
        ++cancelled;
      else if (e->state != Handle::State::kPending)
        throw std::logic_error("EventQueue: freed/fired entry still in heap");
    }
    if (cancelled != n_cancelled_)
      throw std::logic_error("EventQueue: live_size() out of sync with heap");
  }

 private:
  using Entry = Handle::Entry;

  /// Take a node, stamp (t, seq) and sift it into the heap; the caller
  /// fills in the action.
  Entry* push(Time t) {
    Entry* e = alloc_entry();
    e->time = t;
    e->seq = next_seq_++;
    e->state = Handle::State::kPending;
    e->heap_pos = heap_.size();
    heap_.push_back(e);
    sift_up(e->heap_pos);
    return e;
  }

  Entry* alloc_entry() {
    Entry* e;
    if (free_head_) {
      e = free_head_;
      free_head_ = e->next_free;
      e->next_free = nullptr;
    } else {
      pool_.emplace_back();
      e = &pool_.back();
      e->owner = this;
    }
    return e;
  }

  void free_entry(Entry* e) {
    ++e->gen;  // invalidate outstanding handles
    e->resume = nullptr;
    e->fn = nullptr;
    e->state = Handle::State::kFree;
    e->next_free = free_head_;
    free_head_ = e;
  }

  void cancel_entry(Entry* e) {
    e->state = Handle::State::kCancelled;
    ++n_cancelled_;
    maybe_compact();
  }

  /// Eager sweep: never let cancelled entries exceed half the heap.
  void maybe_compact() {
    if (heap_.size() >= 16 && n_cancelled_ * 2 > heap_.size()) compact();
  }

  [[nodiscard]] bool before(const Entry* a, const Entry* b) const {
    if (a->time != b->time) return a->time < b->time;
    return a->seq < b->seq;
  }

  void sift_up(std::size_t i) const {
    Entry* e = heap_[i];
    while (i > 0) {
      std::size_t parent = (i - 1) / 2;
      if (!before(e, heap_[parent])) break;
      heap_[i] = heap_[parent];
      heap_[i]->heap_pos = i;
      i = parent;
    }
    heap_[i] = e;
    e->heap_pos = i;
  }

  void sift_down(std::size_t i) const {
    Entry* e = heap_[i];
    const std::size_t n = heap_.size();
    for (;;) {
      std::size_t child = 2 * i + 1;
      if (child >= n) break;
      if (child + 1 < n && before(heap_[child + 1], heap_[child])) ++child;
      if (!before(heap_[child], e)) break;
      heap_[i] = heap_[child];
      heap_[i]->heap_pos = i;
      i = child;
    }
    heap_[i] = e;
    e->heap_pos = i;
  }

  /// Remove the entry at heap position i (does not free it).
  void remove_at(std::size_t i) const {
    Entry* last = heap_.back();
    heap_.pop_back();
    if (i < heap_.size()) {
      heap_[i] = last;
      last->heap_pos = i;
      sift_up(i);
      sift_down(i);
    }
  }

  /// Drop cancelled entries sitting at the top so peek()/pop() see a live
  /// event.
  void prune() const {
    while (!heap_.empty() && heap_.front()->state == Handle::State::kCancelled) {
      Entry* e = heap_.front();
      remove_at(0);
      --n_cancelled_;
      const_cast<EventQueue*>(this)->free_entry(e);
    }
  }

  /// Sweep every cancelled entry and re-heapify in O(n).
  void compact() {
    std::size_t keep = 0;
    for (std::size_t i = 0; i < heap_.size(); ++i) {
      Entry* e = heap_[i];
      if (e->state == Handle::State::kCancelled) {
        free_entry(e);
      } else {
        heap_[keep] = e;
        e->heap_pos = keep;
        ++keep;
      }
    }
    heap_.resize(keep);
    n_cancelled_ = 0;
    for (std::size_t i = keep / 2; i-- > 0;) sift_down(i);
  }

  mutable std::vector<Entry*> heap_;
  mutable std::size_t n_cancelled_ = 0;
  std::deque<Entry> pool_;  ///< stable storage; nodes recycled via free-list
  Entry* free_head_ = nullptr;
  std::uint64_t next_seq_ = 0;
};

}  // namespace cci::sim
