// Coroutine process type for the discrete-event engine.
//
// A simulated thread of control is a C++20 coroutine returning `Coro`.
// Processes are spawned with `Engine::spawn(...)`, which takes ownership of
// the coroutine frame and resumes it from the event loop.  A process
// suspends by `co_await`-ing engine awaitables (sleep, activity completion,
// mailbox receive, ...) and terminates by returning; the engine destroys the
// frame at final suspension.  A process leaves no completion record behind
// and cannot be joined: a parent that must wait for a child hands it a
// OneShotEvent to set just before it returns.
//
// Hot-path memory (see docs/PERFORMANCE.md):
//  * coroutine frames come from the thread-local FrameArena via the custom
//    operator new/delete on promise_type — recycled, not malloc'd;
//  * live processes form an intrusive doubly-linked list through their
//    promises, so the engine tracks them without a hash set.
//
// Exceptions must not escape a process: the simulation models hardware, and
// an escaped exception is a bug in the model, so we terminate loudly.
#pragma once

#include <coroutine>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <utility>

#include "sim/pool.hpp"

namespace cci::sim {

class Engine;

class Coro {
 public:
  struct promise_type {
    Engine* engine = nullptr;
    /// Intrusive links in the engine's live-process list (valid once
    /// spawned; the engine destroys still-live frames at teardown).
    promise_type* live_prev = nullptr;
    promise_type* live_next = nullptr;

    /// Frames recycle through the per-thread arena instead of malloc.
    static void* operator new(std::size_t size) {
      return FrameArena::local().allocate(size);
    }
    static void operator delete(void* p, std::size_t) noexcept {
      FrameArena::local().deallocate(p);
    }
    static void operator delete(void* p) noexcept {
      FrameArena::local().deallocate(p);
    }

    Coro get_return_object() {
      return Coro(std::coroutine_handle<promise_type>::from_promise(*this));
    }
    std::suspend_always initial_suspend() noexcept { return {}; }

    struct FinalAwaiter {
      bool await_ready() noexcept { return false; }
      // Defined in engine.hpp (needs Engine): notifies the engine, which
      // unlinks and destroys the frame.
      inline void await_suspend(std::coroutine_handle<promise_type> h) noexcept;
      void await_resume() noexcept {}
    };
    FinalAwaiter final_suspend() noexcept { return {}; }
    void return_void() noexcept {}
    void unhandled_exception() noexcept {
      std::fputs("cci::sim: exception escaped a simulation process\n", stderr);
      std::terminate();
    }
  };

  Coro(const Coro&) = delete;
  Coro& operator=(const Coro&) = delete;
  Coro(Coro&& other) noexcept : handle_(std::exchange(other.handle_, {})) {}
  Coro& operator=(Coro&& other) noexcept {
    if (this != &other) {
      destroy();
      handle_ = std::exchange(other.handle_, {});
    }
    return *this;
  }
  ~Coro() { destroy(); }

 private:
  friend class Engine;
  explicit Coro(std::coroutine_handle<promise_type> h) : handle_(h) {}
  void destroy() {
    if (handle_) {
      handle_.destroy();
      handle_ = {};
    }
  }
  /// Transfers frame ownership to the engine at spawn time.
  std::coroutine_handle<promise_type> release() { return std::exchange(handle_, {}); }

  std::coroutine_handle<promise_type> handle_;
};

}  // namespace cci::sim
