// Message descriptors and requests for the mini-MPI.
//
// Requests are slab-pooled: World::isend/irecv serve them from a
// World-owned sim::SlabPool, and RequestPtr is the pool's intrusive
// refcount (sim::RcPtr), so posting an operation costs no heap allocation
// once the pool is warm.  A RequestPtr may outlive its World: the pool
// orphans slabs that still hold live requests, and the last release frees
// them (see sim/pool.hpp).  Like every sim object, a request belongs to the
// thread that runs its World.
#pragma once

#include <cstddef>
#include <cstdint>

#include "sim/pool.hpp"
#include "sim/sync.hpp"

namespace cci::mpi {

/// Wildcards, MPI-style.
inline constexpr int kAnySource = -1;
inline constexpr int kAnyTag = -1;

/// Describes a message buffer: we simulate placement and identity, not
/// contents.  `data_numa` drives NUMA paths; `buffer_id` feeds the
/// registration cache (0 = anonymous, treated as already registered —
/// ping-pong benchmarks recycle buffers, §2.1).
struct MsgView {
  std::size_t bytes = 0;
  int data_numa = 0;
  std::uint64_t buffer_id = 0;
};

/// Operation outcome.  Everything is kOk on the healthy path; the reliable
/// transport surfaces bounded-retry failures instead of hanging.
enum class MpiStatus {
  kOk = 0,
  kTimedOut,   ///< retry budget exhausted without an acknowledged delivery
  kCorrupted,  ///< budget exhausted and the last failure was a CRC mismatch
  kCancelled,  ///< aborted by runtime failover (owner rank/worker died)
};

/// Completion handle for a nonblocking operation; `co_await *req` waits.
/// Always check `status()` after a wait when faults may be armed: a request
/// completes (event set) on failure too, carrying the error here.
class Request : public sim::RcPooled<Request> {
 public:
  explicit Request(sim::Engine& engine) : done_(engine) {}
  sim::OneShotEvent& done() { return done_; }
  [[nodiscard]] bool test() const { return done_.is_set(); }
  [[nodiscard]] MpiStatus status() const { return status_; }
  [[nodiscard]] bool ok() const { return status_ == MpiStatus::kOk; }
  /// Complete with an error (idempotent; the first completion wins).
  void fail(MpiStatus status) {
    if (done_.is_set()) return;
    status_ = status;
    done_.set();
  }
  auto operator co_await() { return done_.wait(); }

 private:
  sim::OneShotEvent done_;
  MpiStatus status_ = MpiStatus::kOk;
};

using RequestPtr = sim::RcPtr<Request>;

}  // namespace cci::mpi
