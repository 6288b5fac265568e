// Ping-pong benchmark: NetPIPE metrics over the mini-MPI (§2.1).
//
// Latency = half round-trip (MPI_Send begin to MPI_Recv end); bandwidth =
// bytes / latency.  Buffers are recycled (constant buffer_id) to benefit
// from the registration cache, exactly as in the paper.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "mpi/world.hpp"

namespace cci::mpi {

struct PingPongOptions {
  std::size_t bytes = 4;
  int iterations = 30;
  int warmup = 3;
  int tag = 99;
  /// NUMA node of the send/recv buffers on each side.
  int data_numa_a = 0;
  int data_numa_b = 0;
  /// Run until request_stop() instead of a fixed iteration count (used for
  /// side-by-side phases where the computation decides the duration).
  bool continuous = false;
};

class PingPong {
 public:
  PingPong(World& world, int rank_a, int rank_b, PingPongOptions options);

  /// Spawn both sides; complete() is set when rank A's loop finishes.
  void start();
  sim::OneShotEvent& complete() { return *complete_; }
  /// In continuous mode: finish the current iteration, then stop.
  void request_stop() { stop_ = true; }

  /// Per-iteration half-RTT latencies (seconds), warmup excluded.
  [[nodiscard]] const std::vector<double>& latencies() const { return latencies_; }
  /// Moves the latencies out, leaving latencies() empty.
  std::vector<double> take_latencies() { return std::exchange(latencies_, {}); }
  /// Per-iteration bandwidths (B/s).
  [[nodiscard]] std::vector<double> bandwidths() const;

 private:
  sim::Coro side_a();
  sim::Coro side_b();

  World& world_;
  int rank_a_;
  int rank_b_;
  PingPongOptions opt_;
  bool stop_ = false;
  std::vector<double> latencies_;
  std::unique_ptr<sim::OneShotEvent> complete_;
};

}  // namespace cci::mpi
