#include "mpi/collectives.hpp"

namespace cci::mpi {

namespace {
/// Virtual rank relative to the root (so the binomial tree can be rooted
/// anywhere).
int vrank(int rank, int root, int size) { return (rank - root + size) % size; }
int unvrank(int v, int root, int size) { return (v + root) % size; }
}  // namespace

sim::Coro Coll::bcast(int rank, int root, MsgView msg, sim::OneShotEvent* done) {
  const int size = world_.size();
  const int v = vrank(rank, root, size);
  // Binomial tree: in round k, ranks with v < 2^k send to v + 2^k.
  int received_from = -1;
  for (int dist = 1; dist < size; dist <<= 1) {
    if (v >= dist && v < 2 * dist && received_from < 0) {
      int parent = unvrank(v - dist, root, size);
      co_await *world_.irecv(rank, parent, tag(0, parent), msg);
      received_from = parent;
    }
  }
  // Sending phase: after we hold the data (root holds it from the start).
  for (int dist = 1; dist < size; dist <<= 1) {
    if (v < dist && v + dist < size) {
      int child = unvrank(v + dist, root, size);
      co_await *world_.isend(rank, child, tag(0, rank), msg);
    }
  }
  if (done) done->set();
}

sim::Coro Coll::allgather(int rank, MsgView msg, sim::OneShotEvent* done) {
  const int size = world_.size();
  const int right = (rank + 1) % size;
  const int left = (rank - 1 + size) % size;
  // Ring: in step s, send the block received in step s-1 to the right.
  for (int step = 0; step < size - 1; ++step) {
    auto sreq = world_.isend(rank, right, tag(1 + step, rank), msg);
    auto rreq = world_.irecv(rank, left, tag(1 + step, left), msg);
    co_await *sreq;
    co_await *rreq;
  }
  if (done) done->set();
}

sim::Coro Coll::allreduce(int rank, MsgView msg, sim::OneShotEvent* done) {
  const int size = world_.size();
  // Recursive doubling over the largest power-of-two subset; leftover
  // ranks fold into a partner first and get the result at the end.
  int pof2 = 1;
  while (pof2 * 2 <= size) pof2 *= 2;
  const int rem = size - pof2;

  bool participates = true;
  if (rank < 2 * rem) {
    if (rank % 2 == 0) {
      // Fold into the odd partner, wait for the result afterwards.
      co_await *world_.isend(rank, rank + 1, tag(100, rank), msg);
      co_await *world_.irecv(rank, rank + 1, tag(200, rank + 1), msg);
      participates = false;
    } else {
      co_await *world_.irecv(rank, rank - 1, tag(100, rank - 1), msg);
    }
  }
  if (participates) {
    // Effective rank within the power-of-two group.
    int er = rank < 2 * rem ? rank / 2 : rank - rem;
    for (int mask = 1; mask < pof2; mask <<= 1) {
      int peer_er = er ^ mask;
      int peer = peer_er < rem ? peer_er * 2 + 1 : peer_er + rem;
      auto sreq = world_.isend(rank, peer, tag(300 + mask, rank), msg);
      auto rreq = world_.irecv(rank, peer, tag(300 + mask, peer), msg);
      co_await *sreq;
      co_await *rreq;
    }
    if (rank < 2 * rem) co_await *world_.isend(rank, rank - 1, tag(200, rank), msg);
  }
  if (done) done->set();
}

sim::Coro Coll::barrier(int rank, sim::OneShotEvent* done) {
  // A barrier is a zero-payload allreduce; run it as a child process.
  sim::OneShotEvent finished(world_.engine());
  world_.engine().spawn(allreduce(rank, MsgView{4, 0, 0}, &finished));
  co_await finished;
  if (done) done->set();
}

}  // namespace cci::mpi
