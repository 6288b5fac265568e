// Mini-MPI: point-to-point messaging over the simulated cluster.
//
// One World spans the cluster; each rank is a process pinned to one node
// with a dedicated communication core (the paper's communication thread,
// §2.1).  Two protocols, as in MadMPI/NewMadeleine:
//
//  * eager (size <= eager_threshold): the comm core copies the payload to
//    the NIC (PIO).  Small messages (< pio_latency_cutoff) are a chain of
//    dependent transactions whose cost inflates with memory-system demand
//    pressure — this is where computation hurts *latency*.  Larger eager
//    messages are a CPU-rate-capped copy flow that also consumes memory
//    bandwidth.
//  * rendezvous (above threshold): RTS/CTS handshake, then a zero-copy DMA
//    flow crossing [src memory path, src DMA engine, wire, dst DMA engine,
//    dst memory path] — this is where computation hurts *bandwidth* and
//    vice versa.
//
// Software overheads are charged in comm-core cycles (LogP's o), so pinned
// or DVFS-driven core frequencies move latency exactly as §3 observes.
//
// Reliability: when the cluster's FaultState is armed (loss/corruption
// windows, NIC blackouts, or force_reliable), both protocols switch to an
// acknowledged transport — CRC verification at the receiver, per-message
// retransmit timers with LogGP-derived initial RTO and exponential backoff,
// a bounded retry budget surfacing MpiStatus::kTimedOut/kCorrupted instead
// of hanging, and cancellation of in-flight DMA flows when a NIC blacks
// out.  Each protocol has one sender (send_eager, send_rndv) for both
// modes: unarmed, it runs fire-and-forget, with no fate draws, acks or
// timers, so the event stream and RNG draws are those of a cluster without
// the fault subsystem.
//
// Memory: requests and arrivals come from World-owned slab pools, so a
// steady eager ping-pong makes no heap allocation per message.  The pools
// are deliberately not registered with the engine: a World may outlive its
// Cluster's engine (FabricLab::run rebuilds the Cluster first), so ~World
// never touches it.
#pragma once

#include <vector>

#include "mpi/message.hpp"
#include "net/cluster.hpp"
#include "obs/metrics.hpp"
#include "obs/tracer.hpp"
#include "sim/coro.hpp"

namespace cci::mpi {

struct RankConfig {
  int node = 0;
  /// Core running the communication thread; -1 = last core of the node.
  int comm_core = -1;
};

class World {
 public:
  World(net::Cluster& cluster, std::vector<RankConfig> ranks);

  [[nodiscard]] int size() const { return static_cast<int>(ranks_.size()); }
  net::Cluster& cluster() { return cluster_; }
  sim::Engine& engine() { return cluster_.engine(); }
  hw::Machine& machine_of(int rank) { return cluster_.machine(cfg(rank).node); }
  net::Nic& nic_of(int rank) { return cluster_.nic(cfg(rank).node); }
  [[nodiscard]] int comm_core(int rank) const;
  [[nodiscard]] int comm_numa(int rank) const;

  /// Post a nonblocking send from `src_rank` to `dst_rank`.
  RequestPtr isend(int src_rank, int dst_rank, int tag, MsgView msg);
  /// Post a nonblocking receive on `rank` (src/tag may be wildcards).
  RequestPtr irecv(int rank, int src_rank, int tag, MsgView msg);

  /// Extra per-operation progress delay on a rank's comm thread; the
  /// task-runtime layer uses this to model lock contention from polling
  /// workers (§5.4) and its own software stack (§5.2).
  void set_progress_overhead(int rank, double seconds) {
    ranks_.at(static_cast<std::size_t>(rank)).progress_overhead = seconds;
  }
  [[nodiscard]] double progress_overhead(int rank) const {
    return ranks_.at(static_cast<std::size_t>(rank)).progress_overhead;
  }

  /// Sending-side bandwidth accounting (Fig. 10: "network bandwidth as
  /// perceived by the sending node").
  struct SendStats {
    double bytes = 0.0;
    double busy_time = 0.0;  ///< sum over sends of (local completion - post)
    [[nodiscard]] double sending_bw() const { return busy_time > 0 ? bytes / busy_time : 0.0; }
  };
  [[nodiscard]] const SendStats& send_stats(int rank) const {
    return ranks_.at(static_cast<std::size_t>(rank)).stats;
  }

 private:
  /// A message that reached the matching point at the receiver: an eager
  /// payload after the wire, or a rendezvous RTS.  A non-kOk status marks a
  /// "poison" arrival: the sender gave up before delivering, and the
  /// matching receive must fail instead of waiting forever.
  struct Arrival : sim::RcPooled<Arrival> {
    explicit Arrival(sim::Engine& engine) : matched(engine) {}
    int src = 0;
    int tag = 0;
    std::size_t bytes = 0;
    bool eager = true;
    MpiStatus status = MpiStatus::kOk;
    sim::OneShotEvent matched;  // set when a recv matches
    MsgView recv_msg;           // filled at match time
    RequestPtr recv_req;
  };
  using ArrivalPtr = sim::RcPtr<Arrival>;

  struct PostedRecv {
    int src;
    int tag;
    MsgView msg;
    RequestPtr req;
  };

  /// A rank's matching queues are vectors: they stay short, a match erases
  /// in place (keeping the order first-match relies on), and an empty one
  /// allocates nothing, where a std::deque allocates its map and a node.
  struct RankState {
    RankConfig config;
    double progress_overhead = 0.0;
    SendStats stats;
    std::vector<PostedRecv> posted;     ///< posting order
    std::vector<ArrivalPtr> unexpected;  ///< arrival order
  };

  RankState& rank(int r) { return ranks_.at(static_cast<std::size_t>(r)); }
  [[nodiscard]] const RankConfig& cfg(int r) const {
    return ranks_.at(static_cast<std::size_t>(r)).config;
  }

  /// Comm-core software delay for `cycles` of work on `rank`, with noise
  /// and the rank's progress overhead applied.
  double sw_delay(int rank, double cycles);
  /// One-way small-control-message latency (RTS/CTS).
  double control_delay();
  /// PIO path latency for `bytes` on the sender (dependent transactions).
  double pio_latency(int rank, std::size_t bytes);

  /// Match an arrival against posted receives (or park it).
  void arrive(int dst_rank, const ArrivalPtr& arrival);
  /// Carry `arrival` over the wire: it reaches dst_rank's matching point
  /// after `delay`.
  sim::Coro deliver(int dst_rank, ArrivalPtr arrival, double delay);
  /// Complete the receiver side of a matched eager message.
  sim::Coro finish_eager_recv(int dst_rank, ArrivalPtr arrival, bool from_unexpected);

  /// The two protocol senders isend() spawns.  Each runs the
  /// fire-and-forget form while the fault model is unarmed and adds fate
  /// draws, acks and retransmit timers where the armed form differs.
  sim::Coro send_eager(int src_rank, int dst_rank, int tag, MsgView msg, RequestPtr sreq);
  sim::Coro send_rndv(int src_rank, int dst_rank, int tag, MsgView msg, RequestPtr sreq);
  /// CPU-driven PIO copy of an eager payload: memory path and NIC engine,
  /// capped by the comm core's copy speed.
  sim::ActivitySpec pio_copy_spec(int src_rank, const MsgView& msg);
  /// Zero-copy rendezvous DMA: source memory path and engine, the fabric
  /// route, destination engine and memory path.
  sim::ActivitySpec dma_spec(int src_rank, int dst_rank, const MsgView& msg,
                             const MsgView& recv_msg);
  /// One-way wire delay of a `bytes` payload (jittered latency + serialization)
  /// under the sending NIC's parameters.
  double wire_delay(const net::NetworkParams& np, std::size_t bytes);

  // ---- reliable transport (active only when the fault model is armed) ------
  [[nodiscard]] bool reliable() const;
  /// LogGP-derived initial retransmission timeout for a payload of `bytes`:
  /// safety x (data serialization + round-trip wire and control latency).
  [[nodiscard]] double initial_rto(std::size_t bytes) const;
  /// The timer's current timeout; doubles `rto`, up to rto_max, for the
  /// next expiry.
  [[nodiscard]] double backoff(double& rto) const;
  /// Receiver-side CRC verification delay, charged per delivered payload.
  [[nodiscard]] double crc_delay(int rank, std::size_t bytes);
  /// Either end's NIC is blacked out: an attempt passes nothing.
  [[nodiscard]] bool blacked_out(int src_rank, int dst_rank) const;
  /// Fate of one attempt on the wire: lost to a blackout or a loss draw.
  bool attempt_lost(int src_rank, int dst_rank);
  /// Give up on a rendezvous: fail the sender and poison/fail the receiver.
  void fail_rndv(int dst_rank, const ArrivalPtr& arrival, const RequestPtr& sreq,
                 MpiStatus status, bool rts_delivered);

  /// In-flight rendezvous DMA registry: NIC blackouts cancel the flows of
  /// every transfer touching the dead node and wake their senders.
  struct InflightDma {
    sim::ActivityPtr act;
    sim::OneShotEvent* abort;
    int src_node;
    int dst_node;
  };
  void register_dma(sim::ActivityPtr act, sim::OneShotEvent* abort, int src_node, int dst_node);
  void unregister_dma(const sim::OneShotEvent* abort);

  net::Cluster& cluster_;
  net::FaultState* faults_ = nullptr;
  // Declared before ranks_ so queued requests and arrivals recycle into
  // live pools at teardown; stragglers (coroutine frames the engine
  // destroys later, RequestPtrs held by callers) take the orphan path.
  sim::SlabPool<Request> request_pool_{"mpi_request"};
  sim::SlabPool<Arrival> arrival_pool_{"mpi_arrival"};
  std::vector<RankState> ranks_;
  std::vector<InflightDma> inflight_dma_;

  // Observability: per-message lifecycle spans land on one tracer track per
  // rank; counters/histograms live in the global registry.
  obs::Registry* obs_reg_ = nullptr;
  obs::Counter* obs_eager_ = nullptr;
  obs::Counter* obs_rndv_ = nullptr;
  obs::Counter* obs_bytes_ = nullptr;
  obs::Histogram* obs_posted_depth_ = nullptr;
  obs::Histogram* obs_unexpected_depth_ = nullptr;
  obs::Histogram* obs_dma_rate_ = nullptr;
  obs::Counter* obs_retransmits_ = nullptr;
  obs::Counter* obs_timeouts_ = nullptr;
  std::vector<obs::TrackId> obs_rank_tracks_;
  // Transfer labels interned once at construction; specs carry the 4-byte id.
  sim::LabelId label_pio_copy_ = sim::kNoLabel;
  sim::LabelId label_dma_ = sim::kNoLabel;
};

}  // namespace cci::mpi
