#include "mpi/world.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "hw/frequency_governor.hpp"
#include "net/faults.hpp"
#include "sim/sync.hpp"

namespace cci::mpi {

namespace {
bool matches(int want_src, int want_tag, int src, int tag) {
  return (want_src == kAnySource || want_src == src) && (want_tag == kAnyTag || want_tag == tag);
}
}  // namespace

World::World(net::Cluster& cluster, std::vector<RankConfig> ranks) : cluster_(cluster) {
  ranks_.reserve(ranks.size());
  for (const RankConfig& rc : ranks) {
    RankConfig& config = ranks_.emplace_back().config;
    config = rc;
    if (config.comm_core < 0)
      config.comm_core = cluster_.machine(rc.node).config().total_cores() - 1;
  }
  // The communication thread busy-polls for progression: its core is
  // permanently active at the stable comm frequency.
  for (int r = 0; r < size(); ++r)
    machine_of(r).governor().core_comm(comm_core(r));

  obs_reg_ = &obs::Registry::global();
  obs_eager_ = &obs_reg_->counter("mpi.world.eager_msgs");
  obs_rndv_ = &obs_reg_->counter("mpi.world.rndv_msgs");
  obs_bytes_ = &obs_reg_->counter("mpi.world.bytes_sent");
  obs_posted_depth_ = &obs_reg_->histogram("mpi.world.posted_depth");
  obs_unexpected_depth_ = &obs_reg_->histogram("mpi.world.unexpected_depth");
  obs_dma_rate_ = &obs_reg_->histogram("mpi.world.dma_rate_Bps");
  obs_retransmits_ = &obs_reg_->counter("mpi.retransmits");
  obs_timeouts_ = &obs_reg_->counter("mpi.timeouts");
  obs_rank_tracks_.reserve(ranks_.size());
  for (int r = 0; r < size(); ++r)
    obs_rank_tracks_.push_back(obs_reg_->tracer().track("mpi.rank" + std::to_string(r)));
  label_pio_copy_ = engine().intern("pio-copy");
  label_dma_ = engine().intern("dma");

  faults_ = &cluster_.faults();
  // A NIC blackout kills every rendezvous DMA touching the node: cancel the
  // flow and wake the sender so its retransmit timer takes over.
  faults_->on_blackout([this](int node) {
    for (auto& d : inflight_dma_) {
      if (d.abort->is_set()) continue;
      if (d.src_node != node && d.dst_node != node) continue;
      if (!d.act->finished()) cluster_.model().cancel(d.act);
      d.abort->set();
    }
  });
  // Watchdog reports name receives that never matched (the classic deadlock
  // diagnostic: which rank is waiting for a message that never came).
  engine().add_stall_inspector([this](std::vector<std::string>& out) {
    for (int r = 0; r < size(); ++r)
      for (const PostedRecv& p : ranks_[static_cast<std::size_t>(r)].posted)
        out.push_back("mpi rank " + std::to_string(r) + " posted recv (src=" +
                      std::to_string(p.src) + ", tag=" + std::to_string(p.tag) +
                      ") never matched");
  });
}

int World::comm_core(int rank) const { return cfg(rank).comm_core; }

int World::comm_numa(int rank) const {
  const RankConfig& c = cfg(rank);
  return cluster_.machine(c.node).config().numa_of_core(c.comm_core);
}

double World::sw_delay(int rank, double cycles) {
  double f = machine_of(rank).governor().core_freq(comm_core(rank));
  const auto& np = nic_of(rank).params();
  return cycles / f * cluster_.rng().jitter(np.noise_rel) +
         ranks_[static_cast<std::size_t>(rank)].progress_overhead;
}

double World::control_delay() {
  const auto& np = cluster_.net();
  return np.control_latency * cluster_.rng().jitter(np.noise_rel);
}

double World::pio_latency(int rank, std::size_t bytes) {
  hw::Machine& m = machine_of(rank);
  net::Nic& nic = nic_of(rank);
  const auto& np = nic.params();
  const auto& cfg_m = m.config();

  sim::Resource* nic_ctrl = m.mem_ctrl(nic.numa());
  // Doorbell/PIO processing contends with the NIC-socket memory system only
  // when issued from that socket (same CHA-ingress argument as in
  // Machine::mem_access_latency); a far comm thread pays on the socket link.
  const bool comm_on_nic_socket = cfg_m.socket_of_core(comm_core(rank)) == nic.socket();
  double t = np.pio_base_latency * (comm_on_nic_socket ? m.inflation(nic_ctrl) : 1.0) *
             m.uncore_latency_scale(nic.socket());
  double f = m.governor().core_freq(comm_core(rank));
  double chunks = std::ceil(static_cast<double>(bytes) / static_cast<double>(np.pio_chunk));
  t += chunks * static_cast<double>(np.pio_chunk) * np.pio_cycles_per_byte / f;
  if (cfg_m.socket_of_core(comm_core(rank)) != nic.socket())
    t += np.pio_socket_crossings * m.cross_socket_hop_latency();
  return t;
}

RequestPtr World::isend(int src_rank, int dst_rank, int tag, MsgView msg) {
  RequestPtr req = request_pool_.make(engine());
  if (msg.bytes <= nic_of(src_rank).params().eager_threshold)
    engine().spawn(send_eager(src_rank, dst_rank, tag, msg, req));
  else
    engine().spawn(send_rndv(src_rank, dst_rank, tag, msg, req));
  return req;
}

RequestPtr World::irecv(int rank_id, int src_rank, int tag, MsgView msg) {
  RequestPtr req = request_pool_.make(engine());
  RankState& R = rank(rank_id);
  // Tag-matching pressure at post time (perf-counter view of the MPI queues).
  obs_posted_depth_->record(static_cast<double>(R.posted.size()));
  obs_unexpected_depth_->record(static_cast<double>(R.unexpected.size()));
  // Try the unexpected queue first, in arrival order.
  for (auto it = R.unexpected.begin(); it != R.unexpected.end(); ++it) {
    if (!matches(src_rank, tag, (*it)->src, (*it)->tag)) continue;
    ArrivalPtr arr = std::move(*it);
    R.unexpected.erase(it);
    arr->recv_msg = msg;
    arr->recv_req = req;
    arr->matched.set();
    if (arr->status != MpiStatus::kOk) {
      req->fail(arr->status);  // poison: the sender already gave up
      return req;
    }
    if (arr->eager) engine().spawn(finish_eager_recv(rank_id, arr, /*from_unexpected=*/true));
    return req;
  }
  R.posted.push_back(PostedRecv{src_rank, tag, msg, req});
  return req;
}

void World::arrive(int dst_rank, const ArrivalPtr& arrival) {
  RankState& R = rank(dst_rank);
  for (auto it = R.posted.begin(); it != R.posted.end(); ++it) {
    if (!matches(it->src, it->tag, arrival->src, arrival->tag)) continue;
    arrival->recv_msg = it->msg;
    arrival->recv_req = it->req;
    R.posted.erase(it);
    arrival->matched.set();
    if (arrival->status != MpiStatus::kOk) {
      arrival->recv_req->fail(arrival->status);  // poison: sender gave up
      return;
    }
    if (arrival->eager)
      engine().spawn(finish_eager_recv(dst_rank, arrival, /*from_unexpected=*/false));
    return;
  }
  R.unexpected.push_back(arrival);
  obs_unexpected_depth_->record(static_cast<double>(R.unexpected.size()));
}

sim::Coro World::deliver(int dst_rank, ArrivalPtr arrival, double delay) {
  co_await engine().sleep(delay);
  arrive(dst_rank, arrival);
}

sim::Coro World::finish_eager_recv(int dst_rank, ArrivalPtr arrival, bool from_unexpected) {
  const auto& np = nic_of(dst_rank).params();
  hw::Machine& m = machine_of(dst_rank);
  const sim::Time recv_t0 = engine().now();
  double t = sw_delay(dst_rank, np.recv_overhead_cycles);
  // Messages past the latency cutoff land in the user buffer through DRAM;
  // tiny payloads arrive with the completion and stay in cache.
  if (arrival->bytes > np.pio_latency_cutoff)
    t += m.mem_access_latency(comm_numa(dst_rank), arrival->recv_msg.data_numa);
  // Reliable transport verifies a checksum on every delivered payload.
  if (faults_->wire_active()) t += crc_delay(dst_rank, arrival->bytes);
  if (from_unexpected) {
    // The payload was parked in a bounce buffer near the NIC; the comm
    // core copies it out.
    double f = m.governor().core_freq(comm_core(dst_rank));
    t += static_cast<double>(arrival->bytes) * np.pio_cycles_per_byte / f;
  }
  co_await engine().sleep(t);
  obs::Tracer& tracer = obs_reg_->tracer();
  if (tracer.on())
    tracer.span(obs_rank_tracks_[static_cast<std::size_t>(dst_rank)],
                (from_unexpected ? "eager-recv (unexpected) tag=" : "eager-recv tag=") +
                    std::to_string(arrival->tag),
                recv_t0, engine().now());
  arrival->recv_req->done().set();
}

sim::ActivitySpec World::pio_copy_spec(int src_rank, const MsgView& msg) {
  hw::Machine& M = machine_of(src_rank);
  net::Nic& snic = nic_of(src_rank);
  sim::ActivitySpec copy;
  copy.label = label_pio_copy_;
  copy.profile_class = sim::kClassComm;
  copy.work = static_cast<double>(msg.bytes);
  for (sim::Resource* r : M.mem_path(comm_numa(src_rank), msg.data_numa))
    copy.demands.push_back({r, 1.0});
  copy.demands.push_back({snic.dma_engine(), 1.0});
  double f = M.governor().core_freq(comm_core(src_rank));
  copy.rate_cap = f / snic.params().pio_cycles_per_byte;
  return copy;
}

sim::ActivitySpec World::dma_spec(int src_rank, int dst_rank, const MsgView& msg,
                                  const MsgView& recv_msg) {
  hw::Machine& M = machine_of(src_rank);
  hw::Machine& D = machine_of(dst_rank);
  net::Nic& snic = nic_of(src_rank);
  net::Nic& dnic = nic_of(dst_rank);
  sim::ActivitySpec dma;
  dma.label = label_dma_;
  dma.profile_class = sim::kClassComm;
  dma.work = static_cast<double>(msg.bytes);
  dma.weight = M.config().nic_dma_weight;
  for (sim::Resource* r : M.mem_path(snic.numa(), msg.data_numa)) dma.demands.push_back({r, 1.0});
  dma.demands.push_back({snic.dma_engine(), 1.0});
  for (sim::Resource* r : cluster_.fabric_path(cfg(src_rank).node, cfg(dst_rank).node))
    dma.demands.push_back({r, 1.0});
  dma.demands.push_back({dnic.dma_engine(), 1.0});
  for (sim::Resource* r : D.mem_path(dnic.numa(), recv_msg.data_numa))
    dma.demands.push_back({r, 1.0});
  return dma;
}

double World::wire_delay(const net::NetworkParams& np, std::size_t bytes) {
  return np.wire_latency * cluster_.rng().jitter(np.noise_rel) +
         static_cast<double>(bytes) / np.wire_bw;
}

sim::Coro World::send_eager(int src_rank, int dst_rank, int tag, MsgView msg, RequestPtr sreq) {
  hw::Machine& M = machine_of(src_rank);
  net::Nic& snic = nic_of(src_rank);
  const auto& np = snic.params();
  const auto& rel = faults_->reliability;
  const sim::Time t0 = engine().now();

  co_await engine().sleep(sw_delay(src_rank, np.send_overhead_cycles));
  ArrivalPtr arrival = arrival_pool_.make(engine());
  arrival->src = src_rank;
  arrival->tag = tag;
  arrival->bytes = msg.bytes;
  arrival->eager = true;
  // Armed, the sender first queues behind the events already due at this
  // instant; fault-mode event streams depend on that slot.
  const bool armed = reliable();
  if (armed) co_await engine().yield();

  // Gather the payload from its NUMA node into the store pipeline, once:
  // retransmits resend from the NIC-side staging.
  co_await engine().sleep(M.mem_access_latency(comm_numa(src_rank), msg.data_numa) *
                          cluster_.rng().jitter(np.noise_rel));

  double rto = armed ? initial_rto(msg.bytes) : 0.0;
  bool delivered = false;  // suppress duplicates when only the ack was lost
  bool acked = false;
  MpiStatus status = MpiStatus::kTimedOut;
  for (int attempt = 0; !armed || attempt <= rel.max_retries; ++attempt) {
    if (attempt > 0) obs_retransmits_->add(1);
    if (msg.bytes <= np.pio_latency_cutoff) {
      co_await engine().sleep(pio_latency(src_rank, msg.bytes));
    } else {
      // CPU-driven pipelined copy: consumes memory bandwidth on the data
      // path and PCIe on the way out, capped by the core's copy speed.
      snic.dma_begin();
      co_await *M.model().start(pio_copy_spec(src_rank, msg));
      snic.dma_end();
      co_await engine().sleep(pio_latency(src_rank, np.pio_chunk));  // doorbell
    }
    if (!armed) break;

    // Fate of this attempt: a blacked-out NIC passes nothing; otherwise the
    // wire may drop or corrupt the payload (receiver CRC rejects the latter).
    const bool lost = attempt_lost(src_rank, dst_rank);
    const bool corrupt = !lost && faults_->draw_corrupt(cluster_.rng());
    status = corrupt ? MpiStatus::kCorrupted : MpiStatus::kTimedOut;
    if (!lost && !corrupt) {
      const double wire_time = wire_delay(np, msg.bytes);
      if (!delivered) {
        delivered = true;
        engine().spawn(deliver(dst_rank, arrival, wire_time));
      }
      // Control-sized ack rides back on the same (possibly lossy) wire.
      if (!faults_->draw_loss(cluster_.rng())) {
        co_await engine().sleep(wire_time + control_delay());
        acked = true;
        break;
      }
    }
    // No ack: the retransmit timer expires, with exponential backoff.
    co_await engine().sleep(backoff(rto));
  }
  if (armed && !acked) {
    obs_timeouts_->add(1);
    if (!delivered) {
      // Poison arrival so a matching receive fails instead of hanging.
      arrival->status = status;
      arrive(dst_rank, arrival);
    }
    sreq->fail(status);
    co_return;
  }

  // Local completion: the buffer is reusable once handed to the NIC (and,
  // armed, acknowledged).
  RankState& S = rank(src_rank);
  S.stats.bytes += static_cast<double>(msg.bytes);
  S.stats.busy_time += engine().now() - t0;
  obs_eager_->add(1);
  obs_bytes_->add(static_cast<double>(msg.bytes));
  if (obs_reg_->tracer().on())
    obs_reg_->tracer().span(obs_rank_tracks_[static_cast<std::size_t>(src_rank)],
                            "eager tag=" + std::to_string(tag) + " B=" +
                                std::to_string(msg.bytes),
                            t0, engine().now());
  sreq->done().set();
  // Fire and forget: the payload is on the wire after local completion.
  if (!armed) engine().spawn(deliver(dst_rank, arrival, wire_delay(np, msg.bytes)));
}

sim::Coro World::send_rndv(int src_rank, int dst_rank, int tag, MsgView msg, RequestPtr sreq) {
  hw::Machine& M = machine_of(src_rank);
  net::Nic& snic = nic_of(src_rank);
  net::Nic& dnic = nic_of(dst_rank);
  const auto& np = snic.params();
  const auto& rel = faults_->reliability;
  const sim::Time t0 = engine().now();

  co_await engine().sleep(sw_delay(src_rank, np.send_overhead_cycles));
  ArrivalPtr arrival = arrival_pool_.make(engine());
  arrival->src = src_rank;
  arrival->tag = tag;
  arrival->bytes = msg.bytes;
  arrival->eager = false;
  // Armed, queue behind this instant's events first, as send_eager does.
  const bool armed = reliable();
  if (armed) co_await engine().yield();
  const sim::Time hs_start = engine().now();

  // ---- RTS: control-sized; armed, link-level acked -------------------------
  double rto = initial_rto(0);
  bool rts_delivered = false;
  if (!armed) {
    co_await engine().sleep(control_delay());  // RTS travels to the receiver
    arrive(dst_rank, arrival);
  } else {
    bool rts_acked = false;
    for (int attempt = 0; attempt <= rel.max_retries; ++attempt) {
      if (attempt > 0) obs_retransmits_->add(1);
      if (!attempt_lost(src_rank, dst_rank)) {
        const double d = control_delay();
        if (!rts_delivered) {
          rts_delivered = true;
          engine().spawn(deliver(dst_rank, arrival, d));
        }
        if (!faults_->draw_loss(cluster_.rng())) {  // the ack
          co_await engine().sleep(2.0 * d);
          rts_acked = true;
          break;
        }
      }
      co_await engine().sleep(backoff(rto));
    }
    if (!rts_acked) {
      fail_rndv(dst_rank, arrival, sreq, MpiStatus::kTimedOut, rts_delivered);
      co_return;
    }
  }

  // The wait for a matching receive is application behaviour, not a fault:
  // it stays unbounded in both modes.
  co_await arrival->matched.wait();

  // ---- CTS travels back; armed, a receiver-driven retransmit ---------------
  rto = initial_rto(0);
  bool cts_ok = false;
  for (int attempt = 0; !armed || attempt <= rel.max_retries; ++attempt) {
    if (attempt > 0) obs_retransmits_->add(1);
    if (!armed || !attempt_lost(src_rank, dst_rank)) {
      co_await engine().sleep(control_delay());
      cts_ok = true;
      break;
    }
    co_await engine().sleep(backoff(rto));
  }
  if (!cts_ok) {
    fail_rndv(dst_rank, arrival, sreq, MpiStatus::kTimedOut, rts_delivered);
    co_return;
  }
  const sim::Time hs_end = engine().now();

  if (msg.buffer_id != 0 && !snic.registered(msg.buffer_id)) {
    co_await engine().sleep(snic.registration_cost(msg.bytes));
    snic.register_buffer(msg.buffer_id);
  }
  if (arrival->recv_msg.buffer_id != 0 && !dnic.registered(arrival->recv_msg.buffer_id)) {
    co_await engine().sleep(dnic.registration_cost(arrival->recv_msg.bytes));
    dnic.register_buffer(arrival->recv_msg.buffer_id);
  }
  snic.refresh_dma_capacity();
  dnic.refresh_dma_capacity();

  // §6 sending-bandwidth metric: "time spent to send data over the
  // network" — the wire/DMA phase, not the wait for the receiver to show
  // up (which is application-dependent and constant across worker counts).
  const sim::Time transfer_start = engine().now();
  bool transferred = !armed;
  if (!armed) {
    snic.dma_begin();
    dnic.dma_begin();
    co_await *M.model().start(dma_spec(src_rank, dst_rank, msg, arrival->recv_msg));
    snic.dma_end();
    dnic.dma_end();
  }
  // Armed: whole-transfer retransmit.  A blackout mid-transfer cancels the
  // flow (frozen progress, completion never fires); the abort event wakes
  // us and the timer takes over.
  rto = initial_rto(msg.bytes);
  MpiStatus status = MpiStatus::kTimedOut;
  for (int attempt = 0; !transferred && attempt <= rel.max_retries; ++attempt) {
    if (attempt > 0) obs_retransmits_->add(1);
    status = MpiStatus::kTimedOut;
    if (blacked_out(src_rank, dst_rank)) {
      co_await engine().sleep(backoff(rto));
      continue;
    }
    sim::ActivityPtr act =
        M.model().start(dma_spec(src_rank, dst_rank, msg, arrival->recv_msg));
    sim::OneShotEvent abort(engine());
    snic.dma_begin();
    dnic.dma_begin();
    register_dma(act, &abort, cfg(src_rank).node, cfg(dst_rank).node);
    // Named awaitable: an initializer_list inside the co_await expression
    // trips a GCC coroutine-frame bug ("array used as initializer").
    sim::WhenAny done_or_abort = sim::when_any(engine(), {&act->done(), &abort});
    co_await done_or_abort;
    unregister_dma(&abort);
    snic.dma_end();
    dnic.dma_end();
    // A cancelled flow restarts from scratch after the backoff; a finished
    // one can still fail the receiver's CRC or lose its fin.
    if (act->finished()) {
      if (faults_->draw_corrupt(cluster_.rng())) {
        status = MpiStatus::kCorrupted;
      } else if (!attempt_lost(src_rank, dst_rank)) {
        co_await engine().sleep(control_delay());  // completion notification
        transferred = true;
        break;
      }
    }
    co_await engine().sleep(backoff(rto));
  }
  if (!transferred) {
    fail_rndv(dst_rank, arrival, sreq, status, rts_delivered);
    co_return;
  }

  // Stats cover transfer_start..now, retransmissions included — exactly the
  // bandwidth degradation the fault sweep measures.
  RankState& S = rank(src_rank);
  S.stats.bytes += static_cast<double>(msg.bytes);
  S.stats.busy_time += engine().now() - transfer_start;
  obs_rndv_->add(1);
  obs_bytes_->add(static_cast<double>(msg.bytes));
  if (engine().now() > transfer_start)
    obs_dma_rate_->record(static_cast<double>(msg.bytes) / (engine().now() - transfer_start));
  if (obs_reg_->tracer().on()) {
    // Per-message lifecycle: the whole rendezvous, with the RTS/CTS
    // handshake and the DMA window nested inside (lane spill in the
    // exporter keeps concurrent messages legible).
    obs::Tracer& tracer = obs_reg_->tracer();
    obs::TrackId track = obs_rank_tracks_[static_cast<std::size_t>(src_rank)];
    std::string id = " tag=" + std::to_string(tag) + " B=" + std::to_string(msg.bytes);
    tracer.span(track, "rndv" + id, t0, engine().now());
    tracer.span(track, "handshake" + id, hs_start, hs_end);
    tracer.span(track, "dma" + id, transfer_start, engine().now());
  }
  sreq->done().set();

  // Receiver completion; the acknowledged transport also verifies the CRC.
  double recv_time = sw_delay(dst_rank, np.recv_overhead_cycles);
  if (armed) recv_time += crc_delay(dst_rank, msg.bytes);
  co_await engine().sleep(recv_time);
  arrival->recv_req->done().set();
}

// ---- reliable transport -----------------------------------------------------

bool World::reliable() const { return faults_->wire_active(); }

double World::initial_rto(std::size_t bytes) const {
  // LogGP-derived: the earliest instant an ack could possibly return is one
  // serialization plus a round trip of wire and control latency; the safety
  // factor absorbs queueing, jitter and receiver-side software overheads.
  const auto& np = cluster_.net();
  return faults_->reliability.rto_safety *
         (2.0 * (np.wire_latency + np.control_latency) +
          static_cast<double>(bytes) / np.wire_bw);
}

double World::backoff(double& rto) const {
  const double expiry = rto;
  rto = std::min(rto * 2.0, faults_->reliability.rto_max);
  return expiry;
}

double World::crc_delay(int rank_id, std::size_t bytes) {
  const auto& np = nic_of(rank_id).params();
  double f = machine_of(rank_id).governor().core_freq(comm_core(rank_id));
  return static_cast<double>(bytes) * np.crc_cycles_per_byte / f;
}

bool World::blacked_out(int src_rank, int dst_rank) const {
  return faults_->blacked_out(cfg(src_rank).node) || faults_->blacked_out(cfg(dst_rank).node);
}

bool World::attempt_lost(int src_rank, int dst_rank) {
  return blacked_out(src_rank, dst_rank) || faults_->draw_loss(cluster_.rng());
}

void World::register_dma(sim::ActivityPtr act, sim::OneShotEvent* abort, int src_node,
                         int dst_node) {
  inflight_dma_.push_back({std::move(act), abort, src_node, dst_node});
}

void World::unregister_dma(const sim::OneShotEvent* abort) {
  for (auto it = inflight_dma_.begin(); it != inflight_dma_.end(); ++it)
    if (it->abort == abort) {
      inflight_dma_.erase(it);
      return;
    }
}

void World::fail_rndv(int dst_rank, const ArrivalPtr& arrival, const RequestPtr& sreq,
                      MpiStatus status, bool rts_delivered) {
  // Fail the whole operation: the sender surfaces the status, and whichever
  // side the receiver reached (matched, parked, or nothing yet) is poisoned
  // so its receive fails too instead of waiting forever.
  obs_timeouts_->add(1);
  arrival->status = status;
  if (arrival->recv_req) {
    arrival->recv_req->fail(status);
  } else if (!rts_delivered) {
    arrive(dst_rank, arrival);  // poison
  }
  sreq->fail(status);
}

}  // namespace cci::mpi
