#include "core/campaign.hpp"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <exception>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <thread>

#ifdef _WIN32
#include <process.h>
#else
#include <unistd.h>
#endif

#include "obs/metrics.hpp"
#include "obs/tracer.hpp"
#include "sched/point.hpp"

namespace cci::core {

// ---- seeding ----------------------------------------------------------------

std::uint64_t mix_seed(std::uint64_t base, std::uint64_t index) {
  // SplitMix64 over the (base, index) pair: cheap, full-period, and
  // statistically independent streams for neighbouring indices.
  std::uint64_t z = base + 0x9e3779b97f4a7c15ull * (index + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

// ---- canonical paper value lists -------------------------------------------

std::vector<int> paper_core_counts(int max_cores) {
  std::vector<int> cores{0, 1, 2, 3, 5, 8, 12, 16, 20, 24, 28, 32};
  std::vector<int> out;
  for (int c : cores)
    if (c < max_cores) out.push_back(c);
  out.push_back(max_cores);
  return out;
}

std::vector<std::size_t> paper_message_sizes() {
  std::vector<std::size_t> sizes;
  for (std::size_t s = 4; s <= (64u << 20); s *= 4) sizes.push_back(s);
  return sizes;
}

// ---- SweepSpec --------------------------------------------------------------

SweepSpec& SweepSpec::cores(std::string label, const std::vector<int>& values) {
  return axis<int>(
      std::move(label), values, [](Scenario& s, const int& v) { s.computing_cores = v; },
      [](const int& v) { return std::to_string(v); },
      [](const int& v) { return static_cast<double>(v); });
}

SweepSpec& SweepSpec::message_bytes(std::string label, const std::vector<std::size_t>& values) {
  return axis<std::size_t>(
      std::move(label), values, [](Scenario& s, const std::size_t& v) { s.message_bytes = v; },
      [](const std::size_t& v) { return std::to_string(v); },
      [](const std::size_t& v) { return static_cast<double>(v); });
}

SweepSpec& SweepSpec::comm_thread_placement(std::string label,
                                            const std::vector<Placement>& values) {
  return axis<Placement>(
      std::move(label), values, [](Scenario& s, const Placement& v) { s.comm_thread = v; },
      [](const Placement& v) { return std::string(to_string(v)); },
      [](const Placement& v) { return static_cast<double>(static_cast<int>(v)); });
}

SweepSpec& SweepSpec::data_placement(std::string label, const std::vector<Placement>& values) {
  return axis<Placement>(
      std::move(label), values, [](Scenario& s, const Placement& v) { s.data = v; },
      [](const Placement& v) { return std::string(to_string(v)); },
      [](const Placement& v) { return static_cast<double>(static_cast<int>(v)); });
}

SweepSpec& SweepSpec::kernels(
    std::string label, const std::vector<std::pair<std::string, hw::KernelTraits>>& values) {
  using Entry = std::pair<std::string, hw::KernelTraits>;
  return axis<Entry>(
      std::move(label), values, [](Scenario& s, const Entry& v) { s.kernel = v.second; },
      [](const Entry& v) { return v.first; });
}

SweepSpec& SweepSpec::values(std::string label, const std::vector<double>& vals,
                             std::function<void(Scenario&, double)> set) {
  return axis<double>(
      std::move(label), vals,
      [set](Scenario& s, const double& v) { set(s, v); },
      [](const double& v) { return trace::fmt_g(v); }, [](const double& v) { return v; });
}

std::vector<std::string> SweepSpec::axis_labels() const {
  std::vector<std::string> out;
  out.reserve(axes_.size());
  for (const Axis& ax : axes_) out.push_back(ax.label);
  return out;
}

std::size_t SweepSpec::point_count() const {
  std::size_t n = 1;
  for (const Axis& ax : axes_) n *= ax.points.size();
  return n;
}

std::vector<SweepPoint> SweepSpec::expand(const std::uint64_t* base_seed_override) const {
  const std::size_t total = point_count();
  const std::uint64_t base_seed =
      base_seed_override != nullptr ? *base_seed_override : base_.seed;
  std::vector<SweepPoint> out;
  out.reserve(total);
  for (std::size_t index = 0; index < total; ++index) {
    SweepPoint p;
    p.index = index;
    p.scenario = base_;
    p.labels.reserve(axes_.size());
    p.numeric.reserve(axes_.size());
    // Row-major decomposition: first axis slowest, last axis fastest —
    // the nesting order of the loops this replaces.
    std::size_t rem = index;
    std::vector<std::size_t> pos(axes_.size(), 0);
    for (std::size_t a = axes_.size(); a-- > 0;) {
      pos[a] = rem % axes_[a].points.size();
      rem /= axes_[a].points.size();
    }
    for (std::size_t a = 0; a < axes_.size(); ++a) {
      const BoundValue& bv = axes_[a].points[pos[a]];
      bv.apply(p.scenario);
      p.labels.push_back(bv.label);
      p.numeric.push_back(bv.numeric);
    }
    if (seed_policy_ == SeedPolicy::kPerPoint)
      p.scenario.seed = mix_seed(base_seed, index);
    else if (base_seed_override != nullptr)
      p.scenario.seed = base_seed;
    out.push_back(std::move(p));
  }
  return out;
}

// ---- Campaign ---------------------------------------------------------------

Campaign& Campaign::column(std::string label, Metric fn) {
  columns_.push_back({std::move(label), std::move(fn), nullptr});
  return *this;
}

Campaign& Campaign::column(std::string label, int digits, Metric fn) {
  return column(std::move(label),
                [digits](const SweepPoint&, double v) { return trace::fmt(v, digits); },
                std::move(fn));
}

Campaign& Campaign::column(std::string label, Formatter format, Metric fn) {
  columns_.push_back({std::move(label), std::move(fn), std::move(format)});
  return *this;
}

Campaign& Campaign::evaluator(std::string id, Evaluator fn) {
  evaluator_id_ = std::move(id);
  evaluator_ = std::move(fn);
  return *this;
}

Campaign& Campaign::with_attribution() {
  if (!attribution_) {
    attribution_ = true;
    evaluator_id_ += "+attrib";
  }
  return *this;
}

std::vector<std::string> Campaign::column_labels() const {
  std::vector<std::string> out;
  out.reserve(columns_.size());
  for (const Column& c : columns_) out.push_back(c.label);
  return out;
}

std::vector<double> Campaign::evaluate(const SweepPoint& point, double* sim_seconds) const {
  if (sim_seconds != nullptr) *sim_seconds = 0.0;
  if (evaluator_) {
    std::vector<double> out = evaluator_(point);
    if (out.size() != columns_.size())
      throw std::runtime_error("campaign '" + name_ + "': evaluator returned " +
                               std::to_string(out.size()) + " values for " +
                               std::to_string(columns_.size()) + " columns");
    return out;
  }
  InterferenceLab lab(point.scenario);
  if (attribution_) lab.set_attribution(true);
  SideBySideResult r = lab.run();
  if (sim_seconds != nullptr) *sim_seconds = lab.cluster().engine().now();
  std::vector<double> out;
  out.reserve(columns_.size());
  for (const Column& c : columns_) out.push_back(c.fn(point, r));
  return out;
}

std::string Campaign::format_cell(std::size_t col, const SweepPoint& point,
                                  double value) const {
  const Column& c = columns_.at(col);
  return c.format ? c.format(point, value) : trace::fmt_g(value);
}

Campaign::Metric Campaign::latency_together_us() {
  return [](const SweepPoint&, const SideBySideResult& r) {
    return r.comm_together.latency.median * 1e6;
  };
}
Campaign::Metric Campaign::latency_ratio() {
  return [](const SweepPoint&, const SideBySideResult& r) {
    return r.comm_alone.latency.median > 0
               ? r.comm_together.latency.median / r.comm_alone.latency.median
               : 0.0;
  };
}
Campaign::Metric Campaign::bandwidth_together_gbps() {
  return [](const SweepPoint&, const SideBySideResult& r) {
    return r.comm_together.bandwidth.median / 1e9;
  };
}
Campaign::Metric Campaign::bandwidth_ratio() {
  return [](const SweepPoint&, const SideBySideResult& r) {
    return r.comm_alone.bandwidth.median > 0
               ? r.comm_together.bandwidth.median / r.comm_alone.bandwidth.median
               : 0.0;
  };
}
Campaign::Metric Campaign::stream_per_core_gbps() {
  return [](const SweepPoint&, const SideBySideResult& r) {
    return r.compute_together.per_core_bandwidth.median / 1e9;
  };
}
Campaign::Metric Campaign::stall_fraction() {
  return [](const SweepPoint&, const SideBySideResult& r) {
    return r.compute_together.mem_stall_fraction;
  };
}
Campaign::Metric Campaign::comm_slowdown_from_compute() {
  return [](const SweepPoint&, const SideBySideResult& r) {
    return r.attribution.slowdown(sim::kClassComm, sim::kClassCompute);
  };
}
Campaign::Metric Campaign::compute_slowdown_from_comm() {
  return [](const SweepPoint&, const SideBySideResult& r) {
    return r.attribution.slowdown(sim::kClassCompute, sim::kClassComm);
  };
}
Campaign::Metric Campaign::comm_contended_fraction() {
  return [](const SweepPoint&, const SideBySideResult& r) {
    return r.attribution.contended_fraction(sim::kClassComm);
  };
}
Campaign::Metric Campaign::compute_contended_fraction() {
  return [](const SweepPoint&, const SideBySideResult& r) {
    return r.attribution.contended_fraction(sim::kClassCompute);
  };
}

// ---- cache ------------------------------------------------------------------

namespace {

void put(std::ostream& os, const char* key, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  os << key << '=' << buf << ';';
}
void put(std::ostream& os, const char* key, const std::string& v) {
  os << key << '=' << v << ';';
}
template <typename Int>
void put_int(std::ostream& os, const char* key, Int v) {
  os << key << '=' << v << ';';
}

std::uint64_t fnv1a(const std::string& data) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char c : data) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

std::string hex16(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::filesystem::path entry_path(const std::string& dir, std::uint64_t key) {
  return std::filesystem::path(dir) / (hex16(key) + ".json");
}

/// `text` as the body of a JSON string: quotes, backslashes and control
/// bytes escaped, so a stored field can never close early.
std::string json_escape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned>(c));
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

/// kRejected: an entry file exists but is unusable (other schema, wrong
/// key or point text, truncated or malformed); the point is recomputed
/// and re-stored.
enum class CacheLookup { kMiss, kHit, kRejected };

/// Load a cache entry; kHit (and `values` filled) only when the file
/// carries the same schema + key, the exact text the key hashes (so a
/// 64-bit collision is a rejection, not a wrong hit) and a closed values
/// array of exactly `columns` values.  Doubles round-trip through %.17g,
/// so a cache hit reproduces the original table bit-for-bit.
CacheLookup load_cache_entry(const std::string& dir, std::uint64_t key,
                             const std::string& key_text, std::size_t columns,
                             std::vector<double>& values) {
  CCI_SCHED_POINT(kCacheRead, key);
  std::ifstream is(entry_path(dir, key));
  if (!is) return CacheLookup::kMiss;
  std::stringstream buffer;
  buffer << is.rdbuf();
  const std::string doc = buffer.str();
  if (doc.find("\"schema\": " + std::to_string(kCampaignSchemaVersion) + ",") ==
      std::string::npos)
    return CacheLookup::kRejected;
  if (doc.find("\"key\": \"" + hex16(key) + "\"") == std::string::npos)
    return CacheLookup::kRejected;
  if (doc.find("\"point\": \"" + json_escape(key_text) + "\"") == std::string::npos)
    return CacheLookup::kRejected;
  const std::size_t open = doc.find("\"values\": [");
  if (open == std::string::npos) return CacheLookup::kRejected;
  const char* p = doc.c_str() + open + 11;
  values.clear();
  while (true) {
    while (*p == ' ' || *p == ',' || *p == '\n') ++p;
    if (*p == ']') break;
    // End of file before the closing bracket: the file was cut off, and
    // its last number may be a prefix of the stored one.
    if (*p == '\0') return CacheLookup::kRejected;
    char* end = nullptr;
    double v = std::strtod(p, &end);
    if (end == p) return CacheLookup::kRejected;
    values.push_back(v);
    p = end;
  }
  return values.size() == columns ? CacheLookup::kHit : CacheLookup::kRejected;
}

void store_cache_entry(const std::string& dir, std::uint64_t key, const std::string& key_text,
                       const std::string& campaign, const std::vector<double>& values) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  const std::filesystem::path path = entry_path(dir, key);
  // Unique tmp name per writer: two processes (or shards, or threads)
  // storing the same point must not interleave writes into one shared tmp
  // file — each writes its own and the final rename is atomic, so the
  // published entry is always one writer's complete bytes.  Both writers
  // produce identical contents anyway (that is the determinism contract),
  // so last-rename-wins is harmless.
  static std::atomic<std::uint64_t> tmp_seq{0};
  const std::filesystem::path tmp =
      path.string() + ".tmp." + std::to_string(static_cast<long long>(getpid())) + "." +
      std::to_string(tmp_seq.fetch_add(1, std::memory_order_relaxed));
  CCI_SCHED_POINT(kCacheWrite, key);
  {
    std::ofstream os(tmp);
    if (!os) return;  // cache is best-effort: an unwritable dir just means re-runs
    os << "{\n  \"schema\": " << kCampaignSchemaVersion << ",\n  \"key\": \"" << hex16(key)
       << "\",\n  \"campaign\": \"" << json_escape(campaign) << "\",\n  \"point\": \""
       << json_escape(key_text) << "\",\n  \"values\": [";
    for (std::size_t i = 0; i < values.size(); ++i) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%.17g", values[i]);
      os << (i ? ", " : "") << buf;
    }
    os << "]\n}\n";
    os.close();
    if (os.fail()) {
      // Short write (disk full, I/O error): never publish a partial entry.
      std::filesystem::remove(tmp, ec);
      return;
    }
  }
  CCI_SCHED_POINT(kCacheRename, key);
  std::filesystem::rename(tmp, path, ec);
}

/// Remove tmp files left behind by writers that died between write and
/// rename.  Best-effort on purpose: sweeping a *live* sibling's tmp only
/// costs that sibling a silently-uncached point (its rename fails with an
/// ignored error code), never a corrupt entry.  Returns the count removed.
std::size_t sweep_stale_tmp(const std::string& dir) {
  std::error_code ec;
  std::size_t swept = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (!entry.is_regular_file(ec)) continue;
    const std::string name = entry.path().filename().string();
    if (name.find(".json.tmp") == std::string::npos) continue;
    std::error_code rm;
    if (std::filesystem::remove(entry.path(), rm)) ++swept;
  }
  return swept;
}

}  // namespace

void serialize_scenario(std::ostream& os, const Scenario& s) {
  const hw::MachineConfig& m = s.machine;
  put(os, "m.name", m.name);
  put_int(os, "m.sockets", m.sockets);
  put_int(os, "m.numa_per_socket", m.numa_per_socket);
  put_int(os, "m.cores_per_numa", m.cores_per_numa);
  put_int(os, "m.nic_numa", m.nic_numa);
  put(os, "m.core_freq_min_hz", m.core_freq_min_hz);
  put(os, "m.core_freq_nominal_hz", m.core_freq_nominal_hz);
  auto put_turbo = [&os](const char* key, const std::vector<hw::TurboStep>& steps) {
    os << key << "=[";
    for (const hw::TurboStep& t : steps) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%d:%.17g,", t.max_active_cores, t.freq_hz);
      os << buf;
    }
    os << "];";
  };
  put_turbo("m.turbo_scalar", m.turbo_scalar);
  put_turbo("m.turbo_avx2", m.turbo_avx2);
  put_turbo("m.turbo_avx512", m.turbo_avx512);
  put(os, "m.comm_core_freq_hz", m.comm_core_freq_hz);
  put(os, "m.dvfs_transition_latency", m.dvfs_transition_latency);
  put(os, "m.uncore_freq_min_hz", m.uncore_freq_min_hz);
  put(os, "m.uncore_freq_max_hz", m.uncore_freq_max_hz);
  put(os, "m.uncore_min_mem_scale", m.uncore_min_mem_scale);
  put(os, "m.uncore_latency_penalty", m.uncore_latency_penalty);
  put(os, "m.flops_per_cycle_scalar", m.flops_per_cycle_scalar);
  put(os, "m.flops_per_cycle_avx2", m.flops_per_cycle_avx2);
  put(os, "m.flops_per_cycle_avx512", m.flops_per_cycle_avx512);
  put(os, "m.mem_bw_per_numa", m.mem_bw_per_numa);
  put(os, "m.per_core_mem_bw", m.per_core_mem_bw);
  put(os, "m.cross_socket_bw", m.cross_socket_bw);
  put(os, "m.intra_socket_bw", m.intra_socket_bw);
  put(os, "m.llc_bytes_per_socket", m.llc_bytes_per_socket);
  put(os, "m.mem_latency", m.mem_latency);
  put(os, "m.cross_socket_latency", m.cross_socket_latency);
  put(os, "m.queueing_kappa", m.queueing_kappa);
  put(os, "m.queueing_pressure_clamp", m.queueing_pressure_clamp);
  put(os, "m.nic_dma_weight", m.nic_dma_weight);

  const net::NetworkParams& n = s.network;
  put(os, "n.fabric", n.fabric);
  put(os, "n.wire_bw", n.wire_bw);
  put(os, "n.wire_latency", n.wire_latency);
  put(os, "n.dma_bw_max_uncore", n.dma_bw_max_uncore);
  put(os, "n.dma_bw_min_uncore", n.dma_bw_min_uncore);
  put(os, "n.send_overhead_cycles", n.send_overhead_cycles);
  put(os, "n.recv_overhead_cycles", n.recv_overhead_cycles);
  put(os, "n.pio_cycles_per_byte", n.pio_cycles_per_byte);
  put_int(os, "n.eager_threshold", n.eager_threshold);
  put_int(os, "n.pio_latency_cutoff", n.pio_latency_cutoff);
  put_int(os, "n.pio_chunk", n.pio_chunk);
  put_int(os, "n.pio_socket_crossings", n.pio_socket_crossings);
  put(os, "n.pio_base_latency", n.pio_base_latency);
  put(os, "n.control_latency", n.control_latency);
  put(os, "n.registration_base", n.registration_base);
  put(os, "n.registration_per_byte", n.registration_per_byte);
  put(os, "n.crc_cycles_per_byte", n.crc_cycles_per_byte);
  put(os, "n.noise_rel", n.noise_rel);

  const hw::KernelTraits& k = s.kernel;
  put(os, "k.name", k.name);
  put(os, "k.flops_per_iter", k.flops_per_iter);
  put(os, "k.bytes_per_iter", k.bytes_per_iter);
  put_int(os, "k.vec", static_cast<int>(k.vec));
  put(os, "k.working_set_bytes", k.working_set_bytes);

  put_int(os, "s.comm_thread", static_cast<int>(s.comm_thread));
  put_int(os, "s.data", static_cast<int>(s.data));
  put_int(os, "s.computing_cores", s.computing_cores);
  put_int(os, "s.message_bytes", s.message_bytes);
  put_int(os, "s.pingpong_iterations", s.pingpong_iterations);
  put_int(os, "s.pingpong_warmup", s.pingpong_warmup);
  put_int(os, "s.compute_repetitions", s.compute_repetitions);
  put(os, "s.target_pass_seconds", s.target_pass_seconds);
  put_int(os, "s.seed", s.seed);

  // Schema v3: fabric topology and the multi-job tenant list.
  s.topology.serialize(os);
  put_int(os, "s.jobs", s.jobs.size());
  for (const JobSpec& j : s.jobs) {
    put(os, "j.label", j.label);
    os << "j.nodes=[";
    for (int node : j.nodes) os << node << ',';
    os << "];";
    put_int(os, "j.message_bytes", j.message_bytes);
    put_int(os, "j.iterations", j.iterations);
    put(os, "j.offered_load", j.offered_load);
    put_int(os, "j.pattern", static_cast<int>(j.pattern));
  }
}

namespace {

/// The text cache_key() hashes; every entry stores it for comparison.
std::string cache_key_text(const Campaign& campaign, const SweepPoint& point) {
  std::ostringstream os;
  os << "cci-campaign-v" << kCampaignSchemaVersion << ';';
  os << "eval=" << campaign.evaluator_id() << ';';
  os << "axes=";
  for (const std::string& l : campaign.spec().axis_labels()) os << l << ',';
  os << ";cols=";
  for (const std::string& l : campaign.column_labels()) os << l << ',';
  os << ";point=";
  for (const std::string& l : point.labels) os << l << ',';
  os << ';';
  serialize_scenario(os, point.scenario);
  return os.str();
}

}  // namespace

std::uint64_t cache_key(const Campaign& campaign, const SweepPoint& point) {
  return fnv1a(cache_key_text(campaign, point));
}

// ---- engine -----------------------------------------------------------------

trace::Table CampaignRun::table(const Campaign& campaign) const {
  trace::Table t(headers);
  for (std::size_t i = 0; i < points.size(); ++i) {
    std::vector<std::string> cells = points[i].labels;
    for (std::size_t c = 0; c < values[i].size(); ++c)
      cells.push_back(campaign.format_cell(c, points[i], values[i][c]));
    t.add_text_row(cells);
  }
  return t;
}

void CampaignRun::write_timeline_csv(std::ostream& os, const std::string& campaign_name,
                                     bool with_header) const {
  bool header = with_header;
  for (std::size_t i = 0; i < timelines.size() && i < points.size(); ++i) {
    // The prefix carries the run identity so shard/figure outputs simply
    // concatenate; %zu keeps the grid index format locale-free.
    char idx[32];
    std::snprintf(idx, sizeof idx, "%zu", points[i].index);
    timelines[i].write_csv(os, "campaign,point", campaign_name + "," + idx, header);
    header = false;
  }
}

namespace {

/// Minimal work-stealing deques: each worker pops from the front of its
/// own queue and steals from the back of a victim's.  Points are
/// coarse-grained (one full simulation each), so a mutex per deque costs
/// nothing measurable while keeping the scheduler obviously correct.
class StealingQueues {
 public:
  StealingQueues(std::size_t workers, const std::vector<std::size_t>& work)
      : queues_(workers) {
    for (std::size_t i = 0; i < work.size(); ++i)
      queues_[i % workers].items.push_back(work[i]);
  }

  bool next(std::size_t worker, std::size_t& out) {
    CCI_SCHED_POINT(kQueuePop, worker);
    if (pop_front(worker, out)) return true;
    for (std::size_t off = 1; off < queues_.size(); ++off) {
      const std::size_t victim = (worker + off) % queues_.size();
      CCI_SCHED_POINT(kQueueSteal, victim);
      if (pop_back(victim, out)) return true;
    }
    return false;
  }

 private:
  struct Deque {
    std::mutex m;
    std::deque<std::size_t> items;
  };

  bool pop_front(std::size_t q, std::size_t& out) {
    std::lock_guard<std::mutex> lock(queues_[q].m);
    if (queues_[q].items.empty()) return false;
    out = queues_[q].items.front();
    queues_[q].items.pop_front();
    return true;
  }
  bool pop_back(std::size_t q, std::size_t& out) {
    std::lock_guard<std::mutex> lock(queues_[q].m);
    if (queues_[q].items.empty()) return false;
    out = queues_[q].items.back();
    queues_[q].items.pop_back();
    return true;
  }

  std::vector<Deque> queues_;
};

}  // namespace

CampaignEngine::CampaignEngine(CampaignOptions options) : options_(std::move(options)) {
  if (options_.jobs < 1) options_.jobs = 1;
  if (options_.shard_count < 1) options_.shard_count = 1;
  if (options_.shard_index < 0 || options_.shard_index >= options_.shard_count)
    throw std::invalid_argument("campaign: shard index out of range");
}

CampaignRun CampaignEngine::run(const Campaign& campaign) {
  const SweepSpec& spec = campaign.spec();
  const std::uint64_t* seed_override =
      options_.override_base_seed ? &options_.base_seed : nullptr;
  std::vector<SweepPoint> grid = spec.expand(seed_override);

  CampaignRun run;
  run.grid_total = grid.size();
  run.headers = spec.axis_labels();
  for (const std::string& l : campaign.column_labels()) run.headers.push_back(l);
  for (SweepPoint& p : grid)
    if (static_cast<int>(p.index % static_cast<std::size_t>(options_.shard_count)) ==
        options_.shard_index)
      run.points.push_back(std::move(p));

  const std::size_t n = run.points.size();
  run.values.assign(n, {});
  run.from_cache.assign(n, false);
  std::vector<double> sim_secs(n, 0.0);
  std::vector<std::uint64_t> keys(n, 0);
  std::vector<std::string> key_texts(n);

  // Resolve cached points first; only the misses hit the pool.  The cache
  // stores values, not samples: a time-resolved run executes every point
  // (and still stores its values).
  const bool timeline_on = options_.timeline_period > 0.0;
  std::size_t tmp_swept = 0;
  std::size_t cache_rejected = 0;
  if (!options_.cache_dir.empty()) tmp_swept = sweep_stale_tmp(options_.cache_dir);
  std::vector<std::size_t> misses;
  misses.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (!options_.cache_dir.empty()) {
      key_texts[i] = cache_key_text(campaign, run.points[i]);
      keys[i] = fnv1a(key_texts[i]);
      const CacheLookup found =
          timeline_on ? CacheLookup::kMiss
                      : load_cache_entry(options_.cache_dir, keys[i], key_texts[i],
                                         campaign.column_count(), run.values[i]);
      if (found == CacheLookup::kHit) {
        run.from_cache[i] = true;
        continue;
      }
      if (found == CacheLookup::kRejected) ++cache_rejected;
    }
    misses.push_back(i);
  }

  // Time-resolved mode: every executed point gets a fresh, enabled
  // registry plus an ambient RunSampling naming its private TimelineStore,
  // which every engine the point builds samples into.  Fresh-per-point
  // registries are what make the timeline deterministic: no gauge state or
  // sampler channel survives from a neighbouring point, so the bytes depend
  // only on the point itself — not on jobs, sharding, or execution order.
  if (timeline_on) run.timelines.resize(n);
  auto evaluate_point = [&](std::size_t i) {
    if (!timeline_on) {
      run.values[i] = campaign.evaluate(run.points[i], &sim_secs[i]);
      return;
    }
    obs::RunSampling rs;
    rs.timeline_period = options_.timeline_period;
    rs.timeline = &run.timelines[i];
    rs.attribution = campaign.attribution();
    obs::ScopedRunSampling ambient(rs);
    run.values[i] = campaign.evaluate(run.points[i], &sim_secs[i]);
  };
  // Run point i with `reg` as the thread's Registry::global().
  auto evaluate_in = [&](std::size_t i, obs::Registry& reg) {
    obs::Registry::ScopedThreadLocal tls(reg);
    evaluate_point(i);
  };

  // A point's registry is folded into the process registry only when that
  // one is enabled: merge_from writes raw values even into a disabled
  // registry, and a disabled process registry must record nothing.
  obs::Registry& process = obs::Registry::process();
  const bool metrics_on = process.enabled();
  const std::size_t workers =
      std::min<std::size_t>(static_cast<std::size_t>(options_.jobs), misses.size());
  if (workers <= 1) {
    // Inline execution feeds the process-wide obs registry directly —
    // byte-identical side effects to the historical hand-written loops.
    for (std::size_t i : misses) {
      if (!timeline_on) {
        evaluate_point(i);
        continue;
      }
      obs::Registry point_reg;
      point_reg.set_enabled(true);
      evaluate_in(i, point_reg);
      if (metrics_on) process.merge_from(point_reg);
    }
  } else {
    // Every executed point records into a registry of its own, folded into
    // the process registry in point order after the join.  Sums of doubles
    // depend on their grouping, so the process totals would otherwise
    // depend on which points work stealing handed each worker.
    StealingQueues queues(workers, misses);
    std::vector<std::unique_ptr<obs::Registry>> point_regs(n);
    std::exception_ptr first_error;
    std::mutex error_mutex;
    std::vector<std::thread> threads;
    threads.reserve(workers);
#ifdef CCI_SCHED
    std::vector<std::string> worker_names(workers);
    for (std::size_t w = 0; w < workers; ++w) {
      worker_names[w] = "campaign.worker." + std::to_string(w);
      sched::expect_thread(worker_names[w].c_str());
    }
#endif
    for (std::size_t w = 0; w < workers; ++w) {
      threads.emplace_back([&, w] {
#ifdef CCI_SCHED
        sched::ThreadScope sched_scope(worker_names[w].c_str());
#endif
        std::size_t idx = 0;
        while (queues.next(w, idx)) {
          try {
            auto reg = std::make_unique<obs::Registry>();
            reg->set_enabled(metrics_on || timeline_on);
            evaluate_in(idx, *reg);
            if (metrics_on) point_regs[idx] = std::move(reg);
          } catch (...) {
            std::lock_guard<std::mutex> lock(error_mutex);
            if (!first_error) first_error = std::current_exception();
            return;
          }
        }
      });
    }
#ifdef CCI_SCHED
    for (std::size_t w = 0; w < workers; ++w)
      sched::await_thread_exit(worker_names[w].c_str());
#endif
    {
      CCI_SCHED_BLOCKED_SCOPE();
      for (std::thread& t : threads) t.join();
    }
    if (first_error) std::rethrow_exception(first_error);
    for (std::size_t i : misses)
      if (point_regs[i] != nullptr) process.merge_from(*point_regs[i]);
  }

  run.executed = misses.size();
  run.cached = n - misses.size();

  if (!options_.cache_dir.empty())
    for (std::size_t i : misses)
      store_cache_entry(options_.cache_dir, keys[i], key_texts[i], campaign.name(),
                        run.values[i]);

  points_total_ += n;
  points_executed_ += run.executed;
  points_cached_ += run.cached;
  obs::Registry& reg = obs::Registry::process();
  reg.counter("campaign.points_total").add(static_cast<double>(n));
  reg.counter("campaign.points_executed").add(static_cast<double>(run.executed));
  reg.counter("campaign.points_cached").add(static_cast<double>(run.cached));
  if (tmp_swept > 0)
    reg.counter("campaign.cache_tmp_swept").add(static_cast<double>(tmp_swept));
  if (cache_rejected > 0)
    reg.counter("campaign.cache_rejected").add(static_cast<double>(cache_rejected));
  obs::Tracer& tracer = reg.tracer();
  if (tracer.on()) {
    const obs::TrackId track = tracer.track("campaign.points");
    for (std::size_t i = 0; i < n; ++i)
      if (!run.from_cache[i] && sim_secs[i] > 0.0)
        tracer.span(track, campaign.name() + "/" + std::to_string(run.points[i].index), 0.0,
                    sim_secs[i]);
  }
  return run;
}

}  // namespace cci::core
