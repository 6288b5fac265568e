// Unified metrics layer: typed counters/gauges/histograms in one Registry.
//
// This is the simulator's stand-in for a perf-counter/Prometheus stack: every
// layer (sim, net, mpi, runtime, hw, core) registers named metrics under the
// `layer.component.metric` scheme and bumps them through stable handles.  The
// design goals, in order:
//
//  * near-zero overhead when disabled — every mutation is a single
//    predictable branch on the owning registry's enabled flag, and the whole
//    call site can additionally be compiled out with -DCCI_OBS_DISABLE;
//  * determinism — snapshots iterate metrics in name order, histogram
//    buckets are value-deterministic (no RNG, no wall clock), so two
//    identical simulations produce byte-identical snapshots;
//  * stable handles — metric objects live as long as their registry and are
//    never invalidated by reset(), so instrumented objects may cache raw
//    pointers at construction time or bind them on first enabled use.
//
// The simulator is single-threaded by construction (one discrete-event loop),
// so the registry performs no locking.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

// Compile-time kill switch: with -DCCI_OBS_DISABLE all mutations become
// no-ops (the registry still exists so handles stay valid).
#ifndef CCI_OBS_DISABLE
#define CCI_OBS_COMPILED_IN 1
#else
#define CCI_OBS_COMPILED_IN 0
#endif

namespace cci::obs {

/// Monotonically increasing sum (events dispatched, bytes moved, ...).
class Counter {
 public:
  void add(double n = 1.0) {
#if CCI_OBS_COMPILED_IN
    if (*enabled_) value_ += n;
#else
    (void)n;
#endif
  }
  [[nodiscard]] double value() const { return value_; }

 private:
  friend class Registry;
  explicit Counter(const bool* enabled) : enabled_(enabled) {}
  const bool* enabled_;
  double value_ = 0.0;
};

/// Last-written value plus the running maximum (queue depths, lock delays).
class Gauge {
 public:
  void set(double v) {
#if CCI_OBS_COMPILED_IN
    if (*enabled_) {
      value_ = v;
      if (v > max_) max_ = v;
    }
#else
    (void)v;
#endif
  }
  [[nodiscard]] double value() const { return value_; }
  [[nodiscard]] double max() const { return max_; }

 private:
  friend class Registry;
  explicit Gauge(const bool* enabled) : enabled_(enabled) {}
  const bool* enabled_;
  double value_ = 0.0;
  double max_ = 0.0;
};

/// HDR-style log-linear histogram for positive doubles.
///
/// Buckets are octaves (powers of two) split into kSubBuckets linear
/// sub-buckets, giving a fixed ~3% relative resolution over the full double
/// range — the classic high-dynamic-range layout, suited to latencies that
/// span nanoseconds to seconds.  Non-positive values land in a dedicated
/// underflow bucket.
class Histogram {
 public:
  static constexpr int kSubBuckets = 32;

  void record(double v) {
#if CCI_OBS_COMPILED_IN
    if (!*enabled_) return;
    bump_bucket(bucket_index(v), 1);
    ++count_;
    sum_ += v;
    if (count_ == 1 || v < min_) min_ = v;
    if (count_ == 1 || v > max_) max_ = v;
#else
    (void)v;
#endif
  }

  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] double sum() const { return sum_; }
  [[nodiscard]] double mean() const {
    return count_ > 0 ? sum_ / static_cast<double>(count_) : 0.0;
  }
  [[nodiscard]] double min() const { return min_; }
  [[nodiscard]] double max() const { return max_; }

  /// Value at quantile `q` (clamped to [0,1]): the representative value of
  /// the bucket containing the ceil(q * count)-th recorded sample (1-based;
  /// q = 0 maps to the first sample).  Exact to bucket resolution, with
  /// deterministic tie-breaking: when the target rank lands exactly on a
  /// bucket boundary the lower-indexed bucket wins, so two histograms with
  /// identical buckets always report identical quantiles.  Shared by the
  /// snapshot summary, trace::metrics_table and the obs::Sampler.
  [[nodiscard]] double value_at_quantile(double q) const;

  /// Deterministic bucket index for a value (kUnderflow for v <= 0).
  static int bucket_index(double v);
  /// Representative (geometric-mid) value of a bucket.
  static double bucket_value(int index);

  static constexpr int kUnderflow = INT32_MIN;

  /// Sparse buckets as (index, count) pairs sorted by index — same iteration
  /// order as the std::map this replaces, but contiguous: record() is a
  /// binary search plus increment, with an insertion only the first time a
  /// bucket is hit (allocation-free at steady state).
  using BucketVec = std::vector<std::pair<int, std::uint64_t>>;
  [[nodiscard]] const BucketVec& buckets() const { return buckets_; }

 private:
  friend class Registry;
  explicit Histogram(const bool* enabled) : enabled_(enabled) {}

  void bump_bucket(int index, std::uint64_t n) {
    auto it = std::lower_bound(
        buckets_.begin(), buckets_.end(), index,
        [](const std::pair<int, std::uint64_t>& b, int i) { return b.first < i; });
    if (it != buckets_.end() && it->first == index)
      it->second += n;
    else
      buckets_.insert(it, {index, n});
  }

  const bool* enabled_;
  BucketVec buckets_;
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Immutable view of every metric at one point in time, name-sorted.
struct Snapshot {
  struct Entry {
    enum class Kind { kCounter, kGauge, kHistogram };
    std::string name;
    Kind kind = Kind::kCounter;
    double value = 0.0;  ///< counter total / gauge current value
    double max = 0.0;    ///< gauge or histogram max
    // Histogram-only summary:
    std::uint64_t count = 0;
    double sum = 0.0;
    double min = 0.0;
    double p50 = 0.0;
    double p90 = 0.0;
    double p99 = 0.0;
  };
  std::vector<Entry> entries;

  /// nullptr when no metric of that name exists.  string_view key: callers
  /// assembling names in stack buffers never materialize a std::string.
  [[nodiscard]] const Entry* find(std::string_view name) const;
  /// Counter/gauge value by name; 0 when absent — indistinguishable from a
  /// true zero, so prefer try_value_of() wherever absence matters.
  [[nodiscard]] double value_of(std::string_view name) const;
  /// Counter/gauge value by name, or nullopt when no such metric exists
  /// (result-JSON and perf-guard paths report absent metrics as absent
  /// instead of a fake 0).
  [[nodiscard]] std::optional<double> try_value_of(std::string_view name) const;
};

class Tracer;

/// Owner of all metrics plus the span tracer.  Metrics follow the
/// `layer.component.metric` naming scheme (docs/OBSERVABILITY.md).
class Registry {
 public:
  Registry();
  ~Registry();
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// The registry used by all instrumented layers: the thread's scoped
  /// override when one is installed (see ScopedThreadLocal), otherwise the
  /// process-wide instance.  Disabled at startup; benches/tests flip it on.
  static Registry& global();

  /// The process-wide registry, bypassing any thread-local override.
  static Registry& process();

  /// Install `r` as this thread's Registry::global() for the scope's
  /// lifetime.  The campaign engine gives each point it runs on a worker
  /// a private registry this way, so concurrent simulation points never
  /// touch the (lock-free by design) process registry; the coordinator
  /// merges them back in point order with merge_from().
  class ScopedThreadLocal {
   public:
    explicit ScopedThreadLocal(Registry& r);
    ~ScopedThreadLocal();
    ScopedThreadLocal(const ScopedThreadLocal&) = delete;
    ScopedThreadLocal& operator=(const ScopedThreadLocal&) = delete;

   private:
    Registry* previous_;
  };

  /// Fold another registry's metrics into this one with commutative,
  /// order-independent semantics: counters add, gauges keep the maximum
  /// (value and max both become the max), histograms add bucket-wise.
  /// Integer-valued metrics therefore merge bit-exactly regardless of how
  /// points were partitioned across worker threads.
  void merge_from(const Registry& other);

  [[nodiscard]] bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }

  /// Find-or-create.  Returned references stay valid for the registry's
  /// lifetime; reset() zeroes values but never destroys metric objects.
  /// Lookup is heterogeneous (std::less<>): a string_view key only becomes
  /// a std::string on first registration, so re-registration paths that
  /// assemble names in stack buffers never touch the heap.
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name);

  /// Zero every metric and drop all trace events.  Handles stay valid, the
  /// enabled flag is unchanged.
  void reset();

  [[nodiscard]] Snapshot snapshot() const;

  /// Name-ordered metric iteration, one kind at a time (the sampler and
  /// exporters walk these; `fn(name, metric)` with const references).
  template <typename Fn>
  void visit_counters(Fn&& fn) const {
    for (const auto& [name, c] : counters_) fn(name, *c);
  }
  template <typename Fn>
  void visit_gauges(Fn&& fn) const {
    for (const auto& [name, g] : gauges_) fn(name, *g);
  }
  template <typename Fn>
  void visit_histograms(Fn&& fn) const {
    for (const auto& [name, h] : histograms_) fn(name, *h);
  }

  Tracer& tracer() { return *tracer_; }
  [[nodiscard]] const Tracer& tracer() const { return *tracer_; }

 private:
  bool enabled_ = false;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
  std::unique_ptr<Tracer> tracer_;
};

}  // namespace cci::obs
