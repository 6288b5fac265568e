// Slab pools for the discrete-event hot path.
//
// Everything the steady-state event loop touches per event — coroutine
// frames, activities, combinator wake-up nodes — comes from the typed
// recyclers in this header instead of the global heap:
//
//  * SlabPool<T>   — fixed-type slab allocator with an intrusive free list.
//    Objects are handed out as intrusively refcounted RcPtr<T> (no separate
//    control block) and return to the pool the instant the last reference
//    drops.  A pool may die before its stragglers: slabs with live objects
//    are orphaned and the final release frees them, so long-lived refs
//    (an ActivityPtr outliving its FlowModel) stay safe.
//  * FrameArena    — size-bucketed recycler for coroutine frames, installed
//    via a custom operator new/delete on Coro::promise_type.  One arena per
//    thread, so campaign workers never contend and frames recycle across
//    engine instances.
//  * SmallVec<T,N> — inline small-vector for waiter/demand lists whose
//    overwhelmingly common size is 0–2 entries.
//  * WarmStore<T>  — one spare block set per thread for objects built one
//    after another on it (a flow model's resource chunks, its solver's
//    per-resource arrays): a teardown hands its storage back and the next
//    build takes it instead of faulting fresh pages in.
//
// CCI_SIM_POOLS=0 (or set_pools_enabled(false)) routes every request to the
// global heap instead — the A/B reference path for the throughput bench and
// for leak triage.  Provenance is carried per object/block, so the toggle
// may flip between runs without confusing deallocation.
//
// Stat counters (allocated/reused/live/slabs/slab bytes) are exported
// through obs by Engine::run: `sim.pool.<name>.*` for an engine's own
// pools, `host.pool.frames.*` for the thread's frame arena, whose counts
// depend on what the thread ran before — see docs/PERFORMANCE.md and
// docs/OBSERVABILITY.md.
#pragma once

#include <cassert>
#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <initializer_list>
#include <new>
#include <utility>
#include <vector>

namespace cci::sim {

/// Runtime kill switch for every pool in this header.  Read once from
/// CCI_SIM_POOLS at first use; benches flip it per run for A/B timing.
inline bool& pools_enabled_flag() {
  static bool enabled = [] {
    const char* env = std::getenv("CCI_SIM_POOLS");
    return !(env != nullptr && env[0] == '0' && env[1] == '\0');
  }();
  return enabled;
}
inline bool pools_enabled() { return pools_enabled_flag(); }
inline void set_pools_enabled(bool on) { pools_enabled_flag() = on; }

/// Common stats facade; Engine publishes registered pools through obs.
class PoolBase {
 public:
  struct Stats {
    std::uint64_t allocated = 0;   ///< total requests served
    std::uint64_t reused = 0;      ///< requests served from a free list
    std::uint64_t live = 0;        ///< pooled objects currently in use
    std::uint64_t slabs = 0;       ///< slabs carved so far
    std::uint64_t slab_bytes = 0;  ///< bytes held in slabs
  };

  explicit PoolBase(const char* name) : name_(name) {}
  PoolBase(const PoolBase&) = delete;
  PoolBase& operator=(const PoolBase&) = delete;

  [[nodiscard]] const char* name() const { return name_; }
  [[nodiscard]] const Stats& stats() const { return stats_; }

  /// Monotonic-field deltas since the previous call (live is a level and is
  /// returned as-is).  The publish baseline lives here so several engines
  /// sharing one pool (the per-thread frame arena) never double-count.
  Stats take_delta() {
    Stats d;
    d.allocated = stats_.allocated - published_.allocated;
    d.reused = stats_.reused - published_.reused;
    d.live = stats_.live;
    d.slabs = stats_.slabs - published_.slabs;
    d.slab_bytes = stats_.slab_bytes - published_.slab_bytes;
    published_ = stats_;
    return d;
  }

 protected:
  ~PoolBase() = default;
  const char* name_;
  Stats stats_;

 private:
  Stats published_;
};

namespace pool_detail {
/// Per-slab header: live-object count plus the owner backlink that release
/// paths consult.  A destroyed pool nulls `owner` (orphaning the slab); the
/// last object released from an orphaned slab frees it.
struct SlabHdr {
  void* owner = nullptr;
  std::size_t live = 0;
  SlabHdr* next = nullptr;
};
}  // namespace pool_detail

template <class T>
class SlabPool;
template <class T>
class RcPtr;

/// CRTP base for intrusively refcounted, slab-pooled objects.  `slab_` is
/// null for objects allocated with the pools disabled (plain new/delete).
template <class T>
class RcPooled {
 protected:
  RcPooled() = default;
  ~RcPooled() = default;

 private:
  friend class SlabPool<T>;
  friend class RcPtr<T>;
  std::uint32_t rc_ = 0;
  pool_detail::SlabHdr* slab_ = nullptr;
};

/// Intrusive shared pointer over RcPooled<T> objects.  Drop-in for the
/// shared_ptr roles in the sim hot path: copyable, movable, boolean-testable.
/// Releasing the last reference recycles the object into its pool (or frees
/// it directly once the pool is gone).  Not thread-safe — the simulator is
/// single-threaded by construction.
template <class T>
class RcPtr {
 public:
  RcPtr() = default;
  RcPtr(std::nullptr_t) {}  // NOLINT(google-explicit-constructor)
  explicit RcPtr(T* p) : p_(p) {
    if (p_ != nullptr) ++static_cast<RcPooled<T>*>(p_)->rc_;
  }
  RcPtr(const RcPtr& o) : p_(o.p_) {
    if (p_ != nullptr) ++static_cast<RcPooled<T>*>(p_)->rc_;
  }
  RcPtr(RcPtr&& o) noexcept : p_(std::exchange(o.p_, nullptr)) {}
  RcPtr& operator=(const RcPtr& o) {
    RcPtr tmp(o);
    std::swap(p_, tmp.p_);
    return *this;
  }
  RcPtr& operator=(RcPtr&& o) noexcept {
    if (this != &o) {
      release();
      p_ = std::exchange(o.p_, nullptr);
    }
    return *this;
  }
  ~RcPtr() { release(); }

  void reset() { release(); }
  [[nodiscard]] T* get() const { return p_; }
  T* operator->() const { return p_; }
  T& operator*() const { return *p_; }
  explicit operator bool() const { return p_ != nullptr; }
  friend bool operator==(const RcPtr& a, const RcPtr& b) { return a.p_ == b.p_; }
  friend bool operator!=(const RcPtr& a, const RcPtr& b) { return a.p_ != b.p_; }
  friend bool operator==(const RcPtr& a, std::nullptr_t) { return a.p_ == nullptr; }
  friend bool operator!=(const RcPtr& a, std::nullptr_t) { return a.p_ != nullptr; }

 private:
  // GCC's -Wuse-after-free fires when two release() calls inline into one
  // function: it sees the `delete p` of one copy and the `--b->rc_` of a
  // later copy against the same object, but cannot model that the refcount
  // makes the deleting release the *last* one.  Classic refcount false
  // positive (shared_ptr escapes it only because its control-block ops are
  // opaque); the ASan job covers the real property.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wuse-after-free"
#endif
  void release() {
    if (p_ == nullptr) return;
    auto* b = static_cast<RcPooled<T>*>(p_);
    T* p = std::exchange(p_, nullptr);
    if (--b->rc_ != 0) return;
    pool_detail::SlabHdr* slab = b->slab_;
    if (slab == nullptr) {
      delete p;  // allocated with pools disabled
    } else if (slab->owner != nullptr) {
      static_cast<SlabPool<T>*>(slab->owner)->recycle(p);
    } else {
      SlabPool<T>::orphan_destroy(p, slab);
    }
  }
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

  T* p_ = nullptr;
};

/// Fixed-type slab allocator.  make() serves from the free list, then the
/// bump region of the current slab, then a fresh slab; recycle() runs the
/// destructor and pushes the node back.  No per-object malloc at steady
/// state.
template <class T>
class SlabPool : public PoolBase {
 public:
  static_assert(alignof(T) <= alignof(std::max_align_t),
                "SlabPool does not support over-aligned types");

  explicit SlabPool(const char* name, std::size_t objs_per_slab = 64)
      : PoolBase(name), objs_per_slab_(objs_per_slab) {}

  ~SlabPool() {
    // Slabs still holding live objects are orphaned (freed by the last
    // RcPtr release); empty ones die now.  The free list dies with us.
    pool_detail::SlabHdr* s = slabs_;
    while (s != nullptr) {
      pool_detail::SlabHdr* next = s->next;
      s->owner = nullptr;
      if (s->live == 0) ::operator delete(static_cast<void*>(s));
      s = next;
    }
  }

  template <class... Args>
  RcPtr<T> make(Args&&... args) {
    ++stats_.allocated;
    T* obj;
    if (!pools_enabled()) {
      obj = new T(std::forward<Args>(args)...);
      // slab_ stays null: released with plain delete.
    } else if (free_ != nullptr) {
      FreeNode* n = free_;
      free_ = n->next;
      pool_detail::SlabHdr* slab = n->slab;
      ++stats_.reused;
      ++stats_.live;
      obj = new (static_cast<void*>(n)) T(std::forward<Args>(args)...);
      static_cast<RcPooled<T>*>(obj)->slab_ = slab;
      ++slab->live;
    } else {
      if (bump_ == bump_end_) grow();
      void* mem = bump_;
      bump_ += node_bytes();
      ++stats_.live;
      obj = new (mem) T(std::forward<Args>(args)...);
      static_cast<RcPooled<T>*>(obj)->slab_ = current_;
      ++current_->live;
    }
    return RcPtr<T>(obj);
  }

 private:
  friend class RcPtr<T>;

  struct FreeNode {
    FreeNode* next;
    pool_detail::SlabHdr* slab;
  };

  static constexpr std::size_t node_bytes() {
    constexpr std::size_t raw =
        sizeof(T) > sizeof(FreeNode) ? sizeof(T) : sizeof(FreeNode);
    constexpr std::size_t a = alignof(std::max_align_t);
    return (raw + a - 1) / a * a;
  }
  static constexpr std::size_t hdr_bytes() {
    constexpr std::size_t a = alignof(std::max_align_t);
    return (sizeof(pool_detail::SlabHdr) + a - 1) / a * a;
  }

  void grow() {
    const std::size_t bytes = hdr_bytes() + node_bytes() * objs_per_slab_;
    void* mem = ::operator new(bytes);
    auto* hdr = new (mem) pool_detail::SlabHdr;
    hdr->owner = this;
    hdr->next = slabs_;
    slabs_ = hdr;
    current_ = hdr;
    bump_ = static_cast<char*>(mem) + hdr_bytes();
    bump_end_ = bump_ + node_bytes() * objs_per_slab_;
    ++stats_.slabs;
    stats_.slab_bytes += bytes;
  }

  void recycle(T* obj) {
    pool_detail::SlabHdr* slab = static_cast<RcPooled<T>*>(obj)->slab_;
    obj->~T();
    --slab->live;
    --stats_.live;
    auto* n = reinterpret_cast<FreeNode*>(obj);
    n->next = free_;
    n->slab = slab;
    free_ = n;
  }

  /// Release path for objects that outlived their pool.
  static void orphan_destroy(T* obj, pool_detail::SlabHdr* slab) {
    obj->~T();
    if (--slab->live == 0) ::operator delete(static_cast<void*>(slab));
  }

  std::size_t objs_per_slab_;
  pool_detail::SlabHdr* slabs_ = nullptr;
  pool_detail::SlabHdr* current_ = nullptr;
  char* bump_ = nullptr;
  char* bump_end_ = nullptr;
  FreeNode* free_ = nullptr;
};

/// Size-bucketed recycler for coroutine frames.  Frame sizes are decided by
/// the compiler and cluster around a handful of values per binary, so blocks
/// are bucketed at 64-byte granularity and recycled forever; each block
/// carries a 16-byte header recording its bucket (0 = heap passthrough for
/// oversized frames or pools-disabled allocations).  One arena per thread:
/// campaign workers get private arenas and frames recycle across engines.
class FrameArena : public PoolBase {
 public:
  static constexpr std::size_t kGranularity = 64;
  static constexpr std::size_t kMaxBucketBytes = 16384;
  static constexpr std::size_t kFramesPerSlab = 8;

  FrameArena() : PoolBase("frames") {}
  ~FrameArena() {
    // All engines on this thread are gone by the time thread-locals die, so
    // every frame should be back; if not, leak rather than dangle.
    if (stats_.live != 0) return;
    for (void* s : slab_mem_) ::operator delete(s);
  }

  static FrameArena& local() {
    static thread_local FrameArena arena;
    return arena;
  }

  void* allocate(std::size_t size) {
    ++stats_.allocated;
    const std::size_t total = size + sizeof(Header);
    if (!pools_enabled() || total > kMaxBucketBytes) {
      auto* block = static_cast<char*>(::operator new(total));
      new (block) Header{0};
      return block + sizeof(Header);
    }
    const std::size_t bytes = (total + kGranularity - 1) / kGranularity * kGranularity;
    const std::size_t bucket = bytes / kGranularity - 1;
    ++stats_.live;
    if (free_[bucket] != nullptr) {
      ++stats_.reused;
      auto* block = static_cast<char*>(free_[bucket]);
      free_[bucket] = next_of(block);
      return block + sizeof(Header);
    }
    // Carve a slab of identical blocks; the first is returned, the rest
    // seed the bucket's free list.
    auto* slab = static_cast<char*>(::operator new(bytes * kFramesPerSlab));
    slab_mem_.push_back(slab);
    ++stats_.slabs;
    stats_.slab_bytes += bytes * kFramesPerSlab;
    for (std::size_t i = 1; i < kFramesPerSlab; ++i) {
      char* block = slab + i * bytes;
      new (block) Header{static_cast<std::uint32_t>(bytes)};
      next_of(block) = free_[bucket];
      free_[bucket] = block;
    }
    new (slab) Header{static_cast<std::uint32_t>(bytes)};
    return slab + sizeof(Header);
  }

  void deallocate(void* p) {
    auto* block = static_cast<char*>(p) - sizeof(Header);
    const std::uint32_t bytes = reinterpret_cast<Header*>(block)->bucket_bytes;
    if (bytes == 0) {
      ::operator delete(block);
      return;
    }
    --stats_.live;
    const std::size_t bucket = bytes / kGranularity - 1;
    next_of(block) = free_[bucket];
    free_[bucket] = block;
  }

 private:
  struct alignas(16) Header {
    std::uint32_t bucket_bytes;  ///< 0 = plain operator new passthrough
  };
  static_assert(sizeof(Header) == 16, "frame payload must stay 16-aligned");

  /// Free-list link, stored in the (dead) payload area of a free block.
  static void*& next_of(char* block) {
    return *reinterpret_cast<void**>(block + sizeof(Header));
  }

  void* free_[kMaxBucketBytes / kGranularity] = {};  ///< per-bucket free lists
  std::vector<void*> slab_mem_;  ///< slab base pointers, for teardown
};

/// Per-thread warm storage.  An object built on a thread takes the thread's
/// spare `T` at construction (a default `T` when there is none) and hands
/// its own back at teardown; the next object on the thread reuses those
/// blocks instead of asking the heap again, which for large blocks would
/// fault every page in afresh.  `T::clear()` must leave it empty (size 0:
/// nothing of the earlier owner's contents survives) and `T::capacity()`
/// measures it; the thread keeps the larger of its spare and the returned
/// set, so it holds at most what one object used.  A give() during thread
/// exit, after the spare died, frees the storage instead.
template <class T>
class WarmStore {
 public:
  static T take() {
    if (gone()) return T{};
    return std::exchange(slot().spare, T{});
  }
  static void give(T&& storage) {
    if (gone()) return;
    storage.clear();
    T& spare = slot().spare;
    if (storage.capacity() > spare.capacity()) spare = std::move(storage);
  }

 private:
  struct Slot {
    T spare;
    ~Slot() { gone() = true; }
  };
  static Slot& slot() {
    static thread_local Slot s;
    return s;
  }
  /// Trivially destructible, so still readable after the slot died.
  static bool& gone() {
    static thread_local bool g = false;
    return g;
  }
};

/// Vector with N inline slots; spills to the heap only past N elements.
/// Covers the waiter/demand lists whose common size is 0–2.
template <class T, std::size_t N>
class SmallVec {
 public:
  SmallVec() = default;
  SmallVec(std::initializer_list<T> init) {
    for (const T& v : init) push_back(v);
  }
  SmallVec(const SmallVec& o) {
    reserve(o.size_);
    for (std::size_t i = 0; i < o.size_; ++i) new (data_ + i) T(o.data_[i]);
    size_ = o.size_;
  }
  SmallVec(SmallVec&& o) noexcept { steal(std::move(o)); }
  SmallVec& operator=(const SmallVec& o) {
    if (this != &o) {
      clear();
      reserve(o.size_);
      for (std::size_t i = 0; i < o.size_; ++i) new (data_ + i) T(o.data_[i]);
      size_ = o.size_;
    }
    return *this;
  }
  SmallVec& operator=(SmallVec&& o) noexcept {
    if (this != &o) {
      destroy();
      data_ = inline_data();
      cap_ = N;
      size_ = 0;
      steal(std::move(o));
    }
    return *this;
  }
  SmallVec& operator=(std::initializer_list<T> init) {
    clear();
    for (const T& v : init) push_back(v);
    return *this;
  }
  ~SmallVec() { destroy(); }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t capacity() const { return cap_; }
  T* begin() { return data_; }
  T* end() { return data_ + size_; }
  const T* begin() const { return data_; }
  const T* end() const { return data_ + size_; }
  T& operator[](std::size_t i) { return data_[i]; }
  const T& operator[](std::size_t i) const { return data_[i]; }
  T& front() { return data_[0]; }
  const T& front() const { return data_[0]; }
  T& back() { return data_[size_ - 1]; }
  const T& back() const { return data_[size_ - 1]; }

  void push_back(const T& v) { emplace_back(v); }
  void push_back(T&& v) { emplace_back(std::move(v)); }
  template <class... Args>
  T& emplace_back(Args&&... args) {
    if (size_ == cap_) grow(cap_ * 2);
    T* slot = new (data_ + size_) T(std::forward<Args>(args)...);
    ++size_;
    return *slot;
  }
  void pop_back() {
    --size_;
    data_[size_].~T();
  }
  void clear() {
    for (std::size_t i = 0; i < size_; ++i) data_[i].~T();
    size_ = 0;
  }
  void reserve(std::size_t n) {
    if (n > cap_) grow(n);
  }

 private:
  [[nodiscard]] T* inline_data() { return reinterpret_cast<T*>(inline_); }
  [[nodiscard]] bool is_inline() const {
    return data_ == reinterpret_cast<const T*>(inline_);
  }

  // GCC's -Warray-bounds misreads data_ as a pointer into the zero-length
  // remainder of inline_ once the move loop is inlined into a caller; the
  // accesses are bounded by size_ <= cap_ by construction.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Warray-bounds"
#endif
  void grow(std::size_t n) {
    if (n < cap_ * 2) n = cap_ * 2;
    T* heap = static_cast<T*>(::operator new(n * sizeof(T), std::align_val_t{alignof(T)}));
    for (std::size_t i = 0; i < size_; ++i) {
      new (heap + i) T(std::move(data_[i]));
      data_[i].~T();
    }
    if (!is_inline()) ::operator delete(data_, std::align_val_t{alignof(T)});
    data_ = heap;
    cap_ = n;
  }
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

  void destroy() {
    clear();
    if (!is_inline()) ::operator delete(data_, std::align_val_t{alignof(T)});
  }

  /// Move-from for construction/assignment into a fresh (inline, empty) state.
  void steal(SmallVec&& o) {
    if (o.is_inline()) {
      for (std::size_t i = 0; i < o.size_; ++i) {
        new (data_ + i) T(std::move(o.data_[i]));
        o.data_[i].~T();
      }
      size_ = o.size_;
      o.size_ = 0;
    } else {
      data_ = o.data_;
      cap_ = o.cap_;
      size_ = o.size_;
      o.data_ = o.inline_data();
      o.cap_ = N;
      o.size_ = 0;
    }
  }

  T* data_ = inline_data();
  std::size_t size_ = 0;
  std::size_t cap_ = N;
  alignas(T) unsigned char inline_[N * sizeof(T)];
};

/// Pooled wake-up record shared between the when_any/when_all combinators
/// and the events they watch.  `remaining` counts unfired events; the
/// notification that drives it to zero resumes `h`, later ones are no-ops.
struct WaitNode : RcPooled<WaitNode> {
  std::uint32_t remaining = 0;
  std::coroutine_handle<> h{};
};

}  // namespace cci::sim
