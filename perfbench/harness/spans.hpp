// Host-time spans recorded by the benchmark around its calls into each
// cci-lab layer, and the self-time table built from them.
//
// Spans stay in memory while a traced run executes and are written out
// when it ends.  Recording is thread-safe (campaign points run on worker
// threads); a disabled recorder makes every Scope a no-op.
#pragma once

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Span {
  std::string name;       ///< `layer.component.call`, also the table row
  std::int64_t start_ns = 0;  ///< relative to the recorder's origin
  std::int64_t end_ns = 0;
  int parent = -1;        ///< index of the enclosing span, -1 at top level
  int thread = 0;         ///< small per-thread id, in order of first span
};

class Recorder {
 public:
  /// Start recording: clears earlier spans and resets the time origin.
  void start();
  void stop() { on_ = false; }
  [[nodiscard]] bool on() const { return on_; }

  /// RAII span.  The parent defaults to the innermost open span of the
  /// calling thread; work handed to another thread names its parent.
  class Scope {
   public:
    static constexpr int kInherit = -2;
    Scope(Recorder& rec, const char* name, int parent = kInherit);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    /// This span's index (-1 when the recorder is off).
    [[nodiscard]] int id() const { return id_; }

   private:
    Recorder* rec_;
    int id_ = -1;
    int saved_ = -1;
  };

  /// Spans recorded since start(), in opening order.
  [[nodiscard]] std::vector<Span> spans() const;
  /// Nanoseconds since start().
  [[nodiscard]] std::int64_t now_ns() const;

 private:
  int open(const char* name, int parent);
  void close(int id);

  bool on_ = false;
  Clock::time_point origin_{};
  mutable std::mutex mutex_;  // guards spans_ and threads_
  std::vector<Span> spans_;
  std::map<std::thread::id, int> threads_;
};

/// One row of the self-time table.
struct SelfTimeRow {
  std::string name;
  double self_s = 0.0;
  std::uint64_t calls = 0;
};

/// Split the wall interval [begin_ns, end_ns] over the spans: each instant
/// is shared equally by the innermost spans open at that instant (spans with
/// no open child on any thread), and instants no span covers go to the
/// "unattributed" row.  The rows, unattributed last, therefore sum to
/// end_ns - begin_ns exactly, however many threads ran spans in parallel.
[[nodiscard]] std::vector<SelfTimeRow> self_time_table(const std::vector<Span>& spans,
                                                       std::int64_t begin_ns,
                                                       std::int64_t end_ns);

/// Spans as a JSON array of {name, start_ns, end_ns, parent, thread}.
void write_spans_json(std::ostream& os, const std::vector<Span>& spans);

}  // namespace perfbench
