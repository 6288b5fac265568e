#include "spans.hpp"

#include <algorithm>
#include <map>
#include <ostream>
#include <set>

namespace perfbench {

namespace {

thread_local int t_current = -1;  // innermost open span of this thread

}  // namespace

void Recorder::start() {
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.clear();
  threads_.clear();
  origin_ = Clock::now();
  on_ = true;
}

std::int64_t Recorder::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - origin_).count();
}

int Recorder::open(const char* name, int parent) {
  const std::int64_t t = now_ns();
  std::lock_guard<std::mutex> lock(mutex_);
  const int thread =
      threads_.try_emplace(std::this_thread::get_id(), static_cast<int>(threads_.size()))
          .first->second;
  spans_.push_back(Span{name, t, t, parent, thread});
  return static_cast<int>(spans_.size()) - 1;
}

void Recorder::close(int id) {
  const std::int64_t t = now_ns();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_[static_cast<std::size_t>(id)].end_ns = t;
}

std::vector<Span> Recorder::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

Recorder::Scope::Scope(Recorder& rec, const char* name, int parent) : rec_(&rec) {
  if (!rec.on()) return;
  id_ = rec.open(name, parent == kInherit ? t_current : parent);
  saved_ = t_current;
  t_current = id_;
}

Recorder::Scope::~Scope() {
  if (id_ < 0) return;
  rec_->close(id_);
  t_current = saved_;
}

std::vector<SelfTimeRow> self_time_table(const std::vector<Span>& spans, std::int64_t begin_ns,
                                         std::int64_t end_ns) {
  struct Edge {
    std::int64_t t;
    bool open;
    int id;
  };
  std::vector<Edge> edges;
  edges.reserve(spans.size() * 2);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const int id = static_cast<int>(i);
    edges.push_back({std::clamp(spans[i].start_ns, begin_ns, end_ns), true, id});
    edges.push_back({std::clamp(spans[i].end_ns, begin_ns, end_ns), false, id});
  }
  std::sort(edges.begin(), edges.end(), [](const Edge& a, const Edge& b) {
    if (a.t != b.t) return a.t < b.t;
    return a.open < b.open;  // closes first: zero-length overlap attributes nothing
  });

  std::map<std::string, SelfTimeRow> rows;
  for (const Span& s : spans) {
    SelfTimeRow& r = rows[s.name];
    r.name = s.name;
    ++r.calls;
  }
  std::vector<double> self(spans.size(), 0.0);
  std::vector<int> open_children(spans.size(), 0);
  std::vector<bool> is_open(spans.size(), false);
  std::set<int> leaves;
  double unattributed = 0.0;
  std::int64_t prev = begin_ns;
  for (const Edge& e : edges) {
    if (e.t > prev) {
      const double dt = static_cast<double>(e.t - prev) * 1e-9;
      if (leaves.empty()) {
        unattributed += dt;
      } else {
        const double share = dt / static_cast<double>(leaves.size());
        for (int id : leaves) self[static_cast<std::size_t>(id)] += share;
      }
      prev = e.t;
    }
    const auto idx = static_cast<std::size_t>(e.id);
    const int parent = spans[idx].parent;
    const bool parent_open = parent >= 0 && is_open[static_cast<std::size_t>(parent)];
    if (e.open) {
      is_open[idx] = true;
      leaves.insert(e.id);
      if (parent_open && open_children[static_cast<std::size_t>(parent)]++ == 0)
        leaves.erase(parent);
    } else {
      is_open[idx] = false;
      leaves.erase(e.id);
      if (parent_open && --open_children[static_cast<std::size_t>(parent)] == 0)
        leaves.insert(parent);
    }
  }
  if (end_ns > prev) unattributed += static_cast<double>(end_ns - prev) * 1e-9;

  for (std::size_t i = 0; i < spans.size(); ++i) rows[spans[i].name].self_s += self[i];
  std::vector<SelfTimeRow> out;
  out.reserve(rows.size() + 1);
  for (auto& [name, row] : rows) out.push_back(row);
  std::sort(out.begin(), out.end(),
            [](const SelfTimeRow& a, const SelfTimeRow& b) { return a.self_s > b.self_s; });
  out.push_back(SelfTimeRow{"unattributed", unattributed, 0});
  return out;
}

void write_spans_json(std::ostream& os, const std::vector<Span>& spans) {
  os << '[';
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    os << (i ? ",\n " : "\n ") << "{\"name\": \"" << s.name << "\", \"start_ns\": " << s.start_ns
       << ", \"end_ns\": " << s.end_ns << ", \"parent\": " << s.parent
       << ", \"thread\": " << s.thread << '}';
  }
  os << "\n]";
}

}  // namespace perfbench
