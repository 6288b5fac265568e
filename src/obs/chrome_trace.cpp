#include "obs/chrome_trace.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <ostream>
#include <string>
#include <vector>

#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/tracer.hpp"

namespace cci::obs {

namespace {

std::string fmt_ts(double seconds) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.3f", seconds * 1e6);  // sim s -> trace us
  return buf;
}

struct TimedEvent {
  double ts = 0.0;
  char ph = 'B';                      // B, E, i, or C
  std::uint32_t tid = 0;              // lane id (ignored for C)
  const std::string* name = nullptr;  // span/counter name
  double value = 0.0;                 // C only
};

/// One overflow lane of a track: open-span stack + its emitted events.
/// Events within a lane are appended in non-decreasing ts order by
/// construction (see pop/push discipline below).
struct Lane {
  std::vector<const Tracer::Span*> open;
  std::vector<TimedEvent> events;

  void pop_until(double t) {
    while (!open.empty() && open.back()->t1 <= t) {
      events.push_back({open.back()->t1, 'E', 0, &open.back()->name, 0.0});
      open.pop_back();
    }
  }
  [[nodiscard]] bool fits(const Tracer::Span& s) const {
    return open.empty() || s.t1 <= open.back()->t1;
  }
  void push(const Tracer::Span& s) {
    events.push_back({s.t0, 'B', 0, &s.name, 0.0});
    open.push_back(&s);
  }
  void flush() {
    while (!open.empty()) {
      events.push_back({open.back()->t1, 'E', 0, &open.back()->name, 0.0});
      open.pop_back();
    }
  }
};

}  // namespace

void write_chrome_trace(std::ostream& os, const Tracer& tracer) {
  const auto& track_names = tracer.track_names();

  // Group spans by track, then sort each group by (start asc, end desc) so
  // containing spans precede the spans they contain.
  std::vector<std::vector<const Tracer::Span*>> per_track(track_names.size());
  for (const Tracer::Span& s : tracer.spans())
    per_track[s.track].push_back(&s);
  for (auto& spans : per_track) {
    std::stable_sort(spans.begin(), spans.end(),
                     [](const Tracer::Span* a, const Tracer::Span* b) {
                       if (a->t0 != b->t0) return a->t0 < b->t0;
                       return a->t1 > b->t1;
                     });
  }

  // Lane assignment: each span goes to the first lane where, after closing
  // spans that ended by its start, it either opens fresh or nests inside
  // the lane's top open span.  Guarantees every lane's B/E stream is a
  // properly nested, ts-monotonic sequence.
  std::vector<TimedEvent> events;
  struct LaneName {
    std::uint32_t tid;
    std::string label;
    std::size_t track;
  };
  std::vector<LaneName> lane_names;
  std::uint32_t next_tid = 0;

  for (std::size_t t = 0; t < per_track.size(); ++t) {
    std::vector<Lane> lanes;
    for (const Tracer::Span* s : per_track[t]) {
      bool placed = false;
      for (Lane& lane : lanes) {
        lane.pop_until(s->t0);
        if (lane.fits(*s)) {
          lane.push(*s);
          placed = true;
          break;
        }
      }
      if (!placed) {
        lanes.emplace_back();
        lanes.back().push(*s);
      }
    }
    for (std::size_t l = 0; l < lanes.size(); ++l) {
      lanes[l].flush();
      std::uint32_t tid = next_tid++;
      std::string label = track_names[t];
      if (l > 0) label += " #" + std::to_string(l + 1);
      lane_names.push_back({tid, std::move(label), t});
      for (TimedEvent ev : lanes[l].events) {
        ev.tid = tid;
        events.push_back(ev);
      }
    }
    // Tracks with only instants/no spans still deserve a row.
    if (lanes.empty()) {
      lane_names.push_back({next_tid++, track_names[t], t});
    }
  }

  // Map instants onto their track's first lane.
  std::vector<std::uint32_t> first_lane_of_track(track_names.size(), 0);
  for (const LaneName& ln : lane_names)
    if (ln.label == track_names[ln.track]) first_lane_of_track[ln.track] = ln.tid;
  for (const Tracer::Instant& i : tracer.instants())
    events.push_back({i.t, 'i', first_lane_of_track[i.track], &i.name, 0.0});

  for (const Tracer::CounterSample& c : tracer.counter_samples())
    events.push_back({c.t, 'C', 0, &c.name, c.value});

  // Global monotonic ts order; stable so each lane's internal B/E
  // discipline survives the merge.
  std::stable_sort(events.begin(), events.end(),
                   [](const TimedEvent& a, const TimedEvent& b) { return a.ts < b.ts; });

  os << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  bool first = true;
  auto sep = [&] {
    if (!first) os << ",\n";
    first = false;
  };
  sep();
  os << R"({"ph": "M", "pid": 1, "name": "process_name", "args": {"name": "cci-sim"}})";
  for (const LaneName& ln : lane_names) {
    sep();
    os << R"({"ph": "M", "pid": 1, "tid": )" << ln.tid
       << R"(, "name": "thread_name", "args": {"name": )";
    write_json_string(os, ln.label);
    os << "}}";
    sep();
    os << R"({"ph": "M", "pid": 1, "tid": )" << ln.tid
       << R"(, "name": "thread_sort_index", "args": {"sort_index": )" << ln.tid << "}}";
  }
  for (const TimedEvent& ev : events) {
    sep();
    switch (ev.ph) {
      case 'B':
      case 'E':
        os << "{\"ph\": \"" << ev.ph << "\", \"pid\": 1, \"tid\": " << ev.tid
           << ", \"ts\": " << fmt_ts(ev.ts) << ", \"name\": ";
        write_json_string(os, *ev.name);
        os << "}";
        break;
      case 'i':
        os << "{\"ph\": \"i\", \"s\": \"t\", \"pid\": 1, \"tid\": " << ev.tid
           << ", \"ts\": " << fmt_ts(ev.ts) << ", \"name\": ";
        write_json_string(os, *ev.name);
        os << "}";
        break;
      case 'C':
        os << "{\"ph\": \"C\", \"pid\": 1, \"ts\": " << fmt_ts(ev.ts) << ", \"name\": ";
        write_json_string(os, *ev.name);
        os << ", \"args\": {\"value\": ";
        write_json_number(os, ev.value);
        os << "}}";
        break;
      default: break;
    }
  }
  os << "\n]}\n";
}

bool write_chrome_trace_file(const std::string& path, const Registry& registry) {
  std::ofstream os(path);
  if (!os) return false;
  write_chrome_trace(os, registry.tracer());
  return static_cast<bool>(os);
}

}  // namespace cci::obs
