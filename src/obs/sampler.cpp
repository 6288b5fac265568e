#include "obs/sampler.hpp"

#include <cassert>

#include "obs/tracer.hpp"

namespace cci::obs {

Sampler::Sampler(Registry& registry, TimelineStore& store, SamplerConfig config)
    : registry_(&registry), store_(&store), config_(std::move(config)) {
  assert(config_.period > 0.0);
  next_tick_ = config_.period;  // tick 0 (t = 0) would always be all-zero deltas
  tick_index_ = 1;
  // Start every existing channel at the registry's current value: what an
  // earlier simulation left in the registry is not this sampler's delta.
  registry_->visit_counters([&](const std::string& name, const Counter& c) {
    channel(&c, name, /*histogram=*/false).last = c.value();
  });
  registry_->visit_gauges([&](const std::string& name, const Gauge& g) {
    channel(&g, name, /*histogram=*/false).last = g.value();
  });
  registry_->visit_histograms([&](const std::string& name, const Histogram& h) {
    channel(&h, name, /*histogram=*/true).last = static_cast<double>(h.count());
  });
}

void Sampler::advance_to(double t) {
  while (next_tick_ <= t) {
    take_sample(next_tick_);
    next_tick_ = static_cast<double>(++tick_index_) * config_.period;
  }
}

bool Sampler::denied(const std::string& name) const {
  for (const std::string& p : config_.deny_prefixes)
    if (name.compare(0, p.size(), p) == 0) return true;
  for (const std::string& s : config_.deny_substrings)
    if (name.find(s) != std::string::npos) return true;
  return false;
}

Sampler::Channel& Sampler::channel(const void* metric, const std::string& name,
                                   bool histogram) {
  auto it = channels_.find(metric);
  if (it != channels_.end()) return it->second;
  Channel ch;
  ch.denied = denied(name);
  if (!ch.denied) {
    if (histogram) {
      ch.series[0] = store_->series(name + ".count");
      ch.series[1] = store_->series(name + ".p50");
      ch.series[2] = store_->series(name + ".p90");
      ch.series[3] = store_->series(name + ".p99");
    } else {
      ch.series[0] = store_->series(name);
    }
  }
  return channels_.emplace(metric, ch).first->second;
}

void Sampler::emit(double t, std::uint32_t series, double value, bool mirror) {
  store_->append(t, series, value);
  if (mirror)
    registry_->tracer().counter_sample(store_->series_names()[series], t, value);
}

void Sampler::take_sample(double t) {
  ++samples_;
  const bool mirror = registry_->tracer().on();
  registry_->visit_counters([&](const std::string& name, const Counter& c) {
    Channel& ch = channel(&c, name, /*histogram=*/false);
    if (ch.denied) return;
    const double delta = c.value() - ch.last;
    ch.last = c.value();
    if (delta != 0.0) emit(t, ch.series[0], delta, mirror);
  });
  registry_->visit_gauges([&](const std::string& name, const Gauge& g) {
    Channel& ch = channel(&g, name, /*histogram=*/false);
    if (ch.denied) return;
    if (g.value() != ch.last) {
      ch.last = g.value();
      emit(t, ch.series[0], g.value(), mirror);
    }
  });
  registry_->visit_histograms([&](const std::string& name, const Histogram& h) {
    Channel& ch = channel(&h, name, /*histogram=*/true);
    if (ch.denied) return;
    const double count = static_cast<double>(h.count());
    if (count == ch.last) return;
    emit(t, ch.series[0], count - ch.last, mirror);
    ch.last = count;
    emit(t, ch.series[1], h.value_at_quantile(0.5), mirror);
    emit(t, ch.series[2], h.value_at_quantile(0.9), mirror);
    emit(t, ch.series[3], h.value_at_quantile(0.99), mirror);
  });
}

// ---- ambient per-run config -------------------------------------------------

namespace {
thread_local RunSampling tls_run_sampling;
}  // namespace

const RunSampling& run_sampling() { return tls_run_sampling; }

ScopedRunSampling::ScopedRunSampling(const RunSampling& config)
    : previous_(tls_run_sampling) {
  tls_run_sampling = config;
}

ScopedRunSampling::~ScopedRunSampling() { tls_run_sampling = previous_; }

}  // namespace cci::obs
