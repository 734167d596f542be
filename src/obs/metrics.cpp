#include "obs/metrics.hpp"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <limits>
#include <ostream>

namespace psmgen::obs {

namespace {

void appendJsonNumber(std::string& out, double v) {
  if (!std::isfinite(v)) {
    out += "0";  // NaN/inf are invalid JSON numbers
    return;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  out += buf;
}

void appendJsonKey(std::string& out, const std::string& name) {
  out += '"';
  for (const char c : name) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  out += "\": ";
}

/// Index of the bucket holding `v`: the first bound >= v, or the +Inf
/// bucket past the last bound (NaN included).
std::size_t bucketIndex(double v) {
  if (!(v <= kHistogramBounds.back())) return kHistogramBounds.size();
  return static_cast<std::size_t>(
      std::lower_bound(kHistogramBounds.begin(), kHistogramBounds.end(), v) -
      kHistogramBounds.begin());
}

/// The bucket-resolved nearest-rank quantile documented on
/// Histogram::quantile(). min/max clamp without std::clamp's lo <= hi
/// precondition: a reset racing a record may leave them crossed.
double nearestRankBound(const HistogramSnapshot& s, double q) {
  if (s.count == 0) return 0.0;
  const auto rank = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(std::ceil(std::clamp(q, 0.0, 1.0) *
                                               static_cast<double>(s.count))));
  std::uint64_t below = 0;
  std::size_t b = 0;
  while (b < kHistogramBounds.size() && below + s.buckets[b] < rank) {
    below += s.buckets[b++];
  }
  const double upper =
      b < kHistogramBounds.size() ? kHistogramBounds[b] : s.max;
  return std::min(std::max(upper, s.min), s.max);
}

}  // namespace

void Histogram::record(double v) {
  if (!enabled_->load(std::memory_order_relaxed)) return;
  double lo = min_.load(std::memory_order_relaxed);
  while (v < lo &&
         !min_.compare_exchange_weak(lo, v, std::memory_order_relaxed)) {
  }
  double hi = max_.load(std::memory_order_relaxed);
  while (v > hi &&
         !max_.compare_exchange_weak(hi, v, std::memory_order_relaxed)) {
  }
  sum_.fetch_add(v, std::memory_order_relaxed);
  buckets_[bucketIndex(v)].fetch_add(1, std::memory_order_release);
}

void Histogram::record(double v, std::uint64_t event_id) {
  if (event_id == 0) {
    record(v);
    return;
  }
  record(v, event_id,
         static_cast<std::uint64_t>(
             std::chrono::duration_cast<std::chrono::microseconds>(
                 std::chrono::system_clock::now().time_since_epoch())
                 .count()));
}

void Histogram::record(double v, std::uint64_t event_id, std::uint64_t ts_us) {
  if (!enabled_->load(std::memory_order_relaxed)) return;
  record(v);
  if (event_id == 0) return;
  common::MutexLock lock(exemplar_mutex_);
  exemplars_[bucketIndex(v)] = {v, event_id, ts_us};
}

std::array<Exemplar, kHistogramBuckets> Histogram::exemplars() const {
  common::MutexLock lock(exemplar_mutex_);
  return exemplars_;
}

double Histogram::quantile(double q) const {
  return nearestRankBound(snapshot(), q);
}

HistogramSnapshot Histogram::snapshot() const {
  HistogramSnapshot s;
  for (std::size_t b = 0; b < kHistogramBuckets; ++b) {
    s.buckets[b] = buckets_[b].load(std::memory_order_acquire);
    s.count += s.buckets[b];
  }
  if (s.count == 0) return s;
  s.sum = sum_.load(std::memory_order_relaxed);
  s.min = min_.load(std::memory_order_relaxed);
  s.max = max_.load(std::memory_order_relaxed);
  s.mean = s.sum / static_cast<double>(s.count);
  s.p50 = nearestRankBound(s, 0.50);
  s.p95 = nearestRankBound(s, 0.95);
  return s;
}

void Histogram::clear() {
  for (auto& bucket : buckets_) bucket.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
  min_.store(std::numeric_limits<double>::infinity(),
             std::memory_order_relaxed);
  max_.store(-std::numeric_limits<double>::infinity(),
             std::memory_order_relaxed);
  common::MutexLock lock(exemplar_mutex_);
  exemplars_.fill(Exemplar{});
}

Counter& Registry::counter(std::string_view name) {
  common::MutexLock lock(mutex_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_
             .emplace(std::string(name),
                      std::unique_ptr<Counter>(new Counter(&enabled_)))
             .first;
  }
  return *it->second;
}

Gauge& Registry::gauge(std::string_view name) {
  common::MutexLock lock(mutex_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_
             .emplace(std::string(name),
                      std::unique_ptr<Gauge>(new Gauge(&enabled_)))
             .first;
  }
  return *it->second;
}

Histogram& Registry::histogram(std::string_view name) {
  common::MutexLock lock(mutex_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_
             .emplace(std::string(name),
                      std::unique_ptr<Histogram>(new Histogram(&enabled_)))
             .first;
  }
  return *it->second;
}

void Registry::reset() {
  common::MutexLock lock(mutex_);
  for (auto& [name, c] : counters_) {
    c->value_.store(0, std::memory_order_relaxed);
  }
  for (auto& [name, g] : gauges_) {
    g->value_.store(0.0, std::memory_order_relaxed);
  }
  for (auto& [name, h] : histograms_) h->clear();
}

void Registry::writeJson(std::ostream& os) const {
  common::MutexLock lock(mutex_);
  std::string out;
  out.reserve(1024);
  out += "{\n  \"schema\": \"psmgen.metrics.v1\",\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, c] : counters_) {
    out += first ? "\n    " : ",\n    ";
    appendJsonKey(out, name);
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%" PRIu64, c->value());
    out += buf;
    first = false;
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"gauges\": {";
  first = true;
  for (const auto& [name, g] : gauges_) {
    out += first ? "\n    " : ",\n    ";
    appendJsonKey(out, name);
    appendJsonNumber(out, g->value());
    first = false;
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"histograms\": {";
  first = true;
  for (const auto& [name, h] : histograms_) {
    const HistogramSnapshot s = h->snapshot();
    out += first ? "\n    " : ",\n    ";
    appendJsonKey(out, name);
    out += "{\"count\": ";
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%zu", s.count);
    out += buf;
    out += ", \"sum\": ";
    appendJsonNumber(out, s.sum);
    out += ", \"min\": ";
    appendJsonNumber(out, s.min);
    out += ", \"max\": ";
    appendJsonNumber(out, s.max);
    out += ", \"mean\": ";
    appendJsonNumber(out, s.mean);
    out += ", \"p50\": ";
    appendJsonNumber(out, s.p50);
    out += ", \"p95\": ";
    appendJsonNumber(out, s.p95);
    out += '}';
    first = false;
  }
  out += first ? "}\n}\n" : "\n  }\n}\n";
  os << out;
}

RegistrySnapshot Registry::snapshot() const {
  common::MutexLock lock(mutex_);
  RegistrySnapshot s;
  s.counters.reserve(counters_.size());
  for (const auto& [name, c] : counters_) s.counters.emplace_back(name, c->value());
  s.gauges.reserve(gauges_.size());
  for (const auto& [name, g] : gauges_) s.gauges.emplace_back(name, g->value());
  s.histograms.reserve(histograms_.size());
  for (const auto& [name, h] : histograms_) {
    RegistrySnapshot::HistogramEntry e;
    e.name = name;
    e.stats = h->snapshot();
    e.exemplars = h->exemplars();
    s.histograms.push_back(std::move(e));
  }
  return s;
}

Registry& metrics() {
  static Registry instance;
  return instance;
}

}  // namespace psmgen::obs
