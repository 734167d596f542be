#pragma once
// Thread-safe metrics registry: counters, gauges and histograms with a
// stable JSON dump (schema "psmgen.metrics.v1").
//
// Cost policy: the registry is DISABLED by default and every instrument
// write first checks a shared relaxed atomic flag — a disabled add()/
// set()/record() costs one load and one branch, so instrumentation can
// live in hot paths (mergeability tests, per-pattern XU recognitions,
// per-row prediction) without taxing the default build. Enabled counters
// are relaxed atomics (exact under concurrency, no ordering guarantees);
// histograms count into one fixed bucket ladder (kHistogramBounds) with
// atomics too, so record() takes no lock either — only attaching an
// exemplar (record() with a non-zero event id) takes a per-histogram
// mutex.
//
// Instrument handles returned by counter()/gauge()/histogram() are
// stable for the life of the registry; hot call sites cache them in
// function-local statics so the name lookup happens once.
//
// Naming convention (see DESIGN.md for the full catalogue):
//   <subsystem>.<noun>[.<qualifier>]   e.g. merge.test.welch.accepted

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/mutex.hpp"
#include "common/thread_annotations.hpp"

namespace psmgen::obs {

class Registry;

class Counter {
 public:
  void add(std::uint64_t n = 1) {
    if (enabled_->load(std::memory_order_relaxed)) {
      value_.fetch_add(n, std::memory_order_relaxed);
    }
  }
  std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  friend class Registry;
  explicit Counter(const std::atomic<bool>* enabled) : enabled_(enabled) {}
  std::atomic<std::uint64_t> value_{0};
  const std::atomic<bool>* enabled_;
};

class Gauge {
 public:
  void set(double v) {
    if (enabled_->load(std::memory_order_relaxed)) {
      value_.store(v, std::memory_order_relaxed);
    }
  }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  friend class Registry;
  explicit Gauge(const std::atomic<bool>* enabled) : enabled_(enabled) {}
  std::atomic<double> value_{0.0};
  const std::atomic<bool>* enabled_;
};

/// The one histogram bucket ladder, fixed at compile time: 1-2.5-5 steps
/// per decade from 1e-6 to 1e4 upper bounds, so every instrument fits it
/// without a per-instrument option — refine sigmas in watts (~1e-6),
/// correlation magnitudes (~0.01-1), frame latencies in ms (~0.01-1) and
/// resync latencies in rows (1-1e4). Bucket b holds the samples v with
/// kHistogramBounds[b-1] < v <= kHistogramBounds[b] (Prometheus `le`
/// semantics); the final bucket, index kHistogramBounds.size(), is +Inf.
inline constexpr std::array<double, 31> kHistogramBounds = {
    1e-6, 2.5e-6, 5e-6, 1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4,
    1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2, 0.1,  0.25,   0.5,
    1.0,  2.5,    5.0,  10.0, 25.0,   50.0, 100.0, 250.0, 500.0,
    1e3,  2.5e3,  5e3,  1e4};
inline constexpr std::size_t kHistogramBuckets = kHistogramBounds.size() + 1;

struct HistogramSnapshot {
  std::size_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
  double mean = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;
  /// Per-bucket (not cumulative) counts over kHistogramBounds + {+Inf};
  /// they sum to `count`.
  std::array<std::uint64_t, kHistogramBuckets> buckets{};
};

/// One OpenMetrics exemplar: a recent sample annotated with the id of
/// the flight-recorder event that produced it, so a latency bucket in a
/// scrape links back to the exact `/debug/events` window around it.
/// event_id 0 marks an empty slot.
struct Exemplar {
  double value = 0.0;
  std::uint64_t event_id = 0;
  /// Unix wall-clock microseconds (system_clock) at record() time —
  /// rendered as the exemplar's OpenMetrics seconds field, which
  /// consumers compare against scrape time. Never a recorder-epoch /
  /// steady_clock value: those read as 1970 and get dropped.
  std::uint64_t ts_us = 0;
};

/// Fixed-bucket histogram. record() is lock-free: one bucket fetch_add,
/// one atomic add to the sum and CAS loops on min/max, so counts stay
/// exact forever and a scrape never stalls a recorder.
class Histogram {
 public:
  void record(double v);

  /// Records `v` and — when `event_id` is non-zero — makes it its
  /// bucket's exemplar, stamped with the current Unix wall-clock time,
  /// so the OpenMetrics exposition can link the bucket to the sample's
  /// flight-recorder window.
  void record(double v, std::uint64_t event_id);

  /// As above with an explicit exemplar timestamp (Unix wall-clock
  /// microseconds). For tests needing deterministic exemplars; serving
  /// code uses the self-stamping overload.
  void record(double v, std::uint64_t event_id, std::uint64_t ts_us);

  /// The newest exemplar recorded into each bucket, indexed like
  /// HistogramSnapshot::buckets.
  std::array<Exemplar, kHistogramBuckets> exemplars() const;

  /// Nearest-rank quantile, q in [0, 1], resolved to its bucket: the
  /// upper bound of the bucket holding the ceil(q * count)-th smallest
  /// sample, clamped to [min, max]; 0 when no sample was recorded.
  double quantile(double q) const;

  HistogramSnapshot snapshot() const;

 private:
  friend class Registry;
  explicit Histogram(const std::atomic<bool>* enabled) : enabled_(enabled) {}
  void clear();

  // Each bucket increment is a release that publishes the sample's
  // min/max/sum updates: a snapshot that counts a sample also sees it in
  // min and max. Only exemplar slots take a lock, and only record()
  // calls carrying an event id write them.
  std::array<std::atomic<std::uint64_t>, kHistogramBuckets> buckets_{};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_{std::numeric_limits<double>::infinity()};
  std::atomic<double> max_{-std::numeric_limits<double>::infinity()};
  mutable common::Mutex exemplar_mutex_;
  std::array<Exemplar, kHistogramBuckets> exemplars_
      GUARDED_BY(exemplar_mutex_);
  const std::atomic<bool>* enabled_;
};

/// A point-in-time copy of every instrument, names sorted. Decouples
/// exporters (JSON dump, Prometheus exposition) from the registry's
/// locking: take one snapshot, render with no lock held.
struct RegistrySnapshot {
  struct HistogramEntry {
    std::string name;
    HistogramSnapshot stats;
    std::array<Exemplar, kHistogramBuckets> exemplars;
  };
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::pair<std::string, double>> gauges;
  std::vector<HistogramEntry> histograms;
};

class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  void setEnabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Find-or-create by name. Handles stay valid for the registry's life
  /// and work (as no-ops) while the registry is disabled.
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name);

  /// Zeroes every instrument, keeping registrations and enablement.
  void reset();

  /// Dumps every instrument as JSON, names sorted, schema
  /// "psmgen.metrics.v1":
  ///   {"schema": "...", "counters": {...}, "gauges": {...},
  ///    "histograms": {"name": {"count": .., "sum": .., "min": ..,
  ///                            "max": .., "mean": .., "p50": ..,
  ///                            "p95": ..}, ...}}
  void writeJson(std::ostream& os) const;

  /// Copies every instrument.
  RegistrySnapshot snapshot() const;

 private:
  // Lock table — mutex_ guards the three instrument maps (registration
  // and iteration). Instrument *values* are their own concern: counters
  // and gauges are atomics, and so are histogram buckets; only a
  // histogram's exemplar slots have their own mutex. Lock order is always
  // Registry::mutex_ before Histogram::exemplar_mutex_ (reset(),
  // snapshot()); no path takes them in the other order.
  mutable common::Mutex mutex_;
  std::atomic<bool> enabled_{false};
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_
      GUARDED_BY(mutex_);
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_
      GUARDED_BY(mutex_);
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_
      GUARDED_BY(mutex_);
};

/// The process-global registry.
Registry& metrics();

}  // namespace psmgen::obs
