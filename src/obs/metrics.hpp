// Metrics registry: named counters, gauges, and fixed-bucket histograms.
//
// Hot-path contract (paper-evaluation instrumentation must not distort the
// numbers it measures):
//   * registration (cold) may allocate; every subsequent update — Counter::
//     inc/add, Histogram::observe — is allocation-free,
//   * counter and histogram registration is idempotent: re-registering a
//     name of the same type returns the existing instance (a registry can
//     be shared by the FTL, the device model, and benchmark harnesses),
//   * returned references are stable for the registry's lifetime (metrics
//     live in deques; holders cache pointers at construction),
//   * export order is registration order, so JSON/CSV output is
//     deterministic and golden-testable,
//   * a count the caller already keeps is registered as a counter view
//     (counter_view) rather than mirrored by a second counter: the export
//     reads the caller's field, and the hot path pays nothing extra,
//   * every gauge is a view: it is registered once, over a callable that
//     computes its value from the owner's state, and the registry calls it
//     at each read (export, snapshot, find_gauge). Nothing pushes a gauge,
//     so no export or snapshot can see a stale one.
//
// The whole layer compiles out with -DPHFTL_OBS=OFF (PHFTL_OBS_ENABLED=0):
// the same API surface remains, but every update is an empty inline
// function and the registry stores nothing. `phftl::obs::kEnabled` lets
// callers skip instrumentation-only work (e.g. reading a clock) with
// `if constexpr`.
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "util/assert.hpp"

#ifndef PHFTL_OBS_ENABLED
#define PHFTL_OBS_ENABLED 1
#endif

namespace phftl::obs {

inline constexpr bool kEnabled = PHFTL_OBS_ENABLED != 0;

enum class MetricType : std::uint8_t { kCounter, kGauge, kHistogram };

inline const char* metric_type_name(MetricType t) {
  switch (t) {
    case MetricType::kCounter: return "counter";
    case MetricType::kGauge: return "gauge";
    case MetricType::kHistogram: return "histogram";
  }
  return "?";
}

#if PHFTL_OBS_ENABLED

/// Monotonically increasing event count. A view (see
/// MetricsRegistry::counter_view) reads a field its owner already keeps
/// instead of its own count.
class Counter {
 public:
  explicit Counter(const std::uint64_t* source = nullptr) : source_(source) {}

  void inc() { ++value_; }
  void add(std::uint64_t n) { value_ += n; }
  std::uint64_t value() const { return source_ ? *source_ : value_; }
  const std::uint64_t* source() const { return source_; }

 private:
  std::uint64_t value_ = 0;
  const std::uint64_t* source_;
};

/// Point-in-time value (WA, hit rate, threshold, ...), computed by its
/// source from the owner's state at each read.
class Gauge {
 public:
  explicit Gauge(std::function<double()> source)
      : source_(std::move(source)) {}

  double value() const { return source_(); }

 private:
  std::function<double()> source_;
};

/// Fixed-bucket histogram. Bucket i counts observations x <= edge[i]
/// (ascending upper edges fixed at registration); one extra overflow
/// bucket counts x > edge.back(). Also tracks count/sum/min/max.
class Histogram {
 public:
  explicit Histogram(std::vector<double> upper_edges)
      : edges_(std::move(upper_edges)), buckets_(edges_.size() + 1, 0) {
    PHFTL_CHECK_MSG(std::is_sorted(edges_.begin(), edges_.end()),
                    "histogram edges must be ascending");
  }

  void observe(double x) {
    const auto it = std::lower_bound(edges_.begin(), edges_.end(), x);
    ++buckets_[static_cast<std::size_t>(it - edges_.begin())];
    if (count_ == 0) {
      min_ = x;
      max_ = x;
    } else {
      min_ = std::min(min_, x);
      max_ = std::max(max_, x);
    }
    ++count_;
    sum_ += x;
  }

  const std::vector<double>& edges() const { return edges_; }
  /// i in [0, edges().size()]; the last index is the overflow bucket.
  std::uint64_t bucket_count(std::size_t i) const { return buckets_[i]; }
  std::uint64_t count() const { return count_; }
  double sum() const { return sum_; }
  double mean() const {
    return count_ ? sum_ / static_cast<double>(count_) : 0.0;
  }
  double min() const { return min_; }
  double max() const { return max_; }

 private:
  std::vector<double> edges_;
  std::vector<std::uint64_t> buckets_;
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

class MetricsRegistry {
 public:
  /// One registered metric, in registration order. `index` addresses the
  /// per-type storage deque.
  struct Entry {
    std::string name;
    std::string unit;
    std::string help;
    MetricType type;
    std::size_t index;
  };

  Counter& counter(std::string_view name, std::string_view unit = "",
                   std::string_view help = "") {
    const std::size_t e = find_or_register(name, MetricType::kCounter, unit,
                                           help, counters_.size());
    if (e == counters_.size()) counters_.emplace_back();
    PHFTL_CHECK_MSG(counters_[e].source() == nullptr,
                    "counter() on a name registered as a counter view");
    return counters_[e];
  }

  /// Registers a read-only counter over `*source`, a count the caller
  /// already maintains (e.g. an FtlStats field): exports, snapshots and
  /// find_counter() read it directly, so no paired inc() is needed.
  /// `source` must outlive the registry. Re-registering a name must name
  /// the same source.
  void counter_view(std::string_view name, const std::uint64_t* source,
                    std::string_view unit = "", std::string_view help = "") {
    const std::size_t e = find_or_register(name, MetricType::kCounter, unit,
                                           help, counters_.size());
    if (e == counters_.size()) counters_.emplace_back(source);
    PHFTL_CHECK_MSG(counters_[e].source() == source,
                    "counter view re-registered over a different source");
  }

  /// Registers a gauge over `source`, which exports, snapshots and
  /// find_gauge() call for its value. What `source` reads must outlive the
  /// registry. A gauge name is registered once.
  void gauge(std::string_view name, std::function<double()> source,
             std::string_view unit = "", std::string_view help = "") {
    const std::size_t e = find_or_register(name, MetricType::kGauge, unit,
                                           help, gauges_.size());
    PHFTL_CHECK_MSG(e == gauges_.size(), "gauge name registered twice");
    gauges_.emplace_back(std::move(source));
  }

  Histogram& histogram(std::string_view name, std::vector<double> upper_edges,
                       std::string_view unit = "", std::string_view help = "") {
    const std::size_t e = find_or_register(name, MetricType::kHistogram, unit,
                                           help, histograms_.size());
    if (e == histograms_.size())
      histograms_.emplace_back(std::move(upper_edges));
    return histograms_[entries_[by_name_.at(std::string(name))].index];
  }

  // --- lookup (tests, exporters) ---
  const Counter* find_counter(std::string_view name) const {
    const Entry* e = find(name, MetricType::kCounter);
    return e ? &counters_[e->index] : nullptr;
  }
  const Gauge* find_gauge(std::string_view name) const {
    const Entry* e = find(name, MetricType::kGauge);
    return e ? &gauges_[e->index] : nullptr;
  }
  const Histogram* find_histogram(std::string_view name) const {
    const Entry* e = find(name, MetricType::kHistogram);
    return e ? &histograms_[e->index] : nullptr;
  }

  std::size_t size() const { return entries_.size(); }
  /// Registration order — the canonical export order.
  const std::vector<Entry>& entries() const { return entries_; }

  double value_of(const Entry& e) const {
    switch (e.type) {
      case MetricType::kCounter:
        return static_cast<double>(counters_[e.index].value());
      case MetricType::kGauge:
        return gauges_[e.index].value();
      case MetricType::kHistogram:
        return static_cast<double>(histograms_[e.index].count());
    }
    return 0.0;
  }

  const Histogram& histogram_at(const Entry& e) const {
    PHFTL_CHECK(e.type == MetricType::kHistogram);
    return histograms_[e.index];
  }

 private:
  const Entry* find(std::string_view name, MetricType type) const {
    const auto it = by_name_.find(std::string(name));
    if (it == by_name_.end()) return nullptr;
    const Entry& e = entries_[it->second];
    return e.type == type ? &e : nullptr;
  }

  /// Returns `next_index` when the name is new (caller appends storage),
  /// or the existing storage index otherwise.
  std::size_t find_or_register(std::string_view name, MetricType type,
                               std::string_view unit, std::string_view help,
                               std::size_t next_index) {
    auto key = std::string(name);
    const auto it = by_name_.find(key);
    if (it != by_name_.end()) {
      const Entry& e = entries_[it->second];
      PHFTL_CHECK_MSG(e.type == type,
                      "metric re-registered with a different type");
      return e.index;
    }
    by_name_.emplace(std::move(key), entries_.size());
    entries_.push_back(Entry{std::string(name), std::string(unit),
                             std::string(help), type, next_index});
    return next_index;
  }

  std::deque<Counter> counters_;
  std::deque<Gauge> gauges_;
  std::deque<Histogram> histograms_;
  std::vector<Entry> entries_;
  std::unordered_map<std::string, std::size_t> by_name_;
};

#else  // PHFTL_OBS_ENABLED == 0 — zero-cost stubs, same API surface.

class Counter {
 public:
  void inc() {}
  void add(std::uint64_t) {}
  std::uint64_t value() const { return 0; }
};

class Gauge {
 public:
  double value() const { return 0.0; }
};

class Histogram {
 public:
  explicit Histogram(std::vector<double> = {}) {}
  void observe(double) {}
  const std::vector<double>& edges() const { return kEmptyEdges; }
  std::uint64_t bucket_count(std::size_t) const { return 0; }
  std::uint64_t count() const { return 0; }
  double sum() const { return 0.0; }
  double mean() const { return 0.0; }
  double min() const { return 0.0; }
  double max() const { return 0.0; }

 private:
  static inline const std::vector<double> kEmptyEdges{};
};

class MetricsRegistry {
 public:
  struct Entry {
    std::string name;
    std::string unit;
    std::string help;
    MetricType type;
    std::size_t index;
  };

  Counter& counter(std::string_view, std::string_view = "",
                   std::string_view = "") {
    return counter_;
  }
  void counter_view(std::string_view, const std::uint64_t*,
                    std::string_view = "", std::string_view = "") {}
  template <typename Source>
  void gauge(std::string_view, Source&&, std::string_view = "",
             std::string_view = "") {}
  Histogram& histogram(std::string_view, std::vector<double>,
                       std::string_view = "", std::string_view = "") {
    return histogram_;
  }

  const Counter* find_counter(std::string_view) const { return nullptr; }
  const Gauge* find_gauge(std::string_view) const { return nullptr; }
  const Histogram* find_histogram(std::string_view) const { return nullptr; }

  std::size_t size() const { return 0; }
  const std::vector<Entry>& entries() const { return kNoEntries; }
  double value_of(const Entry&) const { return 0.0; }
  const Histogram& histogram_at(const Entry&) const { return histogram_; }

 private:
  static inline Counter counter_{};
  static inline Histogram histogram_{};
  static inline const std::vector<Entry> kNoEntries{};
};

#endif  // PHFTL_OBS_ENABLED

}  // namespace phftl::obs
