#ifndef TDMATCH_UTIL_OBS_METRICS_H_
#define TDMATCH_UTIL_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace tdmatch {
namespace util {
namespace obs {

/// Ordered key→value label pairs identifying one child of a metric
/// family (e.g. {{"stage", "parse"}}). Order is preserved in the
/// exposition output; children are deduplicated by their serialized form.
using LabelSet = std::vector<std::pair<std::string, std::string>>;

/// \brief Monotonic counter, striped across cachelines so concurrent
/// writers from different threads never contend on one atomic. A bump is
/// exactly one relaxed fetch_add; Value() sums the stripes (so reads are
/// O(stripes) and monotone but not a point-in-time snapshot — fine for
/// exposition).
class Counter {
 public:
  Counter() {
    for (auto& c : cells_) c.v.store(0, std::memory_order_relaxed);
  }
  void Inc(uint64_t n = 1) {
    cells_[StripeIndex()].v.fetch_add(n, std::memory_order_relaxed);
  }
  uint64_t Value() const {
    uint64_t total = 0;
    for (const auto& c : cells_) total += c.v.load(std::memory_order_relaxed);
    return total;
  }

  static constexpr size_t kStripes = 16;

 private:
  struct alignas(64) Cell {
    std::atomic<uint64_t> v;
  };
  /// Threads are assigned stripes round-robin on first use; the id is
  /// process-wide so two counters never force the same pair of threads
  /// onto the same cell by construction.
  static size_t StripeIndex();

  Cell cells_[kStripes];
};

/// \brief Last-write-wins double gauge.
class Gauge {
 public:
  void Set(double v) { value_.store(v, std::memory_order_relaxed); }
  void Add(double d) {
    double cur = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(cur, cur + d,
                                         std::memory_order_relaxed)) {
    }
  }
  double Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// \brief Fixed-bound histogram with atomic per-bucket counters and an
/// interpolating percentile estimator.
///
/// Buckets are defined by ascending upper bounds; observations beyond the
/// last bound land in an overflow bucket. Percentile(p) finds the bucket
/// holding the p-rank and interpolates linearly inside it (the bucket is
/// assumed uniform), so the estimate always lies within the true
/// quantile's bucket — a strict improvement over the old LatencyHistogram
/// which returned the bucket's upper bound. Overflow-bucket percentiles
/// clamp to the last finite bound.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void Observe(double v);
  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  /// Interpolated p-quantile estimate (p in [0,1]); 0 when empty.
  double Percentile(double p) const;
  const std::vector<double>& bounds() const { return bounds_; }
  /// Raw (non-cumulative) count of bucket i, i in [0, bounds.size()];
  /// index bounds.size() is the overflow bucket.
  uint64_t BucketCount(size_t i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }

  /// The serving latency grid: power-of-two microsecond upper bounds
  /// 2^0us .. 2^39us expressed in milliseconds (0.001ms .. ~550s) — the
  /// same grid the PR 5 LatencyHistogram used, now with explicit bounds.
  static std::vector<double> LatencyBoundsMs();

 private:
  std::vector<double> bounds_;
  std::unique_ptr<std::atomic<uint64_t>[]> buckets_;  // bounds_.size() + 1
  std::atomic<uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

enum class MetricType { kCounter, kGauge, kHistogram };

/// \brief Named metric families with labeled children, rendered as
/// Prometheus text exposition.
///
/// Two kinds of children coexist: *owned* metrics (Counter/Gauge/
/// Histogram instances the caller bumps directly — pointers are stable
/// for the registry's lifetime, so hot paths resolve once and never take
/// the registry lock again) and *callback* samples (a function evaluated
/// at render time, for components that already keep their own counters —
/// admission, cache, tuner). Exposition output is deterministic:
/// families sorted by name, children by serialized label set.
///
/// Use Registry::Global() for process-wide metrics; tests construct their
/// own instances.
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  static Registry& Global();

  /// Get-or-create. Type/help are fixed by the first caller; a type
  /// mismatch on an existing family returns the existing child anyway
  /// (first registration wins — misuse is a programming error, kept
  /// non-fatal so exposition never crashes a server).
  Counter* GetCounter(const std::string& name, const std::string& help,
                      const LabelSet& labels = {});
  Gauge* GetGauge(const std::string& name, const std::string& help,
                  const LabelSet& labels = {});
  Histogram* GetHistogram(const std::string& name, const std::string& help,
                          std::vector<double> bounds,
                          const LabelSet& labels = {});

  /// Callback-valued sample (rendered as `type`, value pulled at scrape
  /// time). Re-registering the same (name, labels) replaces the callback
  /// — reload paths use that to refresh identity labels.
  void RegisterCallback(MetricType type, const std::string& name,
                        const std::string& help, const LabelSet& labels,
                        std::function<double()> fn);
  /// Drops every callback child of `name` (e.g. before re-registering
  /// build_info with new labels after a reload).
  void ClearCallbacks(const std::string& name);

  /// Prometheus text exposition (text/plain; version=0.0.4): `# HELP` /
  /// `# TYPE` per family, counters as integers, gauges/callbacks as
  /// %.17g, histograms as cumulative `_bucket{le=...}` + `_sum` +
  /// `_count`. Deterministic ordering, label values escaped.
  std::string RenderPrometheus() const;

  /// One scalar child value at collection time. Histogram children
  /// flatten to two samples: `<name>_count` (counter semantics) and
  /// `<name>_sum` (gauge semantics) — enough to derive rates without
  /// retaining full bucket vectors.
  struct Sample {
    std::string name;
    std::string labels;  // serialized FormatLabels form, "" for none
    MetricType type = MetricType::kCounter;
    double value = 0.0;
  };

  /// Point-in-time scalar snapshot of every child, in the same
  /// deterministic family/label order as the exposition. Callback
  /// samples are evaluated here, exactly as a scrape would. This is the
  /// time-series sampler's input.
  std::vector<Sample> Collect() const;

 private:
  struct Family {
    MetricType type = MetricType::kCounter;
    std::string help;
    std::vector<double> bounds;  // histograms only
    // Keyed by serialized label set (stable render order for free).
    std::map<std::string, std::unique_ptr<Counter>> counters;
    std::map<std::string, std::unique_ptr<Gauge>> gauges;
    std::map<std::string, std::unique_ptr<Histogram>> histograms;
    std::map<std::string, std::function<double()>> callbacks;
  };

  Family* GetFamily(const std::string& name, MetricType type,
                    const std::string& help);

  mutable std::mutex mu_;
  std::map<std::string, Family> families_;
};

/// Serializes a label set as `{k1="v1",k2="v2"}` with Prometheus escaping
/// (backslash, double-quote, newline); empty set → empty string.
std::string FormatLabels(const LabelSet& labels);

}  // namespace obs
}  // namespace util
}  // namespace tdmatch

#endif  // TDMATCH_UTIL_OBS_METRICS_H_
