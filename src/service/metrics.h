// Lock-free service metrics: named atomic counters and fixed-bucket
// latency histograms with percentile snapshots.
//
// The registry is the observability surface of the query service: every
// request increments a handful of counters and records one histogram
// sample, so the write path must be wait-free (relaxed atomics, no
// allocation). Reads (snapshots, the formatted report) are rare and may
// be mildly inconsistent across metrics — each individual counter and
// bucket is exact.
#ifndef WSK_SERVICE_METRICS_H_
#define WSK_SERVICE_METRICS_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "observability/histogram.h"

namespace wsk {

// A monotone event counter. Writers never contend on anything but the
// cache line of the atomic itself.
class Counter {
 public:
  void Increment(uint64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

// Latency histogram over fixed exponential buckets: bucket i holds samples
// in (2^(i-1), 2^i] microseconds, covering 1 us .. ~17 min. Percentiles
// are read from the bucket boundaries, so their resolution is a factor of
// two — ample for p50/p95/p99 tail reporting, and in exchange Record() is
// two relaxed fetch_adds and a handful of bit operations. The bucket and
// quantile math lives in observability/histogram.h, shared with the rolling
// telemetry windows so windowed and cumulative quantiles can never diverge.
class LatencyHistogram {
 public:
  static constexpr size_t kNumBuckets = kLatencyBuckets;

  struct Snapshot {
    uint64_t count = 0;
    double sum_ms = 0.0;
    double mean_ms = 0.0;
    double p50_ms = 0.0;
    double p95_ms = 0.0;
    double p99_ms = 0.0;
    double max_ms = 0.0;  // largest sample observed (exact, not a bucket bound)
    uint64_t bucket_counts[kNumBuckets] = {};  // per-bucket sample counts
  };

  void Record(double ms);
  Snapshot TakeSnapshot() const;

  // Upper bound of bucket `i` in milliseconds (bucket i covers
  // (2^(i-1), 2^i] microseconds). Exposed for exporters that need the
  // boundary values, e.g. Prometheus `le` labels.
  static double BucketBoundMs(size_t i);

 private:
  static size_t BucketFor(double ms);

  std::atomic<uint64_t> buckets_[kNumBuckets] = {};
  std::atomic<uint64_t> sum_us_{0};
  // True observed maximum, maintained with a relaxed CAS loop; a bucket
  // bound would overstate the max by up to 2x.
  std::atomic<double> max_ms_{0.0};
};

// Name -> metric registry. counter()/histogram() intern the name on first
// use and return a stable reference; the returned objects live as long as
// the registry, so hot paths should look a metric up once and keep the
// reference.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter& counter(const std::string& name);
  LatencyHistogram& histogram(const std::string& name);

  // Human-readable dump, one metric per line, sorted by name.
  std::string Report() const;

  // Prometheus text exposition (version 0.0.4) of every registered metric.
  // Counter `a.b.c` becomes `wsk_a_b_c_total`; histogram `a.b.ms` becomes
  // `wsk_a_b_seconds` with cumulative `_bucket{le=...}` series, `_sum` /
  // `_count`, and a `wsk_..._max` gauge for the observed maximum, all in
  // seconds. A histogram without the `.ms` suffix keeps its name and its
  // recorded unit.
  std::string PrometheusText() const;

 private:
  mutable std::mutex mu_;  // guards the maps, not the metrics themselves
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<LatencyHistogram>> histograms_;
};

}  // namespace wsk

#endif  // WSK_SERVICE_METRICS_H_
