#include "service/metrics.h"

#include <cmath>
#include <cstdio>

namespace wsk {

namespace {

// Prometheus metric names admit [a-zA-Z0-9_:]; our dotted registry names
// map dots (and anything else) to underscores, prefixed with wsk_.
std::string PrometheusName(const std::string& name) {
  std::string out = "wsk_";
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out.push_back(ok ? c : '_');
  }
  return out;
}

}  // namespace

size_t LatencyHistogram::BucketFor(double ms) { return LatencyBucketIndex(ms); }

double LatencyHistogram::BucketBoundMs(size_t i) {
  return LatencyBucketBoundMs(i);
}

void LatencyHistogram::Record(double ms) {
  buckets_[BucketFor(ms)].fetch_add(1, std::memory_order_relaxed);
  const double us = ms > 0.0 ? ms * 1000.0 : 0.0;
  sum_us_.fetch_add(static_cast<uint64_t>(us), std::memory_order_relaxed);
  // Keep the true maximum (not the bucket bound). Lost CAS races only
  // happen when another writer installed a value at least as large.
  double seen = max_ms_.load(std::memory_order_relaxed);
  const double sample = ms > 0.0 ? ms : 0.0;
  while (sample > seen &&
         !max_ms_.compare_exchange_weak(seen, sample,
                                        std::memory_order_relaxed)) {
  }
}

LatencyHistogram::Snapshot LatencyHistogram::TakeSnapshot() const {
  uint64_t counts[kNumBuckets];
  uint64_t total = 0;
  for (size_t i = 0; i < kNumBuckets; ++i) {
    counts[i] = buckets_[i].load(std::memory_order_relaxed);
    total += counts[i];
  }
  Snapshot snap;
  snap.count = total;
  snap.sum_ms =
      static_cast<double>(sum_us_.load(std::memory_order_relaxed)) / 1000.0;
  for (size_t i = 0; i < kNumBuckets; ++i) snap.bucket_counts[i] = counts[i];
  if (total == 0) return snap;
  snap.mean_ms = snap.sum_ms / static_cast<double>(total);
  snap.p50_ms = LatencyQuantileMs(counts, total, 0.50);
  snap.p95_ms = LatencyQuantileMs(counts, total, 0.95);
  snap.p99_ms = LatencyQuantileMs(counts, total, 0.99);
  snap.max_ms = max_ms_.load(std::memory_order_relaxed);
  return snap;
}

Counter& MetricsRegistry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  std::unique_ptr<Counter>& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return *slot;
}

LatencyHistogram& MetricsRegistry::histogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  std::unique_ptr<LatencyHistogram>& slot = histograms_[name];
  if (slot == nullptr) slot = std::make_unique<LatencyHistogram>();
  return *slot;
}

std::string MetricsRegistry::Report() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  char line[256];
  for (const auto& [name, counter] : counters_) {
    std::snprintf(line, sizeof(line), "counter   %-32s %llu\n", name.c_str(),
                  static_cast<unsigned long long>(counter->value()));
    out += line;
  }
  for (const auto& [name, histogram] : histograms_) {
    const LatencyHistogram::Snapshot s = histogram->TakeSnapshot();
    std::snprintf(line, sizeof(line),
                  "histogram %-32s count %llu mean %.3f ms p50 %.3f ms "
                  "p95 %.3f ms p99 %.3f ms max %.3f ms\n",
                  name.c_str(), static_cast<unsigned long long>(s.count),
                  s.mean_ms, s.p50_ms, s.p95_ms, s.p99_ms, s.max_ms);
    out += line;
  }
  return out;
}

std::string MetricsRegistry::PrometheusText() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  char line[256];
  for (const auto& [name, counter] : counters_) {
    const std::string pname = PrometheusName(name) + "_total";
    out += "# HELP " + pname + " Cumulative count of " + name + " events.\n";
    out += "# TYPE " + pname + " counter\n";
    std::snprintf(line, sizeof(line), "%s %llu\n", pname.c_str(),
                  static_cast<unsigned long long>(counter->value()));
    out += line;
  }
  for (const auto& [name, histogram] : histograms_) {
    const LatencyHistogram::Snapshot s = histogram->TakeSnapshot();
    // Millisecond histograms (`a.b.ms`) are exported in seconds under
    // `wsk_a_b_seconds`; any other histogram (e.g. batch occupancy, in
    // items) keeps its recorded unit and its name.
    const bool ms = name.size() > 3 &&
                    name.compare(name.size() - 3, 3, ".ms") == 0;
    const std::string pname =
        ms ? PrometheusName(name.substr(0, name.size() - 3)) + "_seconds"
           : PrometheusName(name);
    const double per_unit = ms ? 1000.0 : 1.0;  // recorded per exported
    out += "# HELP " + pname + " Distribution of " + name + " samples" +
           (ms ? " (seconds).\n" : ".\n");
    out += "# TYPE " + pname + " histogram\n";
    uint64_t cumulative = 0;
    for (size_t i = 0; i < LatencyHistogram::kNumBuckets; ++i) {
      cumulative += s.bucket_counts[i];
      std::snprintf(line, sizeof(line), "%s_bucket{le=\"%.9g\"} %llu\n",
                    pname.c_str(),
                    LatencyHistogram::BucketBoundMs(i) / per_unit,
                    static_cast<unsigned long long>(cumulative));
      out += line;
    }
    std::snprintf(line, sizeof(line), "%s_bucket{le=\"+Inf\"} %llu\n",
                  pname.c_str(), static_cast<unsigned long long>(s.count));
    out += line;
    std::snprintf(line, sizeof(line), "%s_sum %.9g\n", pname.c_str(),
                  s.sum_ms / per_unit);
    out += line;
    std::snprintf(line, sizeof(line), "%s_count %llu\n", pname.c_str(),
                  static_cast<unsigned long long>(s.count));
    out += line;
    out += "# HELP " + pname + "_max Largest observed " + name + " sample" +
           (ms ? " (seconds).\n" : ".\n");
    out += "# TYPE " + pname + "_max gauge\n";
    std::snprintf(line, sizeof(line), "%s_max %.9g\n", pname.c_str(),
                  s.max_ms / per_unit);
    out += line;
  }
  return out;
}

}  // namespace wsk
