#include "selftest.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <future>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "data/generator.h"
#include "ledger.h"
#include "segment/segmented_engine.h"
#include "service/query_service.h"
#include "shard/shard_coordinator.h"

namespace wsk::perfbench {
namespace {

constexpr size_t kBatch = 8;

// Everything the wrapped and unwrapped runs must agree on.
struct Observed {
  std::vector<std::vector<ScoredObject>> topk;
  std::vector<WhyNotResult> whynot;
  std::vector<bool> cache_hits;
  std::vector<uint64_t> counters;  // service + backend counters, fixed order
  std::vector<std::string> names;

  void Count(const std::string& name, uint64_t value) {
    names.push_back(name);
    counters.push_back(value);
  }
};

std::string Compare(const Observed& a, const Observed& b) {
  if (a.topk.size() != b.topk.size()) return "top-k answer count differs";
  for (size_t i = 0; i < a.topk.size(); ++i) {
    if (a.topk[i].size() != b.topk[i].size()) return "top-k answer differs";
    for (size_t j = 0; j < a.topk[i].size(); ++j) {
      if (a.topk[i][j].id != b.topk[i][j].id ||
          a.topk[i][j].score != b.topk[i][j].score) {
        return "top-k answer differs";
      }
    }
  }
  if (a.whynot.size() != b.whynot.size()) return "why-not count differs";
  for (size_t i = 0; i < a.whynot.size(); ++i) {
    const RefinedQuery& x = a.whynot[i].refined;
    const RefinedQuery& y = b.whynot[i].refined;
    if (!(x.doc == y.doc) || x.k != y.k || x.penalty != y.penalty) {
      return "why-not answer differs";
    }
  }
  if (a.cache_hits != b.cache_hits) return "cache-hit pattern differs";
  for (size_t i = 0; i < a.counters.size(); ++i) {
    if (a.counters[i] != b.counters[i]) {
      return a.names[i] + " differs: " + std::to_string(a.counters[i]) +
             " vs " + std::to_string(b.counters[i]);
    }
  }
  return "";
}

void CountService(QueryService& service, Observed* out) {
  const ResultCache::Stats cache = service.cache().stats();
  out->Count("cache.hits", cache.hits);
  out->Count("cache.misses", cache.misses);
  out->Count("cache.stale", cache.stale);
  out->Count("cache.insertions", cache.insertions);
  for (const char* name :
       {"batch.batches", "batch.queries", "batch.dedup", "responses.ok",
        "mutations.insert", "mutations.update", "mutations.delete"}) {
    out->Count(name, service.metrics().counter(name).value());
  }
  // The traversal counters the service folds from each execution's trace:
  // a solo walk substituted for the batched one changes the batch.* ones.
  for (TraceCounter c :
       {TraceCounter::kBatchQueries, TraceCounter::kBatchNodesExpanded,
        TraceCounter::kBatchNodesShared, TraceCounter::kShardsVisited,
        TraceCounter::kShardsPruned, TraceCounter::kNodesVisited,
        TraceCounter::kDeltaObjectsScanned}) {
    const std::string name = std::string("prune.") + TraceCounterName(c);
    out->Count(name, service.metrics().counter(name).value());
  }
}

std::vector<SpatialKeywordQuery> Queries(const Dataset& dataset, size_t n,
                                         double alpha) {
  Rng rng(7);
  std::vector<SpatialKeywordQuery> out(n);
  for (SpatialKeywordQuery& q : out) {
    const SpatialObject& anchor =
        dataset.object(static_cast<ObjectId>(rng.NextUint64(dataset.size())));
    q.loc = Point{anchor.loc.x + 0.001 * rng.NextGaussian(),
                  anchor.loc.y + 0.001 * rng.NextGaussian()};
    q.doc = anchor.doc;
    q.k = 10;
    q.alpha = alpha;
  }
  return out;
}

// Batched top-k in full groups of kBatch (one batch each), the same
// queries again (all cache hits), then two why-not questions asked twice.
Observed ServeSharded(const QueryBackend& backend, const Dataset& dataset) {
  QueryServiceConfig config;
  config.num_workers = 1;
  config.batch_max_size = kBatch;
  config.batch_window_ms = 200.0;  // a group is always complete first
  QueryService service(&backend, config);
  const std::vector<SpatialKeywordQuery> queries =
      Queries(dataset, 4 * kBatch, 0.9);
  Observed out;
  for (int pass = 0; pass < 2; ++pass) {
    for (size_t g = 0; g < queries.size(); g += kBatch) {
      std::vector<std::future<StatusOr<QueryService::TopKResponse>>> group;
      for (size_t i = g; i < g + kBatch; ++i) {
        group.push_back(service.SubmitTopK(queries[i]));
      }
      for (auto& f : group) {
        auto r = f.get();
        out.topk.push_back(r.ok() ? r.value().results
                                  : std::vector<ScoredObject>{});
        out.cache_hits.push_back(r.ok() && r.value().cache_hit);
      }
    }
  }
  for (int repeat = 0; repeat < 2; ++repeat) {
    for (WhyNotAlgorithm a :
         {WhyNotAlgorithm::kAdvanced, WhyNotAlgorithm::kKcrBased}) {
      SpatialKeywordQuery q = queries[0];
      q.alpha = 0.5;
      const std::vector<ScoredObject> stream = [&] {
        SpatialKeywordQuery wide = q;
        wide.k = 31;
        return BruteForceTopK(dataset, wide);
      }();
      auto r = service.WhyNot(a, q, {stream.back().id}, WhyNotOptions());
      out.whynot.push_back(r.ok() ? r.value().result : WhyNotResult{});
      out.cache_hits.push_back(r.ok() && r.value().cache_hit);
    }
  }
  CountService(service, &out);
  const ShardCountersSnapshot shards = backend.shard_counters();
  out.Count("shard.queries", shards.queries);
  out.Count("shard.visited", shards.shards_visited);
  out.Count("shard.pruned", shards.shards_pruned);
  return out;
}

// Solo top-k, repeats (hits), writes (which invalidate), top-k again.
Observed ServeLive(const QueryBackend& backend, const Dataset& dataset) {
  QueryServiceConfig config;
  config.num_workers = 1;
  QueryService service(&backend, config);
  const std::vector<SpatialKeywordQuery> queries = Queries(dataset, 16, 0.5);
  Observed out;
  auto serve_all = [&] {
    for (const SpatialKeywordQuery& q : queries) {
      auto r = service.TopK(q);
      out.topk.push_back(r.ok() ? r.value().results
                                : std::vector<ScoredObject>{});
      out.cache_hits.push_back(r.ok() && r.value().cache_hit);
    }
  };
  serve_all();
  serve_all();
  Rng rng(11);
  std::vector<ObjectId> ids;
  for (const SpatialObject& o : dataset.objects()) ids.push_back(o.id);
  for (int i = 0; i < 120; ++i) {
    const SpatialObject& pivot =
        dataset.object(static_cast<ObjectId>(rng.NextUint64(dataset.size())));
    std::vector<std::string> keywords;
    for (TermId t : pivot.doc) {
      keywords.push_back(dataset.vocabulary().TermString(t));
    }
    const size_t slot = rng.NextUint64(ids.size());
    bool ok = false;
    switch (i % 3) {
      case 0: {
        auto r = service.Insert(pivot.loc, keywords);
        ok = r.ok();
        if (ok) ids.push_back(r.value().id);
        break;
      }
      case 1:
        ok = service.Update(ids[slot], pivot.loc, keywords).ok();
        break;
      default:
        ok = service.Delete(ids[slot]).ok();
        ids[slot] = ids.back();
        ids.pop_back();
        break;
    }
    out.Count("write.ok", ok);
  }
  serve_all();
  serve_all();
  CountService(service, &out);
  out.Count("dataset_version", backend.dataset_version());
  out.Count("live_objects", backend.segment_counters().live_objects);
  return out;
}

// The decorator must answer every introspection call exactly as the
// backend it wraps.
std::string CheckForwarding(const TimedBackend& timed,
                            const QueryBackend& inner) {
  if (timed.dataset_version() != inner.dataset_version() ||
      timed.version_vector() != inner.version_vector() ||
      timed.topology_fingerprint() != inner.topology_fingerprint() ||
      timed.node_cache() != inner.node_cache() ||
      timed.io_snapshot().setr_logical != inner.io_snapshot().setr_logical ||
      timed.segment_counters().valid != inner.segment_counters().valid ||
      timed.shard_counters().num_shards != inner.shard_counters().num_shards) {
    return "introspection differs through the decorator";
  }
  return "";
}

}  // namespace

SelfTestResult RunSelfTest(const std::string& work_dir, bool verbose) {
  SelfTestResult result;
  std::error_code ec;
  std::filesystem::remove_all(work_dir, ec);
  std::filesystem::create_directories(work_dir, ec);
  GeneratorConfig gen;
  gen.num_objects = 3000;
  gen.vocab_size = 600;
  gen.num_clusters = 8;
  gen.cluster_stddev = 0.01;
  gen.uniform_fraction = 0.02;
  gen.seed = 99;
  const Dataset dataset = GenerateDataset(gen);

  std::string failure;
  {
    // Two identical coordinators: backend counters are cumulative.
    ShardCoordinator::Config config;
    config.num_shards = 4;
    config.work_dir = work_dir + "/shards_plain";
    std::filesystem::create_directories(config.work_dir, ec);
    auto plain_coordinator = ShardCoordinator::Build(dataset, config);
    config.work_dir = work_dir + "/shards_wrapped";
    std::filesystem::create_directories(config.work_dir, ec);
    auto wrapped_coordinator = ShardCoordinator::Build(dataset, config);
    if (!plain_coordinator.ok() || !wrapped_coordinator.ok()) {
      result.detail = "coordinator build failed";
      return result;
    }
    const Observed plain = ServeSharded(*plain_coordinator.value(), dataset);
    TimedBackend timed(wrapped_coordinator.value().get());
    const Observed wrapped = ServeSharded(timed, dataset);
    failure = Compare(plain, wrapped);
    if (failure.empty()) {
      failure = CheckForwarding(timed, *wrapped_coordinator.value());
    }
    if (failure.empty() && timed.batch().calls.load() == 0) {
      failure = "the decorator saw no TopKBatch call";
    }
    if (failure.empty() && plain.cache_hits.end() ==
                               std::find(plain.cache_hits.begin(),
                                         plain.cache_hits.end(), true)) {
      failure = "the sharded sequence produced no cache hit";
    }
    if (verbose && failure.empty()) {
      std::printf("sharded+batched: %zu answers, %llu batches of %zu\n",
                  plain.topk.size() + plain.whynot.size(),
                  static_cast<unsigned long long>(timed.batch().calls.load()),
                  kBatch);
    }
  }
  if (failure.empty()) {
    SegmentedEngine::Config config;
    config.delta_capacity = 32;
    config.auto_merge = false;  // merge timing would move the scan counters
    config.work_dir = work_dir + "/live_plain";
    std::filesystem::create_directories(config.work_dir, ec);
    auto plain_engine = SegmentedEngine::Build(dataset, config);
    config.work_dir = work_dir + "/live_wrapped";
    std::filesystem::create_directories(config.work_dir, ec);
    auto wrapped_engine = SegmentedEngine::Build(dataset, config);
    if (!plain_engine.ok() || !wrapped_engine.ok()) {
      result.detail = "live engine build failed";
      return result;
    }
    const Observed plain = ServeLive(*plain_engine.value(), dataset);
    TimedBackend timed(wrapped_engine.value().get());
    const Observed wrapped = ServeLive(timed, dataset);
    failure = Compare(plain, wrapped);
    if (failure.empty()) {
      failure = CheckForwarding(timed, *wrapped_engine.value());
    }
    if (failure.empty() && timed.writes().calls.load() != 120) {
      failure = "the decorator did not see every write";
    }
    if (verbose && failure.empty()) {
      std::printf("live: %zu answers, %llu writes\n", plain.topk.size(),
                  static_cast<unsigned long long>(timed.writes().calls.load()));
    }
  }
  std::filesystem::remove_all(work_dir, ec);
  result.ok = failure.empty();
  result.detail = result.ok ? "answers, cache hits, batch, shard and segment "
                              "counters identical with and without the "
                              "decorator"
                            : failure;
  return result;
}

}  // namespace wsk::perfbench
