#include "workloads.h"

#include <algorithm>
#include <filesystem>
#include <thread>
#include <utility>

#include "data/generator.h"
#include "data/query.h"
#include "shard/shard_coordinator.h"

namespace wsk::perfbench {
namespace {

// Independent per-item generator seeds, so request i is the same whether
// it is produced first or last, on one thread or four.
uint64_t StreamSeed(uint64_t seed, uint64_t stream, uint64_t item) {
  Rng base(seed ^ (stream * 0xd1b54a32d192ed03ULL));
  Rng mixed(base.Next() + item * 0x9e3779b97f4a7c15ULL);
  return mixed.Next();
}

// The part of a workload's definition that is pinned like its dataset: the
// live workload's popular query set and the hotspot workload's hot regions.
// Only the order, mix, jitter and writes vary with the run seed.
constexpr uint64_t kPinnedSeed = 20161017;

enum Stream : uint64_t {
  kTimedStream = 1,
  kWarmupStream = 2,
  kOpStream = 3,
  kWriteStream = 4,
  kTemplateStream = 5,
  kHotspotStream = 6,
  kWarmupWriteStreams = 16,  // + the set-up number
};

const WorkloadSpec kWorkloads[] = {
    // name, objects, outstanding, batch_max_size, write_share
    {"topk_50k", 50000, 4, 1, 0.0},
    {"whynot_50k", 50000, 4, 1, 0.0},
    {"live_rw_20k", 20000, 4, 1, 0.3},
    {"topk_hotspot", 50000, 12, 8, 0.0},
};

// Table III defaults for the why-not workload.
constexpr uint32_t kWhyNotK0 = 10;
constexpr uint32_t kWhyNotKeywords = 4;
constexpr uint32_t kMissingPosition = 51;  // 5 * k0 + 1
// Same cap as the repository's experiment benches: keeps the enumerated
// candidate universe |doc0 ∪ M.doc| (2^|universe| sets) bounded.
constexpr uint32_t kMaxUniverse = 14;

constexpr uint32_t kLiveTemplates = 256;
constexpr double kLiveZipfSkew = 1.0;
constexpr uint32_t kLiveDeltaCapacity = 1024;

constexpr uint32_t kHotRegions = 8;
constexpr uint32_t kHotTerms = 32;
constexpr double kHotJitter = 0.003;
constexpr double kHotAlpha = 0.9;

bool IsFrozenSolo(const WorkloadSpec& spec) {
  return spec.name == "topk_50k" || spec.name == "whynot_50k";
}

GeneratorConfig DatasetConfig(const WorkloadSpec& spec) {
  if (spec.name == "topk_hotspot") {
    // Tight clusters on a near-empty background (the sharding bench's
    // shape, docs/SHARDING.md): STR tiles are spatially disjoint, which is
    // what lets the per-shard bound prune.
    GeneratorConfig gen;
    gen.num_objects = spec.objects;
    gen.vocab_size = spec.objects / 5;
    gen.num_clusters = 8;
    gen.cluster_stddev = 0.01;
    gen.uniform_fraction = 0.02;
    gen.seed = 0x5ead5;
    return gen;
  }
  GeneratorConfig gen = EuroLikeConfig(spec.objects / 162033.0);
  gen.num_objects = spec.objects;
  return gen;
}

// 1..max_terms query terms taken from random objects' documents, so every
// query matches something.
KeywordSet DrawTerms(const Dataset& dataset, Rng& rng, uint32_t count) {
  std::vector<TermId> terms;
  while (terms.size() < count) {
    const SpatialObject& pivot = dataset.object(
        static_cast<ObjectId>(rng.NextUint64(dataset.size())));
    for (TermId t : pivot.doc) {
      if (terms.size() >= count) break;
      if (std::find(terms.begin(), terms.end(), t) == terms.end()) {
        terms.push_back(t);
      }
    }
  }
  return KeywordSet(std::move(terms));
}

Request DistinctTopK(const Dataset& dataset, uint64_t item_seed) {
  static constexpr uint32_t kKs[] = {1, 10, 100};
  Rng rng(item_seed);
  Request r;
  r.kind = RequestKind::kTopK;
  r.query.loc = Point{rng.NextDouble(), rng.NextDouble()};
  r.query.k = kKs[rng.NextUint64(3)];
  r.query.alpha = 0.5;
  r.query.doc = DrawTerms(dataset, rng,
                          static_cast<uint32_t>(rng.NextInt(1, 4)));
  return r;
}

// A Table III why-not case: the missing object sits at stream position
// 5*k0+1 of the original query and ranks strictly below k0. Found by brute
// force, so the inputs never depend on the program under test.
Request WhyNotCase(const Dataset& dataset, uint64_t item_seed) {
  Rng rng(item_seed);
  for (;;) {
    Request r;
    r.kind = RequestKind::kWhyNot;
    r.query.loc = Point{rng.NextDouble(), rng.NextDouble()};
    r.query.alpha = 0.5;
    r.query.doc = DrawTerms(dataset, rng, kWhyNotKeywords);
    r.query.k = kMissingPosition;
    const std::vector<ScoredObject> stream = BruteForceTopK(dataset, r.query);
    r.query.k = kWhyNotK0;
    if (stream.size() < kMissingPosition) continue;
    const ObjectId missing = stream[kMissingPosition - 1].id;
    if (BruteForceRank(dataset, r.query, missing) <= kWhyNotK0) continue;
    if (r.query.doc.Union(dataset.object(missing).doc).size() >
        kMaxUniverse) {
      continue;
    }
    r.missing = {missing};
    return r;
  }
}

// Runs make(i) for i in [0, count) on `threads` threads.
template <typename Make>
std::vector<Request> Generate(size_t count, int threads, Make make) {
  std::vector<Request> out(count);
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      for (size_t i = t; i < count; i += threads) out[i] = make(i);
    });
  }
  for (std::thread& th : pool) th.join();
  return out;
}

std::vector<TermId> PopularTerms(const Dataset& dataset, uint32_t count) {
  const std::vector<uint32_t> df = dataset.vocabulary().DocumentFrequencies();
  std::vector<TermId> ids(df.size());
  for (size_t i = 0; i < ids.size(); ++i) ids[i] = static_cast<TermId>(i);
  std::stable_sort(ids.begin(), ids.end(),
                   [&](TermId a, TermId b) { return df[a] > df[b]; });
  ids.resize(std::min<size_t>(count, ids.size()));
  return ids;
}

std::vector<Request> MakeReads(const WorkloadSpec& spec,
                               const Dataset& dataset, uint64_t seed,
                               uint64_t stream, size_t count, int threads) {
  if (spec.name == "topk_50k") {
    return Generate(count, 1, [&](size_t i) {
      return DistinctTopK(dataset, StreamSeed(seed, stream, i));
    });
  }
  if (spec.name == "whynot_50k") {
    // Each case is asked twice in a row: AdvancedBS, then KcRBased (the
    // algorithm is part of the cache key, so neither answer is a hit).
    std::vector<Request> cases =
        Generate((count + 1) / 2, threads, [&](size_t i) {
          return WhyNotCase(dataset, StreamSeed(seed, stream, i));
        });
    std::vector<Request> out;
    for (const Request& c : cases) {
      for (WhyNotAlgorithm a :
           {WhyNotAlgorithm::kAdvanced, WhyNotAlgorithm::kKcrBased}) {
        if (out.size() == count) break;
        out.push_back(c);
        out.back().algorithm = a;
      }
    }
    return out;
  }
  if (spec.name == "live_rw_20k") {
    // A fixed template set with Zipf popularity: repeats let the result
    // cache hit, and the interleaved writes invalidate it.
    Rng template_rng(StreamSeed(kPinnedSeed, kTemplateStream, 0));
    std::vector<SpatialKeywordQuery> templates(kLiveTemplates);
    for (SpatialKeywordQuery& q : templates) {
      const SpatialObject& anchor = dataset.object(
          static_cast<ObjectId>(template_rng.NextUint64(dataset.size())));
      q.loc = anchor.loc;
      q.k = 10;
      q.alpha = 0.5;
      q.doc = DrawTerms(dataset, template_rng,
                        static_cast<uint32_t>(template_rng.NextInt(1, 3)));
    }
    ZipfSampler zipf(kLiveTemplates, kLiveZipfSkew);
    Rng rng(StreamSeed(seed, stream, 0));
    std::vector<Request> out(count);
    for (Request& r : out) r.query = templates[zipf.Sample(rng)];
    return out;
  }
  // topk_hotspot: a few hot regions, shared popular terms, distance-
  // dominant scoring; every location is jittered so cache keys differ while
  // the traversals overlap.
  Rng region_rng(StreamSeed(kPinnedSeed, kHotspotStream, 0));
  std::vector<Point> regions;
  for (uint32_t i = 0; i < kHotRegions; ++i) {
    regions.push_back(
        dataset.object(static_cast<ObjectId>(
                           region_rng.NextUint64(dataset.size())))
            .loc);
  }
  const std::vector<TermId> popular = PopularTerms(dataset, kHotTerms);
  return Generate(count, 1, [&](size_t i) {
    Rng rng(StreamSeed(seed, stream, i));
    Request r;
    const Point& center = regions[rng.NextUint64(regions.size())];
    r.query.loc = Point{std::clamp(center.x + kHotJitter * rng.NextGaussian(),
                                   0.0, 1.0),
                        std::clamp(center.y + kHotJitter * rng.NextGaussian(),
                                   0.0, 1.0)};
    r.query.k = 10;
    r.query.alpha = kHotAlpha;
    std::vector<TermId> terms;
    const uint32_t n = static_cast<uint32_t>(rng.NextInt(1, 3));
    while (terms.size() < n) {
      const TermId t = popular[rng.NextUint64(popular.size())];
      if (std::find(terms.begin(), terms.end(), t) == terms.end()) {
        terms.push_back(t);
      }
    }
    r.query.doc = KeywordSet(std::move(terms));
    return r;
  });
}

std::vector<std::string> TermStrings(const Vocabulary& vocabulary,
                                     const KeywordSet& doc) {
  std::vector<std::string> out;
  out.reserve(doc.size());
  for (TermId t : doc) out.push_back(vocabulary.TermString(t));
  return out;
}

}  // namespace

Deployment::~Deployment() {
  backend.reset();
  std::error_code ignored;
  if (!work_dir.empty()) std::filesystem::remove_all(work_dir, ignored);
}

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : kWorkloads) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

Dataset PinnedDataset(const WorkloadSpec& spec) {
  return GenerateDataset(DatasetConfig(spec));
}

QueryServiceConfig ServiceConfigFor(const WorkloadSpec& spec) {
  // Defaults otherwise (result cache, stage metrics and telemetry on), as
  // users run the service.
  QueryServiceConfig config;
  config.num_workers = kServiceWorkers;
  config.batch_max_size = spec.batch_max_size;
  return config;
}

StatusOr<std::unique_ptr<Deployment>> Deploy(const WorkloadSpec& spec,
                                             const std::string& work_dir) {
  auto d = std::make_unique<Deployment>();
  std::error_code ec;
  std::filesystem::remove_all(work_dir, ec);
  std::filesystem::create_directories(work_dir, ec);
  if (ec) return Status::Internal("cannot create " + work_dir);
  d->work_dir = work_dir;
  d->dataset = std::make_unique<Dataset>(PinnedDataset(spec));

  if (IsFrozenSolo(spec)) {
    WhyNotEngine::Config config;  // v1, pread, 4 MiB buffers, 8 MiB cache
    config.work_dir = work_dir;
    auto engine = WhyNotEngine::Build(d->dataset.get(), config);
    if (!engine.ok()) return engine.status();
    d->engine = engine.value().get();
    d->backend = std::move(engine).value();
  } else if (spec.name == "live_rw_20k") {
    SegmentedEngine::Config config;  // v2 + mmap frozen segments
    config.work_dir = work_dir;
    config.delta_capacity = kLiveDeltaCapacity;
    auto engine = SegmentedEngine::Build(*d->dataset, config);
    if (!engine.ok()) return engine.status();
    d->live = engine.value().get();
    d->backend = std::move(engine).value();
  } else {
    ShardCoordinator::Config config;  // frozen WhyNotEngine per tile
    config.num_shards = 4;
    config.work_dir = work_dir;
    auto coordinator = ShardCoordinator::Build(*d->dataset, config);
    if (!coordinator.ok()) return coordinator.status();
    d->backend = std::move(coordinator).value();
  }
  return d;
}

RequestStream::RequestStream(const WorkloadSpec& spec, const Dataset& dataset,
                             uint64_t seed, size_t reads, size_t warmup_reads,
                             int threads)
    : spec_(spec), op_rng_(StreamSeed(seed, kOpStream, 0)) {
  warmup_ = MakeReads(spec, dataset, seed, kWarmupStream, warmup_reads,
                      threads);
  reads_ = MakeReads(spec, dataset, seed, kTimedStream, reads, threads);
}

bool RequestStream::Next(Request* out) {
  if (spec_.write_share > 0.0 && op_rng_.NextBool(spec_.write_share)) {
    out->kind = RequestKind::kWrite;
    return true;
  }
  if (next_read_ == reads_.size()) return false;
  *out = reads_[next_read_++];
  return true;
}

WriteStream::WriteStream(const Dataset& dataset, const Mirror& mirror,
                         uint64_t seed)
    : dataset_(dataset), rng_(seed) {
  for (const auto& entry : mirror) live_ids_.push_back(entry.first);
}

uint64_t WriteSeed(uint64_t seed, int setup) {
  const uint64_t stream =
      setup < 0 ? kWriteStream : kWarmupWriteStreams + setup;
  return StreamSeed(seed, stream, 0);
}

size_t WarmupWrites(const WorkloadSpec& spec) {
  return spec.write_share > 0.0 ? kLiveDeltaCapacity + 64 : 0;
}

Status WriteStream::Issue(QueryService& service, Mirror* mirror) {
  const double roll = rng_.NextDouble();
  const SpatialObject& pivot = dataset_.object(
      static_cast<ObjectId>(rng_.NextUint64(dataset_.size())));
  const Point loc{
      std::clamp(pivot.loc.x + 0.01 * rng_.NextGaussian(), 0.0, 1.0),
      std::clamp(pivot.loc.y + 0.01 * rng_.NextGaussian(), 0.0, 1.0)};
  std::vector<std::string> keywords =
      TermStrings(dataset_.vocabulary(), pivot.doc);
  if (roll < 0.30 || live_ids_.empty()) {
    auto r = service.Insert(loc, keywords);
    if (!r.ok()) return r.status();
    live_ids_.push_back(r.value().id);
    (*mirror)[r.value().id] = MirrorRecord{loc, std::move(keywords)};
    return Status::Ok();
  }
  const size_t slot = rng_.NextUint64(live_ids_.size());
  const ObjectId id = live_ids_[slot];
  if (roll < 0.75) {
    auto r = service.Update(id, loc, keywords);
    if (!r.ok()) return r.status();
    (*mirror)[id] = MirrorRecord{loc, std::move(keywords)};
    return Status::Ok();
  }
  auto r = service.Delete(id);
  if (!r.ok()) return r.status();
  live_ids_[slot] = live_ids_.back();
  live_ids_.pop_back();
  mirror->erase(id);
  return Status::Ok();
}

Mirror MirrorOf(const Dataset& dataset) {
  Mirror mirror;
  for (const SpatialObject& o : dataset.objects()) {
    mirror[o.id] =
        MirrorRecord{o.loc, TermStrings(dataset.vocabulary(), o.doc)};
  }
  return mirror;
}

Dataset RebuildReference(const SegmentedEngine& engine, const Mirror& mirror) {
  Dataset reference;
  reference.vocabulary() = engine.vocabulary().CloneDictionary();
  reference.OverrideDiagonal(engine.diagonal());
  for (const auto& [id, record] : mirror) {
    reference.AddWithId(id, record.loc,
                        reference.vocabulary().InternAll(record.keywords));
  }
  return reference;
}

}  // namespace wsk::perfbench
