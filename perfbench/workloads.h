// Workload recipes of the serving benchmark: what each workload deploys
// (dataset, backend, service configuration) and which requests it sends.
// The recipes and the reason each workload exists are recorded in
// BENCHMARK.json; this file is the executable form.
//
// Every input derives from the run seed except the datasets, which are
// pinned (one fixed generator seed per workload) so that runs with
// different seeds compare request streams over the same data.
#ifndef WSK_PERFBENCH_WORKLOADS_H_
#define WSK_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/backend.h"
#include "core/engine.h"
#include "data/dataset.h"
#include "segment/segmented_engine.h"
#include "service/query_service.h"

namespace wsk::perfbench {

enum class RequestKind { kTopK, kWhyNot, kWrite };

struct Request {
  RequestKind kind = RequestKind::kTopK;
  SpatialKeywordQuery query;                                // top-k, why-not
  WhyNotAlgorithm algorithm = WhyNotAlgorithm::kAdvanced;   // why-not
  std::vector<ObjectId> missing;                            // why-not
};

// One live object as the benchmark believes it to be.
struct MirrorRecord {
  Point loc;
  std::vector<std::string> keywords;
};
using Mirror = std::map<ObjectId, MirrorRecord>;

// What one set-up produces. Members are declared in dependency order so
// destruction tears the backend down before the dataset it borrows.
struct Deployment {
  std::string work_dir;
  std::unique_ptr<Dataset> dataset;  // frozen: the object table; live: seed
  std::unique_ptr<QueryBackend> backend;
  const WhyNotEngine* engine = nullptr;       // set for a solo frozen engine
  const SegmentedEngine* live = nullptr;      // set for the live engine
  ~Deployment();  // removes work_dir
};

// The thread budget on a 4-core host: one generator thread plus the
// service's workers.
inline constexpr int kServiceWorkers = 3;

struct WorkloadSpec {
  std::string name;
  uint32_t objects = 0;
  int outstanding = 4;  // requests the generator keeps in flight
  size_t batch_max_size = 1;
  double write_share = 0.0;  // share of requests that are writes
};

// The four workloads; nullptr for an unknown name.
const WorkloadSpec* FindWorkload(const std::string& name);

// The service configuration the workload runs under (identical with and
// without the ledger decorators).
QueryServiceConfig ServiceConfigFor(const WorkloadSpec& spec);

// The workload's pinned dataset. The benchmark keeps its own copy to derive
// requests from and to check answers against; Deploy generates the
// program's copy as part of set-up.
Dataset PinnedDataset(const WorkloadSpec& spec);

// Generates the pinned dataset and builds the workload's backend into
// `work_dir` (created fresh).
StatusOr<std::unique_ptr<Deployment>> Deploy(const WorkloadSpec& spec,
                                             const std::string& work_dir);

// The seeded request stream. Read requests are generated up front (why-not
// cases need a brute-force rank search each, run on `threads` threads);
// a write is only marked here and resolved by a WriteStream when issued.
class RequestStream {
 public:
  // `dataset` is the benchmark's copy of the pinned dataset and must
  // outlive the stream. `reads` bounds the read requests the
  // stream can produce; `warmup_reads` more are produced for warm-up.
  RequestStream(const WorkloadSpec& spec, const Dataset& dataset,
                uint64_t seed, size_t reads, size_t warmup_reads,
                int threads);

  const std::vector<Request>& warmup() const { return warmup_; }
  // Next request in the timed stream (kind kWrite for a write); false once
  // the reads are used up.
  bool Next(Request* out);
  size_t reads_issued() const { return next_read_; }
  const std::vector<Request>& reads() const { return reads_; }

 private:
  const WorkloadSpec& spec_;
  Rng op_rng_;
  std::vector<Request> warmup_;
  std::vector<Request> reads_;
  size_t next_read_ = 0;
};

// The live workload's writes: 30% inserts, 45% updates, 25% deletes (the
// live set grows slowly), each resolved when issued against the mirror of
// live objects and applied to it on success.
class WriteStream {
 public:
  // `dataset` (the benchmark's copy of the seed data, source of locations
  // and keywords) must outlive the stream; `mirror` is the current state.
  WriteStream(const Dataset& dataset, const Mirror& mirror, uint64_t seed);

  Status Issue(QueryService& service, Mirror* mirror);

 private:
  const Dataset& dataset_;
  Rng rng_;
  std::vector<ObjectId> live_ids_;  // write targets, kept in step with mirror
};

// Seed of the writes set-up number `setup` issues during warm-up, or of the
// timed window's writes for setup = -1.
uint64_t WriteSeed(uint64_t seed, int setup);

// Writes each set-up issues before its warm-up reads: enough to fill the
// live engine's delta once, so background merging is already in its steady
// state when the timed window opens. 0 on read-only workloads.
size_t WarmupWrites(const WorkloadSpec& spec);

// The live objects of `dataset` as a mirror.
Mirror MirrorOf(const Dataset& dataset);

// A Dataset holding exactly the mirror's objects with the live engine's
// term ids and normalizer, for brute-force checks.
Dataset RebuildReference(const SegmentedEngine& engine, const Mirror& mirror);

}  // namespace wsk::perfbench

#endif  // WSK_PERFBENCH_WORKLOADS_H_
