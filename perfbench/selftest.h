// Self-test of the ledger decorators: the same request sequence served
// with and without TimedBackend must give identical answers, cache-hit
// counts, batch counts and shard/segment state. Covers the batched path
// (a frozen ShardCoordinator behind the batch collector) and the write
// path (a live SegmentedEngine with result-cache invalidation).
#ifndef WSK_PERFBENCH_SELFTEST_H_
#define WSK_PERFBENCH_SELFTEST_H_

#include <string>

namespace wsk::perfbench {

struct SelfTestResult {
  bool ok = false;
  std::string detail;  // what was compared, or the first mismatch
};

// Builds small backends under `work_dir` (removed afterwards).
SelfTestResult RunSelfTest(const std::string& work_dir, bool verbose);

}  // namespace wsk::perfbench

#endif  // WSK_PERFBENCH_SELFTEST_H_
