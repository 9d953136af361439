// wsk_perfbench: the serving benchmark.
//
//   wsk_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                 --work-dir <dir>
//   wsk_perfbench --selftest --work-dir <dir>
//
// One generator thread drives the workload's requests through the public
// QueryService API as a closed loop with a fixed number of requests
// outstanding, times each request with its own clock, and checks every
// answer after the timed window. --trace 0 reports the end-to-end metrics;
// --trace 1 reports the per-layer ledger (ledger.h), timed from outside the
// program, plus the tracing overhead. The last line of stdout is one JSON
// object; everything before it is the human-readable report.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <filesystem>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "data/query.h"
#include "index/topk.h"
#include "ledger.h"
#include "selftest.h"
#include "workloads.h"

namespace wsk::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// Set-ups per run; setup_s is their median.
constexpr int kSetups = 3;
// Warm-up requests per set-up (untimed, part of setup_s).
size_t WarmupReads(const std::string& workload) {
  return workload == "whynot_50k" ? 24 : 200;
}
// Single-thread direct replays (traced run).
constexpr size_t kReplayQueries = 300;
constexpr size_t kReplayWhyNotCases = 40;
// Threads for input generation and answer checking, outside timed windows.
constexpr int kCheckThreads = 4;

// Read requests one run can issue, per second of measurement: about three
// times the throughput on a 4-core 2.0 GHz host, so the stream never runs
// dry on a faster one.
size_t ReadsPerSecond(const std::string& workload) {
  if (workload == "whynot_50k") return 150;
  if (workload == "topk_50k") return 4000;
  return 8000;
}

// ---------------------------------------------------------------------------
// The closed loop.

// 64-bit FNV-1a over the fields an answer check compares. Completed
// requests keep only this digest, so the benchmark's own memory does not
// grow with the program's throughput.
class Digest {
 public:
  void Add(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash_ = (hash_ ^ ((v >> (8 * i)) & 0xff)) * 0x100000001b3ULL;
    }
  }
  void Add(double v) {
    uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    Add(bits);
  }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 0xcbf29ce484222325ULL;
};

// Ids and exact scores, in order.
uint64_t DigestOf(const std::vector<ScoredObject>& topk) {
  Digest d;
  d.Add(uint64_t{topk.size()});
  for (const ScoredObject& o : topk) {
    d.Add(uint64_t{o.id});
    d.Add(o.score);
  }
  return d.value();
}

// The refined keyword set, k' and penalty.
uint64_t DigestOf(const WhyNotResult& r) {
  Digest d;
  d.Add(uint64_t{r.already_in_result});
  d.Add(uint64_t{r.refined.doc.size()});
  for (TermId t : r.refined.doc) d.Add(uint64_t{t});
  d.Add(uint64_t{r.refined.k});
  d.Add(r.refined.penalty);
  return d.value();
}

struct Completed {
  RequestKind kind = RequestKind::kTopK;
  const Request* request = nullptr;  // reads only
  double ms = 0.0;
  double end_s = 0.0;  // completion, seconds since the window began
  bool ok = false;
  uint64_t digest = 0;      // DigestOf the answer
  bool well_formed = true;  // top-k: sorted by ScoreGreater, at most k long
};

struct LoopResult {
  std::vector<Completed> done;  // every request, in completion order
  uint64_t attempted = 0;
  uint64_t failed = 0;  // non-OK statuses (wrong answers are added later)
  double elapsed_s = 0.0;
  bool exhausted = false;  // the stream ran dry before the deadline
};

// One outstanding request and the blocked thread that stamps the moment
// its future becomes ready. Waiting threads take no CPU, so completions are
// timed exactly without the generator spinning on a core the program (and
// its merge or batch-collector threads) would otherwise use.
struct Slot {
  const Request* request = nullptr;
  Clock::time_point start;
  Clock::time_point end;
  std::future<StatusOr<QueryService::TopKResponse>> topk;
  std::future<StatusOr<QueryService::WhyNotResponse>> whynot;
  bool armed = false;  // guarded by Waiters::mu_
};

class Waiters {
 public:
  explicit Waiters(int n)
      : slots_(n), arm_cv_(std::make_unique<std::condition_variable[]>(n)) {
    for (int i = 0; i < n; ++i) threads_.emplace_back([this, i] { Loop(i); });
  }
  ~Waiters() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      quit_ = true;
    }
    for (size_t i = 0; i < slots_.size(); ++i) arm_cv_[i].notify_one();
    for (std::thread& t : threads_) t.join();
  }
  Waiters(const Waiters&) = delete;
  Waiters& operator=(const Waiters&) = delete;

  Slot& slot(int i) { return slots_[i]; }

  // Hands slot i, with its request submitted, to its waiter.
  void Arm(int i) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      slots_[i].armed = true;
    }
    arm_cv_[i].notify_one();
  }

  // Blocks until an armed slot's request completed; returns the slot.
  int NextDone() {
    std::unique_lock<std::mutex> lock(mu_);
    done_cv_.wait(lock, [this] { return !done_.empty(); });
    const int i = done_.front();
    done_.pop_front();
    return i;
  }

 private:
  void Loop(int i) {
    Slot& s = slots_[i];
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      arm_cv_[i].wait(lock, [&] { return quit_ || s.armed; });
      if (!s.armed) return;
      lock.unlock();
      if (s.request->kind == RequestKind::kTopK) {
        s.topk.wait();
      } else {
        s.whynot.wait();
      }
      s.end = Clock::now();
      lock.lock();
      s.armed = false;
      done_.push_back(i);
      done_cv_.notify_one();
    }
  }

  std::mutex mu_;
  std::vector<Slot> slots_;
  std::unique_ptr<std::condition_variable[]> arm_cv_;
  std::condition_variable done_cv_;
  std::deque<int> done_;
  bool quit_ = false;
  std::vector<std::thread> threads_;  // joined by the destructor
};

// Keeps `outstanding` reads in flight until `seconds` elapse (forever when
// seconds <= 0, i.e. until `next` runs dry), then drains. Writes execute
// synchronously on this thread as QueryService defines them; a read's
// latency runs from its submission to the instant its waiter saw the
// answer.
LoopResult RunClosedLoop(QueryService& service,
                         const std::function<bool(const Request**)>& next,
                         const std::function<Status()>& write,
                         int outstanding, double seconds) {
  LoopResult out;
  // Reserved so a timed window never pauses the generator to reallocate.
  if (seconds > 0) out.done.reserve(size_t{1} << 17);
  Waiters waiters(outstanding);
  std::vector<int> free_slots;
  for (int i = outstanding - 1; i >= 0; --i) free_slots.push_back(i);
  const Clock::time_point begin = Clock::now();
  const Clock::time_point deadline =
      begin + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds > 0 ? seconds : 1e9));
  bool stopping = false;
  for (;;) {
    while (!stopping && !free_slots.empty()) {
      if (Clock::now() >= deadline) {
        stopping = true;
        break;
      }
      const Request* request = nullptr;
      if (!next(&request)) {
        out.exhausted = seconds > 0;
        stopping = true;
        break;
      }
      ++out.attempted;
      if (request == nullptr) {  // a write
        const Clock::time_point start = Clock::now();
        const Status status = write();
        Completed c;
        c.kind = RequestKind::kWrite;
        const Clock::time_point end = Clock::now();
        c.ms = MsBetween(start, end);
        c.end_s = MsBetween(begin, end) / 1e3;
        c.ok = status.ok();
        if (!c.ok) {
          ++out.failed;
          std::fprintf(stderr, "write failed: %s\n",
                       status.ToString().c_str());
        }
        out.done.push_back(std::move(c));
        continue;
      }
      const int i = free_slots.back();
      free_slots.pop_back();
      Slot& slot = waiters.slot(i);
      slot.request = request;
      slot.start = Clock::now();
      if (request->kind == RequestKind::kTopK) {
        slot.topk = service.SubmitTopK(request->query);
      } else {
        slot.whynot = service.SubmitWhyNot(request->algorithm, request->query,
                                           request->missing, WhyNotOptions());
      }
      waiters.Arm(i);
    }
    if (free_slots.size() == static_cast<size_t>(outstanding)) break;
    const int i = waiters.NextDone();
    Slot& slot = waiters.slot(i);
    free_slots.push_back(i);
    Completed c;
    c.ms = MsBetween(slot.start, slot.end);
    c.end_s = MsBetween(begin, slot.end) / 1e3;
    c.kind = slot.request->kind;
    c.request = slot.request;
    Status status;
    if (c.kind == RequestKind::kTopK) {
      auto r = slot.topk.get();
      status = r.status();
      if (r.ok()) {
        const std::vector<ScoredObject>& topk = r.value().results;
        c.digest = DigestOf(topk);
        c.well_formed =
            topk.size() <= slot.request->query.k &&
            std::is_sorted(topk.begin(), topk.end(), ScoreGreater());
      }
    } else {
      auto r = slot.whynot.get();
      status = r.status();
      if (r.ok()) {
        c.digest = DigestOf(r.value().result);
      }
    }
    c.ok = status.ok();
    if (!c.ok) {
      ++out.failed;
      std::fprintf(stderr, "request failed: %s\n", status.ToString().c_str());
    }
    out.done.push_back(std::move(c));
  }
  out.elapsed_s = MsBetween(begin, Clock::now()) / 1e3;
  return out;
}

// Feeds a fixed request list (warm-up, check samples) through the loop.
LoopResult RunList(QueryService& service, const std::vector<Request>& list,
                   int outstanding) {
  size_t i = 0;
  return RunClosedLoop(
      service,
      [&](const Request** r) {
        if (i == list.size()) return false;
        *r = &list[i++];
        return true;
      },
      [] { return Status::Internal("no writes in a list"); }, outstanding,
      0.0);
}

// The timed stream: reads from `stream`, writes from `writes` applied to
// `mirror`.
LoopResult RunStream(QueryService& service, RequestStream& stream,
                     WriteStream* writes, Mirror* mirror, int outstanding,
                     double seconds) {
  Request next_request;
  return RunClosedLoop(
      service,
      [&](const Request** r) {
        if (!stream.Next(&next_request)) return false;
        *r = next_request.kind == RequestKind::kWrite
                 ? nullptr
                 : &stream.reads()[stream.reads_issued() - 1];
        return true;
      },
      [&] { return writes->Issue(service, mirror); }, outstanding,
      seconds);
}

// ---------------------------------------------------------------------------
// Answer checks.

bool SameTopK(const std::vector<ScoredObject>& got,
              const std::vector<ScoredObject>& want) {
  if (got.size() != want.size()) return false;
  for (size_t i = 0; i < got.size(); ++i) {
    if (got[i].id != want[i].id || got[i].score != want[i].score) return false;
  }
  return true;
}

template <typename Fn>
void ParallelFor(size_t count, int threads, Fn fn) {
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      for (size_t i = t; i < count; i += threads) fn(i);
    });
  }
  for (std::thread& th : pool) th.join();
}

// Every successful top-k answer against BruteForceTopK over `reference`;
// returns the number of wrong answers.
uint64_t CheckTopKAnswers(const Dataset& reference,
                          const std::vector<Completed>& done) {
  std::vector<const Completed*> todo;
  for (const Completed& c : done) {
    if (c.ok && c.kind == RequestKind::kTopK) todo.push_back(&c);
  }
  std::vector<char> wrong(todo.size(), 0);
  ParallelFor(todo.size(), kCheckThreads, [&](size_t i) {
    wrong[i] = todo[i]->digest !=
               DigestOf(BruteForceTopK(reference, todo[i]->request->query));
  });
  return std::count(wrong.begin(), wrong.end(), 1);
}

// Every successful why-not answer re-answered directly on the backend by
// the other algorithm; returns the number of disagreements.
uint64_t CheckWhyNotAnswers(const QueryBackend& backend,
                            const std::vector<Completed>& done) {
  std::vector<const Completed*> todo;
  for (const Completed& c : done) {
    if (c.ok && c.kind == RequestKind::kWhyNot) todo.push_back(&c);
  }
  std::vector<char> wrong(todo.size(), 0);
  ParallelFor(todo.size(), kCheckThreads, [&](size_t i) {
    const Request& r = *todo[i]->request;
    const WhyNotAlgorithm other = r.algorithm == WhyNotAlgorithm::kAdvanced
                                      ? WhyNotAlgorithm::kKcrBased
                                      : WhyNotAlgorithm::kAdvanced;
    auto again = backend.Answer(other, r.query, r.missing, WhyNotOptions());
    wrong[i] = !again.ok() || todo[i]->digest != DigestOf(again.value());
  });
  return std::count(wrong.begin(), wrong.end(), 1);
}

// Reads served while writes were landing have no single reference state;
// they must still be well-formed top-k lists.
uint64_t CheckLiveReadShapes(const std::vector<Completed>& done) {
  uint64_t wrong = 0;
  for (const Completed& c : done) {
    if (c.ok && c.kind == RequestKind::kTopK && !c.well_formed) ++wrong;
  }
  return wrong;
}

// ---------------------------------------------------------------------------
// Measurements.

// Exact nearest-rank order statistics over one kind of request.
class Latencies {
 public:
  template <typename Pred>
  Latencies(const std::vector<Completed>& done, Pred keep) {
    for (const Completed& c : done) {
      if (keep(c)) ms_.push_back(c.ms);
    }
    std::sort(ms_.begin(), ms_.end());
  }
  size_t n() const { return ms_.size(); }
  double At(double q) const { return ms_.empty() ? 0.0 : ms_[Rank(q)]; }
  // Samples strictly after the q order statistic.
  size_t Beyond(double q) const {
    return ms_.empty() ? 0 : ms_.size() - 1 - Rank(q);
  }

 private:
  size_t Rank(double q) const {
    const size_t r = static_cast<size_t>(std::ceil(q * ms_.size()));
    return std::max<size_t>(r, 1) - 1;
  }
  std::vector<double> ms_;
};

Latencies OfKind(const std::vector<Completed>& done, RequestKind kind) {
  return Latencies(done, [kind](const Completed& c) { return c.kind == kind; });
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss / 1024.0;  // ru_maxrss is in KiB on Linux
}

uint64_t DirectoryBytes(const std::string& dir) {
  uint64_t bytes = 0;
  std::error_code ec;
  for (auto it = std::filesystem::recursive_directory_iterator(dir, ec);
       !ec && it != std::filesystem::recursive_directory_iterator();
       it.increment(ec)) {
    std::error_code size_ec;
    if (it->is_regular_file(size_ec)) {
      const uintmax_t size = it->file_size(size_ec);
      if (!size_ec) bytes += size;
    }
  }
  return bytes;
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double Ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

// Metric name -> (value, unit), printed in insertion order.
class MetricSet {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    entries_.push_back({name, value, unit});
  }
  std::string Json() const {
    std::string out = "{";
    for (size_t i = 0; i < entries_.size(); ++i) {
      char buf[256];
      std::snprintf(buf, sizeof(buf),
                    "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i == 0 ? "" : ", ", entries_[i].name.c_str(),
                    std::isfinite(entries_[i].value) ? entries_[i].value : 0.0,
                    entries_[i].unit.c_str());
      out += buf;
    }
    return out + "}";
  }
  void Print() const {
    for (const Entry& e : entries_) {
      std::printf("  %-36s %14.6g %s\n", e.name.c_str(), e.value,
                  e.unit.c_str());
    }
  }

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

// The gated end-to-end numbers are medians over equal slices of the timed
// window, so a few seconds of interference from a neighbour on a shared
// host move them less than they move whole-window figures. There is one
// slice per second, or fewer and longer ones so that each holds at least
// kMinSliceReads reads on average and its p95 has at least ten samples
// beyond it. The gated tail is p95, not
// p99: a run's p99 follows neighbours' load spikes too closely to repeat
// within a usable bound (the whole window's p99 is printed with its count).
constexpr double kMinSliceReads = 200;

struct SliceMedians {
  int slices = 0;
  double slice_s = 0.0;
  double throughput_rps = 0.0;  // completed requests (reads and writes)
  double read_p50_ms = 0.0;
  double read_p95_ms = 0.0;
};

SliceMedians MedianOverSlices(const LoopResult& loop, double window_s) {
  const auto is_read = [](const Completed& c) {
    return c.kind != RequestKind::kWrite;
  };
  const double reads =
      std::count_if(loop.done.begin(), loop.done.end(), is_read);
  SliceMedians m;
  m.slices = static_cast<int>(
      std::min(std::floor(window_s), std::floor(reads / kMinSliceReads)));
  m.slice_s = m.slices > 0 ? window_s / m.slices : 0.0;
  std::vector<double> rps, p50, p95;
  for (int i = 0; i < m.slices; ++i) {
    const double from = i * m.slice_s, to = from + m.slice_s;
    const auto in_slice = [&](const Completed& c) {
      return c.end_s >= from && c.end_s < to;
    };
    rps.push_back(std::count_if(loop.done.begin(), loop.done.end(), in_slice) /
                  m.slice_s);
    const Latencies l(loop.done, [&](const Completed& c) {
      return is_read(c) && in_slice(c);
    });
    p50.push_back(l.At(0.50));
    p95.push_back(l.At(0.95));
  }
  if (m.slices > 0) {
    m.throughput_rps = Median(rps);
    m.read_p50_ms = Median(p50);
    m.read_p95_ms = Median(p95);
  }
  return m;
}

void PrintLatencies(const std::string& kind, const Latencies& l) {
  if (l.n() == 0) return;
  std::printf("  %s_p50_ms = %.4f ms (n=%zu)", kind.c_str(), l.At(0.50), l.n());
  for (double q : {0.95, 0.99}) {
    std::printf("   %s_p%.0f_ms = %.4f ms (n=%zu, %zu beyond%s)", kind.c_str(),
                100 * q, l.At(q), l.n(), l.Beyond(q),
                l.Beyond(q) < 10 ? ": too few" : "");
  }
  std::printf("\n");
}

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool selftest = false;
  std::string work_dir = ".bench_build/work/direct";
};

// One timed set-up: dataset generation, backend build, service start and
// warm-up (the live workload's warm-up writes first, applied to `mirror`,
// then the warm-up reads).
struct Setup {
  std::unique_ptr<Deployment> deployment;
  std::unique_ptr<QueryService> service;  // declared last: destroyed first
  double seconds = 0.0;

  void TearDown() {
    service.reset();
    deployment.reset();
  }
};

StatusOr<Setup> SetUp(const WorkloadSpec& spec, const std::string& work_dir,
                      const std::vector<Request>& warmup, WriteStream* writes,
                      Mirror* mirror) {
  Setup s;
  const Clock::time_point start = Clock::now();
  auto deployment = Deploy(spec, work_dir);
  if (!deployment.ok()) return deployment.status();
  s.deployment = std::move(deployment).value();
  s.service = std::make_unique<QueryService>(s.deployment->backend.get(),
                                             ServiceConfigFor(spec));
  for (size_t i = 0; i < WarmupWrites(spec); ++i) {
    const Status status = writes->Issue(*s.service, mirror);
    if (!status.ok()) return status;
  }
  const LoopResult warm = RunList(*s.service, warmup, spec.outstanding);
  if (warm.failed != 0) return Status::Internal("warm-up request failed");
  s.seconds = MsBetween(start, Clock::now()) / 1e3;
  return s;
}

// Checks the answers of one timed window; returns the number wrong.
uint64_t CheckWindow(const WorkloadSpec& spec, const Setup& setup,
                     const Dataset& reference, const LoopResult& loop) {
  if (spec.write_share > 0.0) return CheckLiveReadShapes(loop.done);
  return CheckTopKAnswers(reference, loop.done) +
         CheckWhyNotAnswers(*setup.deployment->backend, loop.done);
}

// live_rw_20k's end-of-run check: a seeded sample of the read requests,
// served after the last write, against brute force over the mirror.
uint64_t CheckLiveFinalState(const Setup& setup, const RequestStream& stream,
                             const Mirror& mirror, uint64_t seed,
                             uint64_t* attempted) {
  const SegmentedEngine& engine = *setup.deployment->live;
  uint64_t wrong = 0;
  if (engine.segment_counters().live_objects != mirror.size()) {
    std::fprintf(stderr, "live object count %llu != mirror %zu\n",
                 static_cast<unsigned long long>(
                     engine.segment_counters().live_objects),
                 mirror.size());
    ++wrong;
  }
  const Dataset reference = RebuildReference(engine, mirror);
  Rng rng(seed ^ 0x5a5a5a5aULL);
  std::vector<Request> sample;
  for (int i = 0; i < 64; ++i) {
    sample.push_back(stream.reads()[rng.NextUint64(stream.reads().size())]);
  }
  const LoopResult served = RunList(*setup.service, sample, 1);
  *attempted += served.attempted;
  for (size_t i = 0; i < served.done.size(); ++i) {
    const Completed& c = served.done[i];
    if (!c.ok ||
        c.digest != DigestOf(BruteForceTopK(reference, c.request->query))) {
      ++wrong;
    }
  }
  return wrong;
}

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const MetricSet& metrics) {
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": %s}\n",
      correct ? "true" : "false", static_cast<unsigned long long>(attempted),
      static_cast<unsigned long long>(failed), metrics.Json().c_str());
  std::fflush(stdout);
}

// ---------------------------------------------------------------------------
// --trace 0: end-to-end metrics.

int RunEndToEnd(const Options& opt, const WorkloadSpec& spec,
                const Dataset& reference, RequestStream& stream) {
  std::vector<double> setup_seconds;
  Setup setup;
  Mirror mirror;
  for (int i = 0; i < kSetups; ++i) {
    setup.TearDown();  // one deployment at a time
    if (spec.write_share > 0.0) mirror = MirrorOf(reference);
    WriteStream warmup_writes(reference, mirror, WriteSeed(opt.seed, i));
    auto s = SetUp(spec, opt.work_dir, stream.warmup(), &warmup_writes,
                   &mirror);
    if (!s.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n",
                   s.status().ToString().c_str());
      return 1;
    }
    setup = std::move(s).value();
    setup_seconds.push_back(setup.seconds);
  }

  WriteStream write_stream(reference, mirror, WriteSeed(opt.seed, -1));
  const LoopResult loop =
      RunStream(*setup.service, stream, &write_stream, &mirror,
                spec.outstanding, opt.seconds);
  const double rss_mb = PeakRssMb();
  if (const SegmentedEngine* live = setup.deployment->live) {
    // Settle in-flight merges so the footprint below is the final live set's,
    // not a snapshot of whichever merge happened to be running.
    const Status merged = live->ForceMerge();
    if (!merged.ok()) {
      std::fprintf(stderr, "final merge failed: %s\n",
                   merged.ToString().c_str());
      return 1;
    }
  }
  const uint64_t live_objects =
      setup.deployment->live != nullptr
          ? setup.deployment->live->segment_counters().live_objects
          : reference.size();
  const uint64_t index_bytes = DirectoryBytes(setup.deployment->work_dir);

  uint64_t attempted = loop.attempted;
  uint64_t wrong = CheckWindow(spec, setup, reference, loop);
  if (spec.write_share > 0.0) {
    wrong += CheckLiveFinalState(setup, stream, mirror, opt.seed, &attempted);
  }
  const uint64_t failed = loop.failed + wrong;

  const SliceMedians sliced = MedianOverSlices(loop, opt.seconds);

  std::printf("workload %s  seed %llu  window %.3f s  outstanding %d  "
              "workers %d\n",
              spec.name.c_str(), static_cast<unsigned long long>(opt.seed),
              loop.elapsed_s, spec.outstanding, kServiceWorkers);
  std::printf("  medians over %d slices of %.2f s: throughput_rps = %.2f 1/s, "
              "read_p50_ms = %.4f ms, read_tail_ms (p95) = %.4f ms\n",
              sliced.slices, sliced.slice_s, sliced.throughput_rps,
              sliced.read_p50_ms, sliced.read_p95_ms);
  std::printf("  whole window: %zu requests, %.2f 1/s\n", loop.done.size(),
              loop.done.size() / loop.elapsed_s);
  PrintLatencies("topk", OfKind(loop.done, RequestKind::kTopK));
  PrintLatencies("whynot", OfKind(loop.done, RequestKind::kWhyNot));
  for (WhyNotAlgorithm a :
       {WhyNotAlgorithm::kAdvanced, WhyNotAlgorithm::kKcrBased}) {
    PrintLatencies(std::string("whynot[") + WhyNotAlgorithmName(a) + "]",
                   Latencies(loop.done, [a](const Completed& c) {
                     return c.kind == RequestKind::kWhyNot &&
                            c.request->algorithm == a;
                   }));
  }
  PrintLatencies("write", OfKind(loop.done, RequestKind::kWrite));
  std::printf("  error_rate = %.6f (%llu failed of %llu attempted; %llu "
              "wrong answers)\n",
              Ratio(failed, attempted), static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(wrong));
  std::printf("  setup_s = %.4f s (median of %d set-ups:",
              Median(setup_seconds), kSetups);
  for (double s : setup_seconds) std::printf(" %.4f", s);
  std::printf(")\n  peak_rss_mb = %.2f MiB   index_bytes_per_object = %.2f B "
              "(%llu bytes / %llu live objects)\n",
              rss_mb, Ratio(index_bytes, live_objects),
              static_cast<unsigned long long>(index_bytes),
              static_cast<unsigned long long>(live_objects));
  if (const WhyNotEngine* engine = setup.deployment->engine) {
    const auto mib = [](const Pager& p) {
      return p.num_pages() * static_cast<double>(p.page_size()) / (1 << 20);
    };
    std::printf("  working set: SetR %u pages (%.2f MiB), KcR %u pages "
                "(%.2f MiB); node cache %.0f MiB, buffer %.0f MiB per index\n",
                engine->setr_pager().num_pages(), mib(engine->setr_pager()),
                engine->kcr_pager().num_pages(), mib(engine->kcr_pager()),
                engine->config().node_cache_bytes / double{1 << 20},
                engine->config().buffer_bytes / double{1 << 20});
  }
  if (const SegmentedEngine* live = setup.deployment->live) {
    const SegmentCountersSnapshot seg = live->segment_counters();
    std::printf("  segments at the end: %llu merges completed, %llu frozen "
                "segments, %llu delta objects\n",
                static_cast<unsigned long long>(seg.merges),
                static_cast<unsigned long long>(seg.frozen_segments),
                static_cast<unsigned long long>(seg.delta_objects));
  }
  if (loop.exhausted) {
    std::fprintf(stderr, "request stream ran dry before the deadline\n");
  }

  MetricSet metrics;
  metrics.Add("throughput_rps", sliced.throughput_rps, "1/s");
  metrics.Add("read_p50_ms", sliced.read_p50_ms, "ms");
  metrics.Add("read_tail_ms", sliced.read_p95_ms, "ms");
  metrics.Add("setup_s", Median(setup_seconds), "s");
  metrics.Add("peak_rss_mb", rss_mb, "MiB");
  metrics.Add("index_bytes_per_object", Ratio(index_bytes, live_objects), "B");
  const bool correct = failed == 0 && !loop.exhausted && sliced.slices > 0;
  PrintResult(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}

// ---------------------------------------------------------------------------
// --trace 1: the per-layer ledger.

struct BackendCounters {
  BackendIoSnapshot io;
  NodeCache::Stats node_cache;
  SegmentCountersSnapshot segment;
  ShardCountersSnapshot shard;
};

BackendCounters TakeCounters(const QueryBackend& backend) {
  BackendCounters c;
  c.io = backend.io_snapshot();
  if (NodeCache* cache = backend.node_cache()) c.node_cache = cache->GetStats();
  c.segment = backend.segment_counters();
  c.shard = backend.shard_counters();
  return c;
}

double StageMs(QueryService& service, TraceStage stage) {
  return service.metrics()
      .histogram(std::string("stage.") + TraceStageName(stage) + ".ms")
      .TakeSnapshot()
      .sum_ms;
}

uint64_t PruneCount(QueryService& service, TraceCounter counter) {
  return service.metrics()
      .counter(std::string("prune.") + TraceCounterName(counter))
      .value();
}

struct IndexReplay {
  double nodes_per_topk = 0.0;
  double leaf_scored_fraction = 0.0;
  double expand_ms = 0.0;
  double traverse_self_ms = 0.0;
  double coverage = 0.0;  // (expand + traverse self) / replay wall
  uint64_t wrong = 0;
};

// IndexTopK over the engine's SetR-tree, one query at a time, through a
// TimedSource that times each node expansion.
IndexReplay ReplayIndex(const WhyNotEngine& engine, const Dataset& reference,
                        const std::vector<Request>& queries) {
  IndexReplay r;
  TimedSource source(&engine.setr_tree());
  std::vector<std::vector<ScoredObject>> answers(queries.size());
  double call_ms = 0.0;
  const Clock::time_point begin = Clock::now();
  for (size_t i = 0; i < queries.size(); ++i) {
    const Clock::time_point start = Clock::now();
    auto result = IndexTopK(source, queries[i].query, nullptr, true);
    call_ms += MsBetween(start, Clock::now());
    if (result.ok()) answers[i] = std::move(result).value();
    else ++r.wrong;
  }
  const double wall_ms = MsBetween(begin, Clock::now());
  const double n = queries.size();
  r.nodes_per_topk = source.expansions() / n;
  r.leaf_scored_fraction = source.objects_scored() / n / reference.size();
  r.expand_ms = source.expand_ns() / 1e6 / n;
  r.traverse_self_ms = (call_ms - source.expand_ns() / 1e6) / n;
  r.coverage = Ratio(call_ms, wall_ms);
  for (size_t i = 0; i < queries.size(); ++i) {
    if (!SameTopK(answers[i], BruteForceTopK(reference, queries[i].query))) {
      ++r.wrong;
    }
  }
  return r;
}

struct ScanFloor {
  double backend_ms = 0.0;
  double scan_ms = 0.0;
  uint64_t wrong = 0;
};

// Direct single-thread backend top-k against BruteForceTopK on the same
// queries, alternating per query.
ScanFloor ReplayScanFloor(const QueryBackend& backend, const Dataset& reference,
                          const std::vector<Request>& queries) {
  ScanFloor f;
  for (const Request& r : queries) {
    const Clock::time_point a = Clock::now();
    auto indexed = backend.TopK(r.query);
    const Clock::time_point b = Clock::now();
    const std::vector<ScoredObject> scanned =
        BruteForceTopK(reference, r.query);
    const Clock::time_point c = Clock::now();
    f.backend_ms += MsBetween(a, b);
    f.scan_ms += MsBetween(b, c);
    if (!indexed.ok() || !SameTopK(indexed.value(), scanned)) ++f.wrong;
  }
  f.backend_ms /= queries.size();
  f.scan_ms /= queries.size();
  return f;
}

struct CoreReplay {
  double candidates_per_whynot = 0.0;
  double evaluated_share = 0.0;
  double nodes_per_whynot = 0.0;
  uint64_t wrong = 0;
};

// The first why-not cases, both algorithms, one at a time on the backend.
CoreReplay ReplayCore(const QueryBackend& backend,
                      const std::vector<Request>& requests) {
  CoreReplay c;
  uint64_t total = 0, evaluated = 0, nodes = 0, n = 0;
  for (const Request& r : requests) {
    auto a = backend.Answer(r.algorithm, r.query, r.missing, WhyNotOptions());
    if (!a.ok()) {
      ++c.wrong;
      continue;
    }
    total += a.value().stats.candidates_total;
    evaluated += a.value().stats.candidates_evaluated;
    nodes += a.value().stats.nodes_expanded;
    ++n;
  }
  c.candidates_per_whynot = Ratio(total, n);
  c.evaluated_share = Ratio(evaluated, total);
  c.nodes_per_whynot = Ratio(nodes, n);
  return c;
}

int RunTraced(const Options& opt, const WorkloadSpec& spec,
              const Dataset& reference, RequestStream& stream) {
  uint64_t attempted = 0, failed = 0;
  const SelfTestResult selftest =
      RunSelfTest(opt.work_dir + "/selftest", /*verbose=*/false);
  std::printf("selftest: %s (%s)\n", selftest.ok ? "ok" : "FAILED",
              selftest.detail.c_str());
  ++attempted;
  if (!selftest.ok) ++failed;

  Mirror mirror;
  if (spec.write_share > 0.0) mirror = MirrorOf(reference);
  WriteStream warmup_writes(reference, mirror, WriteSeed(opt.seed, 0));
  auto s = SetUp(spec, opt.work_dir + "/run", stream.warmup(), &warmup_writes,
                 &mirror);
  if (!s.ok()) {
    std::fprintf(stderr, "set-up failed: %s\n", s.status().ToString().c_str());
    return 1;
  }
  Setup setup = std::move(s).value();
  const QueryBackend& backend = *setup.deployment->backend;
  WriteStream write_stream(reference, mirror, WriteSeed(opt.seed, -1));

  // Untraced quarter, traced half through a second service over the
  // decorated backend (same configuration, its own registry and cache),
  // untraced quarter: the overhead comparison cancels linear drift.
  LoopResult plain =
      RunStream(*setup.service, stream, &write_stream, &mirror,
                spec.outstanding, opt.seconds / 4);
  TimedBackend timed(&backend);
  QueryService traced_service(&timed, ServiceConfigFor(spec));
  const BackendCounters c0 = TakeCounters(backend);
  const LoopResult traced = RunStream(traced_service, stream, &write_stream,
                                      &mirror, spec.outstanding,
                                      opt.seconds / 2);
  const BackendCounters c1 = TakeCounters(backend);
  LoopResult plain_end =
      RunStream(*setup.service, stream, &write_stream, &mirror,
                spec.outstanding, opt.seconds / 4);
  plain.attempted += plain_end.attempted;
  plain.failed += plain_end.failed;
  plain.elapsed_s += plain_end.elapsed_s;
  plain.exhausted = plain.exhausted || plain_end.exhausted;
  for (Completed& c : plain_end.done) plain.done.push_back(std::move(c));

  attempted += plain.attempted + traced.attempted;
  failed += plain.failed + traced.failed;
  failed += CheckWindow(spec, setup, reference, plain);
  failed += CheckWindow(spec, setup, reference, traced);
  if (spec.write_share > 0.0) {
    failed += CheckLiveFinalState(setup, stream, mirror, opt.seed, &attempted);
  }
  const bool exhausted = plain.exhausted || traced.exhausted;

  // Requests by kind in the traced window.
  uint64_t reads = 0, writes = 0;
  double latency_ms = 0.0;
  for (const Completed& c : traced.done) {
    latency_ms += c.ms;
    if (c.kind == RequestKind::kWrite) ++writes;
    else ++reads;
  }
  const uint64_t requests = reads + writes;
  const double window_us = traced.elapsed_s * 1e6;
  const uint64_t backend_topk = timed.topk().calls.load() + timed.batch_items();

  const ResultCache::Stats cache = traced_service.cache().stats();
  const double query_ms = StageMs(traced_service, TraceStage::kQuery);

  // Single-thread direct replays.
  std::vector<Request> replay_reads(
      stream.reads().begin(),
      stream.reads().begin() +
          std::min(kReplayQueries, stream.reads().size()));
  IndexReplay index;
  ScanFloor scan;
  CoreReplay core;
  const WhyNotEngine* engine = setup.deployment->engine;
  const bool topk_workload =
      spec.name == "topk_50k" || spec.name == "topk_hotspot";
  if (spec.name == "topk_50k") {
    index = ReplayIndex(*engine, reference, replay_reads);
    failed += index.wrong;
    ++attempted;
  }
  if (topk_workload) {
    scan = ReplayScanFloor(backend, reference, replay_reads);
    failed += scan.wrong;
    ++attempted;
  }
  if (spec.name == "whynot_50k") {
    std::vector<Request> cases(
        stream.reads().begin(),
        stream.reads().begin() + std::min(2 * kReplayWhyNotCases,
                                          stream.reads().size()));
    core = ReplayCore(backend, cases);
    failed += core.wrong;
    ++attempted;
  }

  const double plain_rps = plain.done.size() / plain.elapsed_s;
  const double traced_rps = traced.done.size() / traced.elapsed_s;
  MetricSet m;
  // service
  m.Add("service.self_ms",
        Ratio(latency_ms - timed.request_backend_ms(), requests), "ms");
  m.Add("service.cache_hit_rate",
        Ratio(cache.hits, cache.hits + cache.misses), "share");
  m.Add("service.cache_stale", Ratio(cache.stale, reads), "1/req");
  m.Add("service.batch_occupancy",
        Ratio(timed.batch_items(), timed.batch().calls.load()), "items");
  m.Add("service.rejected",
        traced_service.metrics().counter("responses.rejected_overload").value(),
        "count");
  // backend
  m.Add("backend.topk_ms", timed.topk_request_ms(), "ms");
  CallClock whynot_all;
  for (WhyNotAlgorithm a : {WhyNotAlgorithm::kBasic, WhyNotAlgorithm::kAdvanced,
                            WhyNotAlgorithm::kKcrBased}) {
    whynot_all.Add(timed.whynot(a).ns.load(), timed.whynot(a).calls.load());
  }
  m.Add("backend.whynot_ms", whynot_all.mean_ms(), "ms");
  m.Add("backend.write_ms", timed.writes().mean_ms(), "ms");
  // core
  m.Add("core.advanced_ms",
        timed.whynot(WhyNotAlgorithm::kAdvanced).mean_ms(), "ms");
  m.Add("core.kcr_ms", timed.whynot(WhyNotAlgorithm::kKcrBased).mean_ms(),
        "ms");
  m.Add("core.candidates_per_whynot", core.candidates_per_whynot, "count");
  m.Add("core.evaluated_share", core.evaluated_share, "share");
  m.Add("core.nodes_per_whynot", core.nodes_per_whynot, "count");
  m.Add("core.rank_query_share",
        Ratio(StageMs(traced_service, TraceStage::kRankQuery), query_ms),
        "share");
  // shard
  const uint64_t shard_queries = c1.shard.queries - c0.shard.queries;
  const uint64_t visited = c1.shard.shards_visited - c0.shard.shards_visited;
  const uint64_t pruned = c1.shard.shards_pruned - c0.shard.shards_pruned;
  m.Add("shard.pruned_rate", Ratio(pruned, visited + pruned), "share");
  m.Add("shard.visited_per_query", Ratio(visited, shard_queries), "count");
  m.Add("shard.scatter_ms",
        Ratio((c1.shard.scatter_busy_us - c0.shard.scatter_busy_us) / 1e3,
              shard_queries),
        "ms");
  // segment
  m.Add("segment.merges", c1.segment.merges - c0.segment.merges, "count");
  m.Add("segment.merge_busy_share",
        Ratio(c1.segment.merge_busy_us - c0.segment.merge_busy_us, window_us),
        "share");
  m.Add("segment.delta_objects", c1.segment.delta_objects, "count");
  m.Add("segment.frozen_segments", c1.segment.frozen_segments, "count");
  m.Add("segment.delta_scanned_per_query",
        Ratio(PruneCount(traced_service, TraceCounter::kDeltaObjectsScanned),
              backend_topk),
        "count");
  // index (direct replay)
  m.Add("index.nodes_per_topk", index.nodes_per_topk, "count");
  m.Add("index.leaf_scored_fraction", index.leaf_scored_fraction, "share");
  m.Add("index.expand_ms", index.expand_ms, "ms");
  m.Add("index.traverse_self_ms", index.traverse_self_ms, "ms");
  m.Add("index.ledger_coverage", index.coverage, "share");
  // storage
  const uint64_t nc_hits = c1.node_cache.hits - c0.node_cache.hits;
  const uint64_t nc_misses = c1.node_cache.misses - c0.node_cache.misses;
  m.Add("storage.node_cache_hit_rate", Ratio(nc_hits, nc_hits + nc_misses),
        "share");
  m.Add("storage.node_cache_evictions",
        Ratio(c1.node_cache.evictions - c0.node_cache.evictions, reads),
        "1/req");
  m.Add("storage.physical_reads_per_request",
        Ratio((c1.io.setr_physical + c1.io.kcr_physical) -
                  (c0.io.setr_physical + c0.io.kcr_physical),
              reads),
        "1/req");
  m.Add("storage.mapped_reads_per_request",
        Ratio((c1.io.setr_mapped + c1.io.kcr_mapped) -
                  (c0.io.setr_mapped + c0.io.kcr_mapped),
              reads),
        "1/req");
  // text
  m.Add("text.kernel_calls_per_request",
        Ratio(PruneCount(traced_service, TraceCounter::kKernelInvocations),
              reads),
        "1/req");
  m.Add("text.leaf_scoring_share",
        Ratio(StageMs(traced_service, TraceStage::kLeafScoring), query_ms),
        "share");
  // scan floor
  m.Add("scan.topk_ms", scan.scan_ms, "ms");
  m.Add("index.vs_scan", Ratio(scan.backend_ms, scan.scan_ms), "ratio");
  // tracing overhead
  m.Add("trace.overhead", Ratio(plain_rps, traced_rps) - 1.0, "share");

  std::printf("workload %s  seed %llu  traced run: untraced quarters %.3f s "
              "(%.2f 1/s), traced half %.3f s (%.2f 1/s), %llu requests "
              "(%llu top-k executed on the backend)\n",
              spec.name.c_str(), static_cast<unsigned long long>(opt.seed),
              plain.elapsed_s, plain_rps, traced.elapsed_s, traced_rps,
              static_cast<unsigned long long>(requests),
              static_cast<unsigned long long>(backend_topk));
  if (spec.name == "topk_50k") {
    std::printf("  direct IndexTopK replay of %zu queries: expand + traverse "
                "self = %.1f%% of replay wall time\n",
                replay_reads.size(), 100.0 * index.coverage);
  }
  if (topk_workload) {
    std::printf("  scan floor over %zu queries: backend %.4f ms, scan %.4f ms "
                "(single thread)\n",
                replay_reads.size(), scan.backend_ms, scan.scan_ms);
  }
  m.Print();
  const bool coverage_ok = spec.name != "topk_50k" || index.coverage >= 0.95;
  if (!coverage_ok) {
    std::fprintf(stderr, "ledger covers < 95%% of replay wall\n");
  }
  if (exhausted) std::fprintf(stderr, "request stream ran dry\n");
  const bool correct = failed == 0 && !exhausted && coverage_ok;
  PrintResult(correct, attempted, failed, m);
  return correct ? 0 : 1;
}

bool ParseOptions(int argc, char** argv, Options* opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (arg == "--selftest") {
      opt->selftest = true;
      continue;
    }
    if ((v = value()) == nullptr) return false;
    char* end = nullptr;
    if (arg == "--workload") {
      opt->workload = v;
    } else if (arg == "--seed") {
      opt->seed = std::strtoull(v, &end, 10);
      if (*end != '\0') return false;
    } else if (arg == "--seconds") {
      opt->seconds = std::strtod(v, &end);
      if (*end != '\0' || !(opt->seconds > 0)) return false;
    } else if (arg == "--trace") {
      opt->trace = std::string(v) == "1";
      if (!opt->trace && std::string(v) != "0") return false;
    } else if (arg == "--work-dir") {
      opt->work_dir = v;
    } else {
      return false;
    }
  }
  return true;
}

int Main(int argc, char** argv) {
  Options opt;
  if (!ParseOptions(argc, argv, &opt)) {
    std::fprintf(stderr,
                 "usage: wsk_perfbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--work-dir <dir>]\n"
                 "       wsk_perfbench --selftest [--work-dir <dir>]\n");
    return 2;
  }
  if (opt.selftest) {
    const SelfTestResult r = RunSelfTest(opt.work_dir + "/selftest", true);
    std::printf("selftest: %s (%s)\n", r.ok ? "ok" : "FAILED",
                r.detail.c_str());
    return r.ok ? 0 : 1;
  }
  const WorkloadSpec* spec = FindWorkload(opt.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", opt.workload.c_str());
    return 2;
  }
  const Dataset reference = PinnedDataset(*spec);
  const size_t reads = static_cast<size_t>(
      std::ceil(ReadsPerSecond(spec->name) * opt.seconds));
  RequestStream stream(*spec, reference, opt.seed, reads,
                       WarmupReads(spec->name), kCheckThreads);
  return opt.trace ? RunTraced(opt, *spec, reference, stream)
                   : RunEndToEnd(opt, *spec, reference, stream);
}

}  // namespace
}  // namespace wsk::perfbench

int main(int argc, char** argv) { return wsk::perfbench::Main(argc, argv); }
