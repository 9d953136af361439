#include "core/whynot_bs.h"

#include <atomic>
#include <mutex>
#include <unordered_set>

#include "common/thread_pool.h"
#include "common/timer.h"
#include "core/candidates.h"
#include "core/penalty.h"
#include "core/whynot_common.h"
#include "observability/trace.h"

namespace wsk {

namespace {

using internal::MissingSet;
using internal::WhyNotScorer;

// Search state shared between candidate-evaluation workers (Section IV-C4:
// p_c and the rank bounds must be synchronized across threads).
struct SharedState {
  std::mutex mu;

  double best_penalty;      // p_c
  RefinedQuery best;
  bool best_is_seed = true;  // the basic refinement wins ties outright
  Candidate best_cand;       // tie-break key, valid once !best_is_seed

  // Candidates at enumeration index >= stop_order are skipped (the
  // enumeration-order early termination). An index rather than a flag so
  // that a worker still holding an earlier candidate finishes it —
  // otherwise the thread schedule could decide which candidate wins.
  uint64_t stop_order = UINT64_MAX;

  // Opt3: objects seen to dominate the missing set under some candidate.
  std::unordered_set<ObjectId> dominator_cache;
  std::vector<ObjectId> dominator_list;  // stable snapshot source

  // Counters (guarded by mu). Every candidate fetched by a worker lands in
  // exactly one of the first four (the unfetched tail is folded into the
  // skipped total afterwards), which keeps
  //   total = evaluated + filtered + skipped + pruned_bounds
  // exact — the invariant the differential tests check per algorithm.
  uint64_t evaluated = 0;      // rank queries run (including capped ones)
  uint64_t filtered = 0;       // Opt3 dominator-cache prunes
  uint64_t skipped = 0;        // Opt2 order-stop skips, fetched candidates
  uint64_t pruned_bounds = 0;  // Eqn 6 rank bound < 1
  uint64_t nodes_expanded = 0;  // nodes materialized by the rank queries
};

// Evaluates candidate `cand` (enumeration position `order`) and updates the
// shared state. Returns non-OK only on I/O failure.
Status EvaluateCandidate(const ObjectStore& store, const TopKSource& source,
                         double diagonal,
                         const SpatialKeywordQuery& original,
                         const MissingSet& missing,
                         const WhyNotScorer& scorer, const PenaltyModel& pm,
                         const WhyNotOptions& options, const Candidate& cand,
                         uint64_t order, SharedState* state) {
  // Cancellation check per candidate; the rank query below re-checks at
  // every node visit through the token passed to IndexRankOfScore.
  if (options.cancel != nullptr) {
    WSK_RETURN_IF_ERROR(options.cancel->Check());
  }
  TraceSpan eval_span(options.trace, TraceStage::kCandidateEval);
  double p_c;
  {
    std::lock_guard<std::mutex> lock(state->mu);
    if (order >= state->stop_order) {
      ++state->skipped;
      return Status::Ok();
    }
    p_c = state->best_penalty;
  }

  const double doc_pen = pm.DocPenalty(cand.edit_distance);
  if (options.opt_enumeration_order && doc_pen >= p_c) {
    // Candidates are ordered canonically, so neither this candidate nor any
    // later one can beat p_c on the keyword penalty alone: stop the
    // enumeration here. Exception: at doc_pen == p_c this candidate can
    // still tie, and it wins the tie when it precedes the incumbent in
    // canonical order — then it must be evaluated, not stopped on. (Every
    // later candidate is canonically after this one, so the stop itself
    // never needs to move past `order`.)
    std::lock_guard<std::mutex> lock(state->mu);
    // best_penalty only decreases, so doc_pen >= best_penalty still holds.
    const bool wins_tie = doc_pen == state->best_penalty &&
                          !state->best_is_seed &&
                          CanonicalOrderLess(cand, state->best_cand);
    if (!wins_tie) {
      state->stop_order = std::min(state->stop_order, order);
      ++state->skipped;  // the triggering candidate is skipped, not run
      return Status::Ok();
    }
  }

  // Eqn 6 rank bound: shared by Opt1 (query early stop) and Opt3 (cache
  // filtering); the two optimizations consume it independently.
  const int64_t rank_bound = pm.RankUpperBound(p_c, cand.edit_distance);

  // Opt1: abort hopeless candidates outright and cap query processing.
  int64_t rank_limit = 0;  // 0 = run the query to completion (plain BS)
  if (options.opt_early_stop) {
    if (rank_bound < 1) {  // cannot win at any rank
      std::lock_guard<std::mutex> lock(state->mu);
      ++state->pruned_bounds;
      return Status::Ok();
    }
    rank_limit = rank_bound;
  }

  SpatialKeywordQuery refined = original;
  refined.doc = cand.doc;
  // Kernel path: the candidate becomes a mask over doc0 ∪ M.doc; the
  // missing objects' footprints and distances were computed once up front.
  const bool kernel = scorer.kernel_enabled();
  const CandidateMask cand_mask =
      kernel ? scorer.universe().MaskOf(cand.doc) : 0;
  const double min_score = kernel ? scorer.MinScore(cand_mask)
                                  : missing.MinScore(refined, diagonal);

  // Opt3: prune the candidate before running its query — immediately when
  // no rank can beat p_c (the Eqn 6 bound again, so it counts as a bound
  // prune), otherwise by counting cached dominators that still dominate
  // under the new keywords against the rank bound.
  if (options.opt_keyword_filtering && rank_bound < 1) {
    std::lock_guard<std::mutex> lock(state->mu);
    ++state->pruned_bounds;
    return Status::Ok();
  }
  if (options.opt_keyword_filtering) {
    TraceSpan probe_span(options.trace, TraceStage::kDominatorProbe);
    std::vector<ObjectId> snapshot;
    {
      std::lock_guard<std::mutex> lock(state->mu);
      snapshot = state->dominator_list;
    }
    int64_t still_dominating = 0;
    uint64_t probes = 0;
    for (ObjectId id : snapshot) {
      const double score = kernel
                               ? scorer.ObjectScore(id, cand_mask)
                               : Score(*store.FindObject(id), refined,
                                       diagonal);
      ++probes;
      if (score > min_score) ++still_dominating;
      if (still_dominating >= rank_bound) break;
    }
    if (options.trace != nullptr) {
      options.trace->Add(TraceCounter::kDominatorCacheProbes, probes);
      if (kernel) {
        options.trace->Add(TraceCounter::kKernelInvocations, probes);
      }
    }
    if (still_dominating >= rank_bound) {
      std::lock_guard<std::mutex> lock(state->mu);
      ++state->filtered;
      return Status::Ok();
    }
  }
  if (options.trace != nullptr && kernel) {
    // MaskOf + MinScore above dispatched one kernel scoring pass.
    options.trace->Add(TraceCounter::kKernelInvocations);
  }

  bool exceeded = false;
  std::vector<ObjectId> dominators;
  uint64_t rank_nodes = 0;
  StatusOr<uint32_t> rank = IndexRankOfScore(
      source, refined, min_score, rank_limit, &exceeded, options.cancel,
      options.use_node_cache, options.trace,
      options.opt_keyword_filtering ? &dominators : nullptr, &rank_nodes);
  if (!rank.ok()) return rank.status();

  std::lock_guard<std::mutex> lock(state->mu);
  ++state->evaluated;
  state->nodes_expanded += rank_nodes;
  if (options.opt_keyword_filtering) {
    for (ObjectId id : dominators) {
      if (state->dominator_cache.insert(id).second) {
        state->dominator_list.push_back(id);
      }
    }
  }
  if (exceeded) return Status::Ok();

  const double penalty = pm.Penalty(rank.value(), cand.edit_distance);
  if (penalty < state->best_penalty ||
      (penalty == state->best_penalty && !state->best_is_seed &&
       CanonicalOrderLess(cand, state->best_cand))) {
    state->best_penalty = penalty;
    state->best_is_seed = false;
    state->best_cand = cand;
    state->best.doc = cand.doc;
    state->best.rank = rank.value();
    state->best.k = std::max(original.k, rank.value());
    state->best.edit_distance = cand.edit_distance;
    state->best.penalty = penalty;
  }
  return Status::Ok();
}

}  // namespace

StatusOr<WhyNotResult> AnswerWhyNotBasic(const ObjectStore& store,
                                         const TopKSource& source,
                                         double diagonal,
                                         const SpatialKeywordQuery& original,
                                         const std::vector<ObjectId>& missing,
                                         const WhyNotOptions& options) {
  Timer timer;
  WSK_RETURN_IF_ERROR(internal::ValidateWhyNotInput(original, missing, options,
                                                    store.num_objects()));
  StatusOr<MissingSet> built = MissingSet::Build(store, missing);
  if (!built.ok()) return built.status();
  const MissingSet missing_set = std::move(built).value();

  WhyNotResult result;

  // Step 1: R(M, q) under the original query.
  const double initial_min_score = missing_set.MinScore(original, diagonal);
  bool exceeded = false;
  StatusOr<uint32_t> initial_rank = Status::Internal("unreachable");
  {
    TraceSpan span(options.trace, TraceStage::kInitialRank);
    initial_rank = IndexRankOfScore(
        source, original, initial_min_score, /*give_up_after_rank=*/0,
        &exceeded, options.cancel, options.use_node_cache, options.trace,
        /*dominators=*/nullptr, &result.stats.nodes_expanded);
  }
  if (!initial_rank.ok()) return initial_rank.status();
  result.stats.initial_rank = initial_rank.value();

  if (initial_rank.value() <= original.k) {
    result.already_in_result = true;
    result.refined.doc = original.doc;
    result.refined.k = original.k;
    result.refined.rank = initial_rank.value();
    result.stats.elapsed_ms = timer.ElapsedMillis();
    return result;
  }

  // Step 2: enumerate candidates and seed the best refined query with the
  // "basic" refinement (keep doc0, enlarge k to R), whose penalty is lambda.
  const uint64_t enum_start_us =
      options.trace != nullptr ? options.trace->NowUs() : 0;
  CandidateEnumerator enumerator(original.doc, missing_set.docs,
                                 store.vocabulary());
  const PenaltyModel pm(options.lambda, original.k, initial_rank.value(),
                        enumerator.universe_size());
  const WhyNotScorer scorer(store, missing_set, original, diagonal,
                            enumerator.universe(), options.use_score_kernel);

  SharedState state;
  state.best_penalty = options.lambda;
  state.best.doc = original.doc;
  state.best.k = initial_rank.value();
  state.best.rank = initial_rank.value();
  state.best.edit_distance = 0;
  state.best.penalty = options.lambda;

  std::vector<Candidate> candidates =
      options.sample_size > 0
          ? enumerator.SampleByBenefit(options.sample_size)
          : (options.opt_enumeration_order ? enumerator.ordered()
                                           : enumerator.UnorderedCopy());
  result.stats.candidates_total = candidates.size();
  if (options.trace != nullptr) {
    options.trace->RecordSpan(TraceStage::kEnumeration, enum_start_us,
                              options.trace->NowUs());
  }

  Status worker_status;  // first error, guarded by status_mu
  std::mutex status_mu;
  std::atomic<size_t> next_index{0};

  auto worker = [&]() {
    for (;;) {
      const size_t i = next_index.fetch_add(1);
      if (i >= candidates.size()) return;
      {
        std::lock_guard<std::mutex> lock(state.mu);
        if (i >= state.stop_order) {
          ++state.skipped;  // this index was fetched; the rest are tail
          return;
        }
      }
      Status s = EvaluateCandidate(store, source, diagonal, original,
                                   missing_set, scorer, pm, options,
                                   candidates[i], i, &state);
      if (!s.ok()) {
        std::lock_guard<std::mutex> lock(status_mu);
        if (worker_status.ok()) worker_status = s;
        return;
      }
    }
  };

  if (options.num_threads > 0) {
    ThreadPool pool(options.num_threads);
    for (int t = 0; t < options.num_threads; ++t) pool.Submit(worker);
    pool.Wait();
  } else {
    worker();
  }
  WSK_RETURN_IF_ERROR(worker_status);

  result.refined = state.best;
  result.stats.candidates_evaluated = state.evaluated;
  result.stats.candidates_filtered = state.filtered;
  result.stats.candidates_pruned_bounds = state.pruned_bounds;
  // Fetched candidates were counted where they were dispatched; the
  // unfetched tail behind the order stop is skipped wholesale.
  result.stats.candidates_skipped_order =
      state.skipped + candidates.size() -
      std::min<uint64_t>(next_index.load(), candidates.size());
  result.stats.nodes_expanded += state.nodes_expanded;
  result.stats.elapsed_ms = timer.ElapsedMillis();
  if (options.trace != nullptr) {
    TraceRecorder& t = *options.trace;
    t.Add(TraceCounter::kCandidatesEnumerated, result.stats.candidates_total);
    t.Add(TraceCounter::kCandidatesKept, result.stats.candidates_evaluated);
    t.Add(TraceCounter::kCandidatesPrunedEarlyStop,
          result.stats.candidates_pruned_bounds +
              result.stats.candidates_skipped_order);
    t.Add(TraceCounter::kCandidatesPrunedDominator,
          result.stats.candidates_filtered);
  }
  return result;
}

}  // namespace wsk
