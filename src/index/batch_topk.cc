#include "index/batch_topk.h"

#include <unordered_map>

namespace wsk {

namespace {

// Per-query traversal state: exactly a solo IndexTopK walk — the same
// frontier with the same k-floor — plus its result accumulation, advanced
// in lockstep with the batch.
struct QueryState {
  QueryState(const BatchTopKRequest& request, PageId root)
      : query(request.query), cancel(request.cancel), frontier(root) {
    frontier.KeepBest(query->k);
  }

  const SpatialKeywordQuery* query;
  const CancelToken* cancel;
  SearchFrontier frontier;
  std::vector<ScoredObject> topk;
  Status status;
  bool done = false;
};

// Pops ready objects until the query finishes or needs a node expansion.
// Mirrors IndexTopK's loop: stop pulling once k results have emitted, and
// an exhausted frontier ends the query with fewer than k.
void DrainObjects(QueryState* q) {
  while (!q->done) {
    if (q->topk.size() >= q->query->k || q->frontier.empty()) {
      q->done = true;
      return;
    }
    const SearchEntry& top = q->frontier.top();
    if (!top.is_object) return;  // frontier blocked on a node visit
    q->topk.push_back(ScoredObject{top.object, top.bound});
    q->frontier.Pop();
  }
}

}  // namespace

std::vector<BatchTopKResult> BatchedIndexTopK(
    const TopKSource& source, const std::vector<BatchTopKRequest>& requests,
    bool use_cache, TraceRecorder* trace) {
  TraceSpan span(trace, TraceStage::kBatchTopK);
  const PageId root = source.SearchRoot();
  std::vector<QueryState> states;
  states.reserve(requests.size());
  for (const BatchTopKRequest& request : requests) {
    states.emplace_back(request, root);
  }

  // Scheduling scratch, reused across rounds. Groups preserve first-seen
  // order so the expansion sequence is deterministic.
  std::unordered_map<PageId, size_t> group_of;
  std::vector<PageId> group_nodes;
  std::vector<std::vector<size_t>> group_members;
  std::vector<const SpatialKeywordQuery*> expand_queries;
  std::vector<std::vector<SearchEntry>> expand_scratch;
  std::vector<std::vector<SearchEntry>*> expand_outs;
  uint64_t batch_nodes_expanded = 0;
  uint64_t batch_nodes_shared = 0;

  for (;;) {
    group_of.clear();
    group_nodes.clear();
    group_members.clear();
    bool any_active = false;
    for (size_t i = 0; i < states.size(); ++i) {
      QueryState& q = states[i];
      DrainObjects(&q);
      if (q.done) continue;
      any_active = true;
      const PageId node = q.frontier.top().node;
      auto [it, inserted] = group_of.emplace(node, group_nodes.size());
      if (inserted) {
        group_nodes.push_back(node);
        group_members.emplace_back();
      }
      group_members[it->second].push_back(i);
    }
    if (!any_active) break;

    for (size_t g = 0; g < group_nodes.size(); ++g) {
      expand_queries.clear();
      expand_outs.clear();
      std::vector<size_t> live;
      for (size_t i : group_members[g]) {
        QueryState& q = states[i];
        // Same order as the solo iterator: the node entry is popped, then
        // the cancel token gates the expansion — the traversal's I/O unit.
        q.frontier.Pop();
        if (q.cancel != nullptr) {
          const Status check = q.cancel->Check();
          if (!check.ok()) {
            q.status = check;
            q.done = true;
            continue;
          }
        }
        live.push_back(i);
      }
      if (live.empty()) continue;
      if (expand_scratch.size() < live.size()) {
        expand_scratch.resize(live.size());
      }
      for (size_t j = 0; j < live.size(); ++j) {
        expand_scratch[j].clear();
        expand_queries.push_back(states[live[j]].query);
        expand_outs.push_back(&expand_scratch[j]);
      }
      const Status expanded = source.ExpandNodeBatch(
          group_nodes[g], expand_queries.data(), expand_outs.data(),
          live.size(), use_cache);
      if (!expanded.ok()) {
        // The node itself failed to materialize; every query that needed
        // it fails the same way a solo walk would.
        for (size_t i : live) {
          states[i].status = expanded;
          states[i].done = true;
        }
        continue;
      }
      ++batch_nodes_expanded;
      batch_nodes_shared += live.size() - 1;
      for (size_t j = 0; j < live.size(); ++j) {
        states[live[j]].frontier.PushChildren(expand_scratch[j]);
      }
    }
  }

  std::vector<BatchTopKResult> results(states.size());
  for (size_t i = 0; i < states.size(); ++i) {
    results[i].status = states[i].status;
    if (states[i].status.ok()) results[i].topk = std::move(states[i].topk);
    states[i].frontier.ReportCounters(trace);
  }
  if (trace != nullptr) {
    trace->Add(TraceCounter::kBatchQueries, states.size());
    trace->Add(TraceCounter::kBatchNodesExpanded, batch_nodes_expanded);
    trace->Add(TraceCounter::kBatchNodesShared, batch_nodes_shared);
  }
  return results;
}

}  // namespace wsk
