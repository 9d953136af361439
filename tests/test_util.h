// Shared test fixtures: temp files, small datasets, and a brute-force
// reference implementation of the why-not query.
#ifndef WSK_TESTS_TEST_UTIL_H_
#define WSK_TESTS_TEST_UTIL_H_

#include <unistd.h>

#include <cstdio>
#include <initializer_list>
#include <string>
#include <vector>

#include "core/candidates.h"
#include "core/penalty.h"
#include "core/whynot.h"
#include "data/dataset.h"
#include "data/query.h"

namespace wsk::testing {

// A unique temp path, removed on destruction.
class TempFile {
 public:
  explicit TempFile(const std::string& tag) {
    static int counter = 0;
    path_ = std::string("/tmp/wsk_test_") + std::to_string(getpid()) + "_" +
            tag + "_" + std::to_string(counter++);
  }
  ~TempFile() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

// The dataset of Fig. 1 / Example 3, with the query at the origin. Object
// ids: 0 = o1 {t1}, 1 = o2 {t1,t3}, 2 = m {t1,t2,t3}, 3 = o3 {t1,t2}.
// All objects sit on the x-axis at distance SDist(o, q) from the origin; a
// fifth "dummy" object at x = 1.1 with an unmatched keyword stretches the
// bounding box so that the normalization diagonal is exactly 1, making the
// 1 - SDist values match the paper's table: m 0.5, o1 0.2, o2 0.9, o3 0.4.
// With doc0 = {t1, t2}, k0 = 1, alpha = 0.5, the scores reproduce
// Fig. 1(b): m 0.583, o1 0.35, o2 0.617, o3 0.7 — so R(m, q) = 3.
inline Dataset Figure1Dataset(TermId* t1, TermId* t2, TermId* t3) {
  Dataset d;
  *t1 = d.vocabulary().Intern("t1");
  *t2 = d.vocabulary().Intern("t2");
  *t3 = d.vocabulary().Intern("t3");
  const TermId t4 = d.vocabulary().Intern("t4");
  d.Add(Point{0.8, 0.0}, KeywordSet{*t1});             // o1
  d.Add(Point{0.1, 0.0}, KeywordSet{*t1, *t3});        // o2
  d.Add(Point{0.5, 0.0}, KeywordSet{*t1, *t2, *t3});   // m
  d.Add(Point{0.6, 0.0}, KeywordSet{*t1, *t2});        // o3
  d.Add(Point{1.1, 0.0}, KeywordSet{t4});              // diagonal anchor
  return d;
}

// The initial query of Example 3: loc = origin, doc0 = {t1, t2}, k0 = 1,
// alpha = 0.5.
inline SpatialKeywordQuery Figure1Query(TermId t1, TermId t2) {
  SpatialKeywordQuery q;
  q.loc = Point{0.0, 0.0};
  q.doc = KeywordSet{t1, t2};
  q.k = 1;
  q.alpha = 0.5;
  return q;
}

// Equal scores that straddle leaves: runs of 7, 6 and 5 objects sharing
// one location and one document (ids interleaved across the runs), plus six
// distinct objects, 24 in all. With node capacity 4 every run spans at
// least two leaves, and a leaf holding only copies has a node bound equal
// to its objects' exact score, so the objects-before-nodes tie rule and a
// floor equal to the k-th score are both exercised. Terms are "a".."d".
inline Dataset TiedScoresDataset() {
  Dataset d;
  const TermId a = d.vocabulary().Intern("a");
  const TermId b = d.vocabulary().Intern("b");
  const TermId c = d.vocabulary().Intern("c");
  const TermId t = d.vocabulary().Intern("d");
  const Point spots[] = {{0.5, 0.5}, {0.2, 0.7}, {0.8, 0.1}};
  const KeywordSet docs[] = {KeywordSet{a, b}, KeywordSet{a},
                             KeywordSet{b, c}};
  const int copies[] = {7, 6, 5};
  for (int i = 0; i < 7; ++i) {
    for (int g = 0; g < 3; ++g) {
      if (i < copies[g]) d.Add(spots[g], docs[g]);
    }
  }
  d.Add(Point{0.1, 0.1}, KeywordSet{a, c});
  d.Add(Point{0.9, 0.9}, KeywordSet{b});
  d.Add(Point{0.5, 0.52}, KeywordSet{a, b});
  d.Add(Point{0.3, 0.3}, KeywordSet{t});
  d.Add(Point{0.7, 0.6}, KeywordSet{a, t});
  d.Add(Point{0.45, 0.5}, KeywordSet{b, c});
  return d;
}

// Queries over TiedScoresDataset: two sit on a run's location with its
// document, one sits between runs, and one's term appears in no run.
inline std::vector<SpatialKeywordQuery> TiedScoresQueries(
    const Dataset& d) {
  const Vocabulary& v = d.vocabulary();
  auto doc = [&v](std::initializer_list<const char*> terms) {
    std::vector<TermId> ids;
    for (const char* term : terms) ids.push_back(v.Find(term));
    return KeywordSet(std::move(ids));
  };
  std::vector<SpatialKeywordQuery> queries(4);
  queries[0].loc = Point{0.5, 0.5};
  queries[0].doc = doc({"a", "b"});
  queries[0].alpha = 0.5;
  queries[1].loc = Point{0.2, 0.7};
  queries[1].doc = doc({"a"});
  queries[1].alpha = 0.3;
  queries[2].loc = Point{0.6, 0.4};
  queries[2].doc = doc({"b", "c"});
  queries[2].alpha = 0.7;
  queries[3].loc = Point{0.5, 0.5};
  queries[3].doc = doc({"d"});
  queries[3].alpha = 0.5;
  return queries;
}

// Reference semantics for the keyword-adapted why-not query: enumerate
// every candidate subset and evaluate ranks by brute force.
struct BruteForceWhyNot {
  RefinedQuery refined;
  uint32_t initial_rank = 0;
  bool already_in_result = false;
};

inline uint32_t BruteForceSetRank(const Dataset& dataset,
                                  const SpatialKeywordQuery& query,
                                  const std::vector<ObjectId>& missing) {
  const double diagonal = dataset.diagonal();
  double min_score = std::numeric_limits<double>::infinity();
  for (ObjectId id : missing) {
    min_score =
        std::min(min_score, Score(dataset.object(id), query, diagonal));
  }
  uint32_t better = 0;
  for (const SpatialObject& o : dataset.objects()) {
    if (Score(o, query, diagonal) > min_score) ++better;
  }
  return better + 1;
}

inline BruteForceWhyNot SolveWhyNotBruteForce(
    const Dataset& dataset, const SpatialKeywordQuery& original,
    const std::vector<ObjectId>& missing, double lambda) {
  BruteForceWhyNot out;
  out.initial_rank = BruteForceSetRank(dataset, original, missing);
  if (out.initial_rank <= original.k) {
    out.already_in_result = true;
    out.refined.doc = original.doc;
    out.refined.k = original.k;
    out.refined.penalty = 0.0;
    return out;
  }
  std::vector<const KeywordSet*> docs;
  for (ObjectId id : missing) docs.push_back(&dataset.object(id).doc);
  CandidateEnumerator enumerator(original.doc, docs, dataset.vocabulary());
  const PenaltyModel pm(lambda, original.k, out.initial_rank,
                        enumerator.universe_size());

  out.refined.doc = original.doc;
  out.refined.k = out.initial_rank;
  out.refined.rank = out.initial_rank;
  out.refined.edit_distance = 0;
  out.refined.penalty = lambda;
  for (const Candidate& cand : enumerator.ordered()) {
    SpatialKeywordQuery q = original;
    q.doc = cand.doc;
    const uint32_t rank = BruteForceSetRank(dataset, q, missing);
    const double penalty = pm.Penalty(rank, cand.edit_distance);
    if (penalty < out.refined.penalty) {
      out.refined.doc = cand.doc;
      out.refined.rank = rank;
      out.refined.k = std::max(original.k, rank);
      out.refined.edit_distance = cand.edit_distance;
      out.refined.penalty = penalty;
    }
  }
  return out;
}

}  // namespace wsk::testing

#endif  // WSK_TESTS_TEST_UTIL_H_
