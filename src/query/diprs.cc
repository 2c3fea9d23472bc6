#include "src/query/diprs.h"

#include <algorithm>

namespace alaya {

namespace {

/// tryAppend (Algorithm 1, lines 10-14) shared state.
struct DiprsState {
  std::vector<ScoredId> c;  ///< Unordered candidate list C (insertion order).
  float best_ip;            ///< Max inner product over C and the window prior.
  float beta;
  size_t l0;
  SearchStats stats;
};

/// FIFO of node ids over a vector. Unlike std::deque it allocates nothing
/// until the first push, so a search whose filter passes every node never
/// pays for its queues.
class IdQueue {
 public:
  bool empty() const { return head_ == ids_.size(); }
  void push(uint32_t id) { ids_.push_back(id); }
  uint32_t pop() { return ids_[head_++]; }

 private:
  std::vector<uint32_t> ids_;
  size_t head_ = 0;
};

inline void TryAppend(uint32_t id, float ip, DiprsState* st) {
  // Line 13: append while below the capacity floor, or when within beta of
  // the best-so-far inner product.
  if (st->c.size() <= st->l0 || ip >= st->best_ip - st->beta) {
    st->c.push_back({id, ip});
    st->stats.appended++;
    if (ip > st->best_ip) st->best_ip = ip;
  }
}

SearchResult Finalize(DiprsState* st, const DiprParams& params,
                      const ScoringView& view, const float* q) {
  SearchResult out;
  out.stats = st->stats;
  const float threshold = st->best_ip - params.beta;
  for (const ScoredId& c : st->c) {
    if (c.score >= threshold) out.hits.push_back(c);
  }
  SortByScoreDesc(&out.hits);
  if (params.max_tokens > 0 && out.hits.size() > params.max_tokens) {
    out.hits.resize(params.max_tokens);
  }
  // Coded views: re-score the head of the critical set against exact fp32 so
  // the attention weights downstream see exact inner products for the tokens
  // that dominate the softmax.
  out.stats.dist_comps += RerankTopHits(view, q, &out.hits);
  return out;
}

/// The search body. Instantiated twice so that with a disabled filter the
/// predicate checks and the bridge drain compile away, leaving the plain
/// Algorithm 1 loop.
template <bool kFiltered>
SearchResult Search(const AdjacencyGraph& graph, const ScoringView& vectors,
                    uint32_t entry, const float* q, const DiprParams& params,
                    const IdFilter& filter, VisitedSet* visited) {
  SearchResult empty;
  if (graph.size() == 0) return empty;

  VisitedSet local;
  if (visited == nullptr) visited = &local;
  visited->Resize(graph.size());
  visited->Reset();

  DiprsState st;
  st.beta = params.beta;
  st.l0 = params.l0;
  st.best_ip = params.prior_best_ip;

  const QueryScorer scorer(vectors, q);
  auto passes = [&](uint32_t v) { return !kFiltered || filter.Pass(v); };
  auto seed = [&](uint32_t v) {
    const float ip = scorer.Score(v);
    st.stats.dist_comps++;
    st.c.push_back({v, ip});
    if (ip > st.best_ip) st.best_ip = ip;
  };

  // Line 1: initialize C with the start key. If the entry fails the
  // predicate, BFS through the graph (bounded) until a few passing seeds are
  // found.
  visited->Visit(entry);
  if (passes(entry)) {
    seed(entry);
  } else {
    IdQueue bfs;
    bfs.push(entry);
    const size_t kSeedTarget = 4;
    const size_t kBfsBudget = 4096;
    size_t popped = 0;
    while (!bfs.empty() && st.c.size() < kSeedTarget && popped < kBfsBudget) {
      const uint32_t u = bfs.pop();
      ++popped;
      for (uint32_t v : graph.Neighbors(u)) {
        if (!visited->Visit(v)) continue;
        if (passes(v)) {
          seed(v);
        } else {
          bfs.push(v);
        }
      }
    }
    if (st.c.empty()) return empty;  // Predicate selects nothing reachable.
  }

  // Lines 3-7: sweep C in insertion order; C grows during the sweep. A
  // neighbor failing the predicate becomes a "bridge" whose own neighborhood
  // is inspected (§7.1, after ACORN [49]): after each candidate, up to
  // kBridgeDrainPerHop queued bridges are expanded breadth-first, so
  // connectivity survives even low-selectivity predicates (e.g. a 20% reuse
  // ratio) without scanning the whole graph.
  IdQueue bridges;
  const size_t kBridgeDrainPerHop = 48;
  for (size_t i = 0; i < st.c.size(); ++i) {
    uint32_t u = st.c[i].id;
    for (size_t drained = 0;; ++drained) {
      st.stats.hops++;
      for (uint32_t v : graph.Neighbors(u)) {
        if (!visited->Visit(v)) continue;
        if (passes(v)) {
          const float ip = scorer.Score(v);
          st.stats.dist_comps++;
          TryAppend(v, ip, &st);
        } else {
          bridges.push(v);
        }
      }
      if (!kFiltered || drained == kBridgeDrainPerHop || bridges.empty()) break;
      u = bridges.pop();
    }
  }

  // Lines 8-9: keep candidates within beta of the best inner product found.
  return Finalize(&st, params, vectors, q);
}

}  // namespace

SearchResult DiprsSearch(const AdjacencyGraph& graph, const ScoringView& vectors,
                         uint32_t entry, const float* q, const DiprParams& params,
                         const IdFilter& filter, VisitedSet* visited) {
  return filter.enabled()
             ? Search<true>(graph, vectors, entry, q, params, filter, visited)
             : Search<false>(graph, vectors, entry, q, params, filter, visited);
}

}  // namespace alaya
