// DIPRS: approximate processing of the Dynamic Inner-Product Range query
// (paper §6.1.3, Algorithm 1).
//
// DIPR(q, beta) returns every key whose inner product with q is within beta of
// the maximum (Definition 3) — the number of returned critical tokens is
// dynamic, adapting per head and per task (Observations I & II). DIPRS walks a
// graph index with an unordered variable-capacity candidate list:
//   (i)  below capacity threshold l0, explore unconditionally (escape local
//        maxima quickly);
//   (ii) beyond l0, append only candidates within beta of the best-so-far
//        inner product (prune non-critical explorations).
#pragma once

#include "src/common/vector_codec.h"
#include "src/common/visited_set.h"
#include "src/index/graph_common.h"
#include "src/index/index.h"

namespace alaya {

/// Algorithm 1. Returns the critical token set c_K, best-first.
///
/// `vectors` is a ScoringView: a bare VectorSetView scores exactly on fp32;
/// attaching a CodedVectorSet traverses on the quantized codes and re-scores
/// the top rerank_k survivors against fp32. `params.prior_best_ip` seeds the
/// threshold (window caching, §7.1).
///
/// Only tokens passing `filter` are candidates (attribute filtering for
/// partial context reuse, §7.1); traversal inspects neighbors of
/// filtered-out nodes (ACORN-style) so graph connectivity survives the
/// predicate. A disabled filter passes every id.
SearchResult DiprsSearch(const AdjacencyGraph& graph, const ScoringView& vectors,
                         uint32_t entry, const float* q, const DiprParams& params,
                         const IdFilter& filter = IdFilter{},
                         VisitedSet* visited = nullptr);

}  // namespace alaya
