// RoarGraph: a projected bipartite graph for cross-modal (out-of-distribution)
// approximate nearest neighbor search [Chen et al., VLDB 2024], the
// fine-grained index AlayaDB uses for sparse attention (§7.2).
//
// Decode-time query vectors are *not* distributed like key vectors, so
// in-distribution graphs (HNSW/NSG) navigate poorly. RoarGraph instead:
//   (1) builds an exact kNN bipartite graph from sampled *query* vectors to
//       key vectors;
//   (2) projects it: keys co-retrieved by the same query become neighbor
//       candidates, pruned for diversity;
//   (3) enhances connectivity so every key is reachable from the entry point.
#pragma once

#include <memory>

#include "src/common/thread_pool.h"
#include "src/common/vector_codec.h"
#include "src/index/graph_common.h"
#include "src/index/index.h"
#include "src/index/knn_graph.h"

namespace alaya {

struct RoarGraphOptions {
  /// Max out-degree after pruning.
  uint32_t max_degree = 32;
  /// Bipartite neighbors per training query.
  uint32_t knn_per_query = 32;
  /// Occlusion slack for diversity pruning (Vamana-style, on key-space L2).
  float prune_alpha = 1.2f;
  /// Beam width used during connectivity enhancement.
  uint32_t ef_enhance = 64;
  ThreadPool* pool = nullptr;  ///< nullptr -> ThreadPool::Global().
  bool sequential = false;     ///< Disable parallel build (CPU baseline mode).
  /// Representation searches score candidates on (kFp32 = exact, no sidecar).
  /// Build and rerank always use the fp32 keys.
  VectorCodec codec = VectorCodec::kFp32;
  /// With a non-fp32 codec, the top rerank_k hits of every search are
  /// re-scored against fp32 (0 disables rerank).
  size_t rerank_k = 32;
};

class RoarGraph final : public VectorIndex {
 public:
  /// The key vectors are owned by the caller (KV cache) and must outlive the
  /// index. Call one of the Build methods before searching.
  RoarGraph(VectorSetView keys, const RoarGraphOptions& options);
  ~RoarGraph() override;

  /// Full pipeline: exact bipartite kNN from `queries`, then projection and
  /// connectivity enhancement.
  Status BuildFromQueries(VectorSetView queries);

  /// Builds from precomputed bipartite kNN lists (stage (i) output) — used by
  /// IndexBuilder, which computes the kNN on the simulated GPU.
  Status BuildFromBipartite(const std::vector<std::vector<ScoredId>>& query_knn);

  /// Adopts a previously-built adjacency (loaded from the vector file system);
  /// recomputes the entry point and marks the index built.
  Status AdoptGraph(AdjacencyGraph&& graph);

  /// Seeds this index from `base`, whose first `base_count` keys are exactly
  /// this index's first `base_count` keys, and incrementally inserts the
  /// remaining keys [base_count, n): each new key is attached via a beam
  /// search over the growing graph, diversity-pruned like a projection
  /// candidate, and given best-effort reverse edges; a final connectivity
  /// pass restores full reachability. The base adjacency is adopted with
  /// out-of-prefix edges dropped (a base larger than base_count is the
  /// partial-reuse case: its suffix nodes are not our tokens), never rebuilt
  /// — the index-sharing path DB.Store takes when a session extends a stored
  /// context (the base must stay alive only for the duration of this call).
  Status ExtendFromBase(const RoarGraph& base, size_t base_count);

  bool built() const { return built_; }

  // --- VectorIndex ---
  IndexClass index_class() const override { return IndexClass::kFine; }
  size_t size() const override { return keys_.n; }
  uint64_t MemoryBytes() const override {
    return graph_.MemoryBytes() + coded_.MemoryBytes();
  }
  /// Beam search (ef = params.EffectiveEf()) truncated to k; a filter
  /// post-filters those k hits, so fewer than k may pass.
  Status SearchTopK(const float* q, const TopKParams& params,
                    const IdFilter& filter, SearchResult* out) const override;
  /// DIPRS (Algorithm 1) from the max-norm entry point.
  Status SearchDipr(const float* q, const DiprParams& params,
                    const IdFilter& filter, SearchResult* out) const override;

  const AdjacencyGraph& graph() const { return graph_; }
  VectorSetView vectors() const { return keys_; }
  /// The max-norm key every search starts from.
  uint32_t entry_point() const { return entry_; }

  /// What searches score on: fp32 keys plus the coded sidecar when the index
  /// was built with a non-fp32 codec (empty sidecar == exact scoring).
  ScoringView scoring() const { return {keys_, &coded_, options_.rerank_k}; }
  VectorCodec codec() const { return options_.codec; }

  /// Fraction of nodes reachable from the entry point (1.0 after a healthy
  /// build; exposed for tests).
  double ReachableFraction() const;

 private:
  void ProjectBipartite(const std::vector<std::vector<ScoredId>>& query_knn);
  /// (Re-)encodes the coded sidecar; every build path's final step.
  void BuildCodedStore();
  void PruneNode(uint32_t u, std::vector<uint32_t>* candidates);
  void EnhanceConnectivity();
  void ForceEdge(uint32_t u, uint32_t v);

  VectorSetView keys_;
  RoarGraphOptions options_;
  AdjacencyGraph graph_;
  CodedVectorSet coded_;
  uint32_t entry_ = 0;
  bool built_ = false;
};

}  // namespace alaya
