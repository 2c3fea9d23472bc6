// Layer-at-a-time index construction with the paper's §7.2 accelerations:
//   - GQA-based index sharing: one RoarGraph per KV head (queries sampled from
//     every query head in the group and merged), an h_q/h_kv-fold reduction in
//     index count and memory;
//   - GPU-based kNN construction: stage (i) runs on the simulated GPU
//     (executed on host threads, charged with modeled device time);
//   - layer pipeline: CPU->GPU transfer of layer l+1 overlaps with kNN compute
//     of layer l.
// Build units — one graph per (layer, KV head), or per query head unshared —
// are independent, so outside the CPU baseline they build concurrently on the
// index-build pool: BuildLayerIndices connects a layer's units in one
// ParallelFor, and Context::BuildFineIndices runs its layers in another.
// Every unit's result is a function of its inputs alone (each layer samples
// its training queries from its own Rng(seed) before its units start), so the
// graphs are bit-identical to a sequential build.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "src/common/rng.h"
#include "src/common/thread_pool.h"
#include "src/device/cost_model.h"
#include "src/index/roargraph.h"

namespace alaya {

struct IndexBuildOptions {
  RoarGraphOptions roar;
  /// Ratio of sampled training queries to key count (paper uses 40%).
  double query_sample_ratio = 0.4;
  /// Share one index per KV-head group instead of one per query head.
  bool share_gqa_group = true;
  /// Run stage (i) on the simulated GPU.
  bool use_sim_gpu_knn = true;
  /// GPU kNN speedup vs this host's measured throughput. Calibrated so the
  /// GPU:CPU ratio lands in the paper's observed 3-15x band (Fig. 11a);
  /// hardware-relative because our host differs from the authors'.
  double gpu_speedup_vs_host = 8.0;
  /// The CPU-baseline mode builds indices sequentially (RetrievalAttention
  /// builds one index per query head on CPU): one unit, one layer and one
  /// query at a time, never on the pool.
  bool sequential_cpu_baseline = false;
  ThreadPool* pool = nullptr;
  uint64_t seed = 7;
};

/// Build accounting. Two clocks: the *_wall_seconds fields are host wall
/// time, the modeled_* fields are charged device time.
///
/// The wall fields cover the whole build, not a sum over its parts: units and
/// layers that build concurrently are counted once. For Context::build_stats()
/// knn_wall_seconds is the time during which any layer was in stage (i), and
/// project_wall_seconds the further time during which any layer was
/// projecting, connecting or extending. Their sum never exceeds the build's
/// wall time. reported_seconds (which the tier store's victim ranking reads as
/// rebuild_seconds) uses the same host figures.
struct IndexBuildStats {
  double knn_wall_seconds = 0;       ///< Host wall time spent in stage (i).
  double project_wall_seconds = 0;   ///< Projection + connectivity time.
  double modeled_gpu_seconds = 0;    ///< Charged device time for stage (i).
  double modeled_transfer_seconds = 0;  ///< Charged PCIe time (KV upload).
  /// Reported construction time: wall time of CPU stages + pipelined device
  /// time (max of compute/transfer per layer) when the GPU path is on.
  double reported_seconds = 0;
  uint64_t index_bytes = 0;
  size_t num_indices = 0;
  size_t training_queries = 0;
  /// Extend-from-base accounting (index sharing across near-duplicate
  /// contexts): indices seeded from a stored context's graphs instead of
  /// rebuilt, graph nodes adopted verbatim from those bases, and suffix
  /// vectors inserted incrementally. A pure from-scratch build leaves all
  /// three at zero — the counter tests use to prove a prefix was NOT rebuilt.
  size_t extended_indices = 0;
  size_t reused_base_nodes = 0;
  size_t inserted_suffix_nodes = 0;

  /// Folds another stats block into this one, summing every field (wall
  /// times too: right only for builds that ran one after another).
  void Accumulate(const IndexBuildStats& o) {
    knn_wall_seconds += o.knn_wall_seconds;
    project_wall_seconds += o.project_wall_seconds;
    modeled_gpu_seconds += o.modeled_gpu_seconds;
    modeled_transfer_seconds += o.modeled_transfer_seconds;
    reported_seconds += o.reported_seconds;
    index_bytes += o.index_bytes;
    num_indices += o.num_indices;
    training_queries += o.training_queries;
    extended_indices += o.extended_indices;
    reused_base_nodes += o.reused_base_nodes;
    inserted_suffix_nodes += o.inserted_suffix_nodes;
  }
};

/// Builds the fine-grained indices for ONE transformer layer.
///
/// `head_keys[h]` are the key vectors of KV head h (h in [0, h_kv));
/// `head_queries[g]` are prefill query vectors of query head g (g in [0, h_q));
/// `gqa_group_size` = h_q / h_kv. Query head g attends KV head g / group_size.
///
/// With sharing: returns h_kv indices. Without: returns h_q indices (query
/// head g gets its own index over its KV head's keys).
Status BuildLayerIndices(const std::vector<VectorSetView>& head_keys,
                         const std::vector<VectorSetView>& head_queries,
                         uint32_t gqa_group_size, const IndexBuildOptions& options,
                         std::vector<std::unique_ptr<RoarGraph>>* out,
                         IndexBuildStats* stats);

/// Extends ONE layer's fine indices from a base context's graphs instead of
/// rebuilding them (index sharing across near-duplicate contexts, the
/// DB.Store path for sessions that fully reuse a stored prefix).
///
/// `head_keys[h]` are the NEW context's key vectors of KV head h (prefix +
/// suffix); `base_indices[h]` is the base context's graph for the same head,
/// built over exactly the first `base_tokens` rows of `head_keys[h]`. Only
/// the suffix rows [base_tokens, n) are inserted (RoarGraph::ExtendFromBase);
/// the prefix adjacency is adopted verbatim. GQA-shared layout only — one
/// index per KV head.
Status ExtendLayerIndices(const std::vector<VectorSetView>& head_keys,
                          const std::vector<const RoarGraph*>& base_indices,
                          size_t base_tokens, const IndexBuildOptions& options,
                          std::vector<std::unique_ptr<RoarGraph>>* out,
                          IndexBuildStats* stats);

/// Runs fn(i) for i in [0, n): one at a time in the CPU-baseline mode, else as
/// one ParallelFor on options.pool (nullptr -> ThreadPool::Global()). The
/// fan-out every multi-unit build step uses; nested calls are safe because
/// ParallelFor's caller works its own range.
void ForEachBuildUnit(const IndexBuildOptions& options, size_t n,
                      const std::function<void(size_t)>& fn);

/// Samples `count` query vectors (rows) from `queries` into a new VectorSet.
VectorSet SampleQueries(VectorSetView queries, size_t count, Rng* rng);

}  // namespace alaya
