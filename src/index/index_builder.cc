#include "src/index/index_builder.h"

#include <algorithm>

#include "src/common/timer.h"

namespace alaya {

VectorSet SampleQueries(VectorSetView queries, size_t count, Rng* rng) {
  VectorSet out(queries.d);
  if (queries.n == 0 || count == 0) return out;
  count = std::min(count, queries.n);
  auto picks = rng->SampleWithoutReplacement(queries.n, count);
  out.Reserve(count);
  for (size_t idx : picks) out.Append(queries.Vec(static_cast<uint32_t>(idx)));
  return out;
}

void ForEachBuildUnit(const IndexBuildOptions& options, size_t n,
                      const std::function<void(size_t)>& fn) {
  if (options.sequential_cpu_baseline) {
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  ThreadPool* pool = options.pool != nullptr ? options.pool : &ThreadPool::Global();
  pool->ParallelFor(0, n, fn);
}

Status BuildLayerIndices(const std::vector<VectorSetView>& head_keys,
                         const std::vector<VectorSetView>& head_queries,
                         uint32_t gqa_group_size, const IndexBuildOptions& options,
                         std::vector<std::unique_ptr<RoarGraph>>* out,
                         IndexBuildStats* stats) {
  if (out == nullptr) return Status::InvalidArgument("null output");
  if (gqa_group_size == 0) return Status::InvalidArgument("gqa_group_size == 0");
  const size_t h_kv = head_keys.size();
  const size_t h_q = head_queries.size();
  if (h_q != h_kv * gqa_group_size) {
    return Status::InvalidArgument("h_q must equal h_kv * gqa_group_size");
  }
  out->clear();
  IndexBuildStats local_stats;
  Rng rng(options.seed);
  const CostModel cost;

  struct BuildUnit {
    VectorSetView keys;
    VectorSet training;  // Sampled queries.
  };
  std::vector<BuildUnit> units;

  if (options.share_gqa_group) {
    // One index per KV head; sample query_sample_ratio * n keys worth of
    // training queries spread evenly over the group's query heads, so the
    // merged sample still captures every head's distribution.
    for (size_t kv = 0; kv < h_kv; ++kv) {
      BuildUnit unit;
      unit.keys = head_keys[kv];
      const size_t want_total = static_cast<size_t>(
          options.query_sample_ratio * static_cast<double>(unit.keys.n));
      const size_t per_head = std::max<size_t>(1, want_total / gqa_group_size);
      unit.training.Reset(unit.keys.d);
      for (uint32_t g = 0; g < gqa_group_size; ++g) {
        const VectorSetView& hq = head_queries[kv * gqa_group_size + g];
        VectorSet s = SampleQueries(hq, per_head, &rng);
        unit.training.AppendBatch(s.raw(), s.size());
      }
      units.push_back(std::move(unit));
    }
  } else {
    // RetrievalAttention baseline: one index per query head over its KV head.
    for (size_t g = 0; g < h_q; ++g) {
      BuildUnit unit;
      unit.keys = head_keys[g / gqa_group_size];
      const size_t want = static_cast<size_t>(options.query_sample_ratio *
                                              static_cast<double>(unit.keys.n));
      unit.training = SampleQueries(head_queries[g], std::max<size_t>(1, want), &rng);
      units.push_back(std::move(unit));
    }
  }

  // Stage (i): bipartite kNN per unit — on the simulated GPU when enabled.
  // The per-layer pipeline overlaps the PCIe upload of the *next* unit with
  // the kNN compute of the current one, so the charged device time is
  // sum(max(compute_u, transfer_u)) + first transfer.
  std::vector<std::vector<std::vector<ScoredId>>> knn_lists(units.size());
  WallTimer knn_timer;
  for (size_t u = 0; u < units.size(); ++u) {
    BipartiteKnnOptions knn_opts;
    knn_opts.k = options.roar.knn_per_query;
    knn_opts.pool = options.pool;
    knn_opts.sequential = options.sequential_cpu_baseline;
    knn_lists[u] = ExactBipartiteKnn(units[u].keys, units[u].training.View(), knn_opts);
    local_stats.training_queries += units[u].training.size();
  }
  local_stats.knn_wall_seconds = knn_timer.ElapsedSeconds();

  if (options.use_sim_gpu_knn) {
    double pipeline_seconds = 0.0;
    double prev_compute = 0.0;
    const double per_unit_wall =
        local_stats.knn_wall_seconds / static_cast<double>(units.size());
    for (size_t u = 0; u < units.size(); ++u) {
      const uint64_t kv_bytes =
          static_cast<uint64_t>(units[u].keys.n) * units[u].keys.d * sizeof(float) +
          static_cast<uint64_t>(units[u].training.size()) * units[u].keys.d *
              sizeof(float);
      const double transfer = cost.TransferSeconds(kv_bytes);
      local_stats.modeled_transfer_seconds += transfer;
      const double compute = per_unit_wall / options.gpu_speedup_vs_host;
      local_stats.modeled_gpu_seconds += compute;
      if (u == 0) {
        pipeline_seconds += transfer;  // First upload cannot overlap.
      } else {
        pipeline_seconds += std::max(transfer, prev_compute);
      }
      prev_compute = compute;
    }
    pipeline_seconds += prev_compute;  // Drain the last compute.
    local_stats.reported_seconds += pipeline_seconds;
  } else {
    local_stats.reported_seconds += local_stats.knn_wall_seconds;
  }

  // Stages (2)+(3): projection + connectivity enhancement, always on host.
  // Units are independent graphs, so each builds as one task on the build
  // pool (its pruning fans out further on the same pool); connectivity is a
  // sequential pass per graph, so this is where the units' overlap pays.
  // Results are collected in unit order.
  WallTimer project_timer;
  std::vector<std::unique_ptr<RoarGraph>> built(units.size());
  std::vector<Status> statuses(units.size(), Status::Ok());
  ForEachBuildUnit(options, units.size(), [&](size_t u) {
    RoarGraphOptions ropts = options.roar;
    ropts.sequential = options.sequential_cpu_baseline;
    ropts.pool = options.pool;
    built[u] = std::make_unique<RoarGraph>(units[u].keys, ropts);
    statuses[u] = built[u]->BuildFromBipartite(knn_lists[u]);
  });
  for (size_t u = 0; u < units.size(); ++u) {
    ALAYA_RETURN_IF_ERROR(statuses[u]);
    local_stats.index_bytes += built[u]->MemoryBytes();
    out->push_back(std::move(built[u]));
  }
  local_stats.project_wall_seconds = project_timer.ElapsedSeconds();
  local_stats.reported_seconds += local_stats.project_wall_seconds;
  local_stats.num_indices = out->size();

  if (stats != nullptr) *stats = local_stats;
  return Status::Ok();
}

Status ExtendLayerIndices(const std::vector<VectorSetView>& head_keys,
                          const std::vector<const RoarGraph*>& base_indices,
                          size_t base_tokens, const IndexBuildOptions& options,
                          std::vector<std::unique_ptr<RoarGraph>>* out,
                          IndexBuildStats* stats) {
  if (out == nullptr) return Status::InvalidArgument("null output");
  if (head_keys.size() != base_indices.size()) {
    return Status::InvalidArgument("one base index per KV head required");
  }
  out->clear();
  IndexBuildStats local_stats;
  WallTimer timer;

  const size_t h_kv = head_keys.size();
  std::vector<std::unique_ptr<RoarGraph>> built(h_kv);
  std::vector<Status> statuses(h_kv, Status::Ok());
  auto extend_one = [&](size_t h) {
    if (base_indices[h] == nullptr) {
      statuses[h] = Status::InvalidArgument("null base index");
      return;
    }
    RoarGraphOptions ropts = options.roar;
    ropts.sequential = true;  // Parallelism comes from batching heads.
    ropts.pool = options.pool;
    auto index = std::make_unique<RoarGraph>(head_keys[h], ropts);
    statuses[h] = index->ExtendFromBase(*base_indices[h], base_tokens);
    built[h] = std::move(index);
  };
  ForEachBuildUnit(options, h_kv, extend_one);

  for (size_t h = 0; h < h_kv; ++h) {
    ALAYA_RETURN_IF_ERROR(statuses[h]);
    local_stats.index_bytes += built[h]->MemoryBytes();
    local_stats.extended_indices += 1;
    local_stats.reused_base_nodes += base_tokens;
    local_stats.inserted_suffix_nodes += head_keys[h].n - base_tokens;
    out->push_back(std::move(built[h]));
  }
  local_stats.num_indices = out->size();
  local_stats.project_wall_seconds = timer.ElapsedSeconds();
  local_stats.reported_seconds = local_stats.project_wall_seconds;
  if (stats != nullptr) *stats = local_stats;
  return Status::Ok();
}

}  // namespace alaya
