#include "src/baselines/method_runner.h"

#include <algorithm>
#include <cmath>

#include "src/attention/attention_engine.h"
#include "src/common/timer.h"

namespace alaya {

Status MethodRunner::Prepare(const SyntheticContext& context, SimEnvironment* env,
                             const IndexBuildOptions& build_options) {
  context_ = &context;
  env_ = env != nullptr ? env : &SimEnvironment::Global();
  const ModelConfig& m = model_;

  if (spec_.kind == MethodSpec::Kind::kTopK || spec_.kind == MethodSpec::Kind::kDiprs) {
    // Fine-grained RoarGraph per (layer, KV head), GQA-shared, trained on
    // synthetic prefill queries.
    auto training = context.MakeTrainingQueries(
        std::max<size_t>(64, static_cast<size_t>(build_options.query_sample_ratio *
                                                 context.num_tokens() /
                                                 m.GroupSize())));
    fine_.clear();
    for (uint32_t layer = 0; layer < m.num_layers; ++layer) {
      std::vector<VectorSetView> head_keys;
      for (uint32_t h = 0; h < m.num_kv_heads; ++h) {
        head_keys.push_back(context.kv().Keys(layer, h));
      }
      std::vector<VectorSetView> head_queries;
      for (uint32_t h = 0; h < m.num_q_heads; ++h) {
        head_queries.push_back(training->View(layer, h));
      }
      std::vector<std::unique_ptr<RoarGraph>> built;
      IndexBuildStats stats;
      IndexBuildOptions opts = build_options;
      opts.share_gqa_group = true;
      ALAYA_RETURN_IF_ERROR(
          BuildLayerIndices(head_keys, head_queries, m.GroupSize(), opts, &built,
                            &stats));
      build_stats_.reported_seconds += stats.reported_seconds;
      build_stats_.index_bytes += stats.index_bytes;
      build_stats_.num_indices += stats.num_indices;
      for (auto& idx : built) fine_.push_back(std::move(idx));
    }
  } else if (spec_.kind == MethodSpec::Kind::kInfLlm) {
    coarse_.clear();
    CoarseIndexOptions copts;
    copts.block_size = spec_.infllm_block;
    copts.rep_kind = BlockRepKind::kSalient;
    copts.reps_per_block = 4;
    for (uint32_t layer = 0; layer < m.num_layers; ++layer) {
      for (uint32_t h = 0; h < m.num_kv_heads; ++h) {
        coarse_.push_back(
            std::make_unique<CoarseIndex>(context.kv().Keys(layer, h), copts));
      }
    }
  }
  return Status::Ok();
}

const RoarGraph* MethodRunner::FineIndex(uint32_t layer, uint32_t q_head) const {
  const size_t slot = static_cast<size_t>(layer) * model_.num_kv_heads +
                      model_.KvHeadForQuery(q_head);
  return slot < fine_.size() ? fine_[slot].get() : nullptr;
}

uint64_t MethodRunner::GpuBytes() const {
  if (context_ == nullptr) return 0;
  const size_t n = context_->num_tokens();
  const uint64_t per_token = model_.KvBytesPerToken();
  switch (spec_.kind) {
    case MethodSpec::Kind::kFullAttention:
      return static_cast<uint64_t>(n) * per_token;
    case MethodSpec::Kind::kStreamingLlm:
      return window_.Size(n) * per_token;
    case MethodSpec::Kind::kInfLlm: {
      uint64_t reps = 0;
      for (const auto& c : coarse_) reps += c->MemoryBytes();
      // Representatives (at deployed precision) + cached blocks + window.
      return reps / 2 +
             (window_.Size(n) + spec_.infllm_cache_tokens) * per_token;
    }
    case MethodSpec::Kind::kTopK:
    case MethodSpec::Kind::kDiprs:
      // Graph index + offloaded KV live on CPU; only the window is on device.
      return window_.Size(n) * per_token;
  }
  return 0;
}

Status MethodRunner::AttendHead(uint32_t layer, uint32_t q_head, const float* q,
                                float* out, MethodHeadStats* stats,
                                std::vector<uint32_t>* used_ids) {
  if (context_ == nullptr) return Status::FailedPrecondition("Prepare() not called");
  const ModelConfig& m = model_;
  const uint32_t kv_head = m.KvHeadForQuery(q_head);
  const size_t d = m.head_dim;
  const float scale = 1.0f / std::sqrt(static_cast<float>(d));
  VectorSetView keys = context_->kv().Keys(layer, kv_head);
  VectorSetView values = context_->kv().Values(layer, kv_head);
  const size_t n = keys.n;
  const CostModel& cost = env_->cost_model();

  MethodHeadStats local;
  WallTimer wall;

  if (spec_.kind == MethodSpec::Kind::kFullAttention) {
    AttentionStats astats;
    FullAttentionHead(q, keys, values, n, out, &astats);
    local.attended = astats.tokens_attended;
    local.cpu_seconds = 0;  // Runs on GPU in deployment; host time not charged.
    local.gpu_ctx_seconds =
        cost.HfDecodeAttentionSeconds(static_cast<uint64_t>(n) * 2 * d *
                                      m.bytes_per_scalar);
    if (used_ids != nullptr) {
      used_ids->resize(n);
      for (size_t i = 0; i < n; ++i) (*used_ids)[i] = static_cast<uint32_t>(i);
    }
    if (stats != nullptr) *stats = local;
    return Status::Ok();
  }

  // Window partition (device-resident for every sparse method).
  std::vector<uint32_t> window_ids;
  window_.CollectIds(n, &window_ids);

  std::vector<uint32_t> retrieved_ids;
  switch (spec_.kind) {
    case MethodSpec::Kind::kStreamingLlm:
      break;  // Window only.
    case MethodSpec::Kind::kInfLlm: {
      const size_t slot = static_cast<size_t>(layer) * m.num_kv_heads + kv_head;
      const CoarseIndex* coarse = coarse_[slot].get();
      TopKParams params;
      params.k = spec_.infllm_cache_tokens;
      SearchResult res;
      ALAYA_RETURN_IF_ERROR(coarse->SearchTopK(q, params, IdFilter{}, &res));
      local.search = res.stats;
      for (const ScoredId& h : res.hits) {
        if (!window_.Contains(h.id, n)) retrieved_ids.push_back(h.id);
      }
      break;
    }
    case MethodSpec::Kind::kTopK: {
      const RoarGraph* fine = FineIndex(layer, q_head);
      if (fine == nullptr) return Status::FailedPrecondition("missing fine index");
      TopKParams params;
      params.k = spec_.k;
      params.ef = spec_.ef != 0 ? spec_.ef : std::max<size_t>(spec_.k, 64);
      SearchResult res;
      ALAYA_RETURN_IF_ERROR(fine->SearchTopK(q, params, IdFilter{}, &res));
      local.search = res.stats;
      for (const ScoredId& h : res.hits) {
        if (!window_.Contains(h.id, n)) retrieved_ids.push_back(h.id);
      }
      break;
    }
    case MethodSpec::Kind::kDiprs: {
      const RoarGraph* fine = FineIndex(layer, q_head);
      if (fine == nullptr) return Status::FailedPrecondition("missing fine index");
      DiprParams params;
      params.beta = spec_.beta;
      params.l0 = spec_.dipr_l0;
      if (spec_.window_hint) {
        params.prior_best_ip = window_.MaxWindowInnerProduct(q, keys, n);
        local.search.dist_comps += window_ids.size();
      }
      SearchResult res;
      ALAYA_RETURN_IF_ERROR(fine->SearchDipr(q, params, IdFilter{}, &res));
      local.search += res.stats;
      for (const ScoredId& h : res.hits) {
        if (!window_.Contains(h.id, n)) retrieved_ids.push_back(h.id);
      }
      break;
    }
    default:
      return Status::Internal("unhandled method kind");
  }
  local.retrieved = retrieved_ids.size();

  // Data-centric partial attention: retrieved tokens where the KV lives (CPU
  // for fine methods, GPU for InfLLM's cached blocks), window on GPU; exact
  // flash-style merge.
  PartialAttention merged(d);
  PartialAttention window_part(d);
  if (!window_ids.empty()) {
    KvPartition part{keys, values, window_ids, 0, 0};
    local.attended += AccumulatePartition(q, part, scale, &window_part);
  }
  PartialAttention retrieved_part(d);
  if (!retrieved_ids.empty()) {
    KvPartition part{keys, values, retrieved_ids, 0, 0};
    local.attended += AccumulatePartition(q, part, scale, &retrieved_part);
  }
  merged.Merge(window_part);
  merged.Merge(retrieved_part);
  merged.Finalize(out);

  local.cpu_seconds = wall.ElapsedSeconds();
  const uint64_t window_bytes =
      static_cast<uint64_t>(window_ids.size()) * 2 * d * m.bytes_per_scalar;
  local.gpu_fixed_seconds += cost.GpuMemoryStreamSeconds(window_bytes);
  // The flash-style partial-result merge ships (d+2) floats across PCIe.
  local.gpu_fixed_seconds += cost.TransferSeconds((d + 2) * sizeof(float));
  if (spec_.kind == MethodSpec::Kind::kInfLlm) {
    // Blocks are GPU-cached: attention over them is device work, not host.
    const uint64_t blk_bytes =
        static_cast<uint64_t>(retrieved_ids.size()) * 2 * d * m.bytes_per_scalar;
    local.gpu_fixed_seconds += cost.GpuMemoryStreamSeconds(blk_bytes);
    local.cpu_seconds *= 0.1;  // Only block scoring is host-side.
  }

  if (used_ids != nullptr) {
    *used_ids = window_ids;
    used_ids->insert(used_ids->end(), retrieved_ids.begin(), retrieved_ids.end());
  }
  if (stats != nullptr) *stats = local;
  return Status::Ok();
}

}  // namespace alaya
