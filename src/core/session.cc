#include "src/core/session.h"

#include <algorithm>
#include <cmath>

#include "src/attention/attention_engine.h"
#include "src/common/timer.h"
#include "src/index/flat_index.h"
#include "src/query/sharded_attention.h"

namespace alaya {

Session::Session(const ModelConfig& config, const SessionOptions& options,
                 Context* reused, size_t reused_prefix, SimEnvironment* env,
                 int device)
    : config_(config),
      options_(options),
      context_(reused),
      prefix_len_(reused != nullptr ? std::min(reused_prefix, reused->length()) : 0),
      env_(env != nullptr ? env : &SimEnvironment::Global()),
      device_(&env_->device(static_cast<size_t>(
          std::clamp<long>(device, 0, static_cast<long>(env_->num_devices()) - 1)))),
      local_(config),
      optimizer_(options.optimizer),
      window_(options.window),
      gpu_reservation_(&device_->memory(), 0) {}

Status Session::Update(uint32_t layer, const float* q, const float* k, const float* v) {
  return UpdateBatch(layer, 1, q, k, v);
}

Status Session::UpdateBatch(uint32_t layer, size_t count, const float* q,
                            const float* k, const float* v) {
  if (detached_) return Status::FailedPrecondition("session was detached for store");
  if (layer >= config_.num_layers) return Status::OutOfRange("layer out of range");
  if (k == nullptr || v == nullptr) return Status::InvalidArgument("null k/v");
  local_.AppendTokens(layer, count, k, v);

  if (q != nullptr) {
    if (recorded_ == nullptr) recorded_ = std::make_unique<QuerySamples>(config_);
    const size_t stride = static_cast<size_t>(config_.num_q_heads) * config_.head_dim;
    for (size_t t = 0; t < count; ++t) {
      if (recorded_->NumSamples(layer) >= options_.max_recorded_tokens) break;
      recorded_->Record(layer, q + t * stride);
    }
  }

  // Window + local KV are device-resident; refresh the reservation once per
  // token (when the last layer has been updated).
  if (layer + 1 == config_.num_layers) {
    RefreshDeviceReservations();
  }
  return Status::Ok();
}

size_t Session::TokensOnGpu() const {
  const size_t n_local = local_.NumTokens();
  const size_t n_total = prefix_len_ + n_local;
  // Window tokens drawn from the reused context plus the entire local tail
  // stay on device, per layer.
  const size_t window_from_context =
      std::min(window_.Size(n_total), n_total) > n_local
          ? window_.Size(n_total) - std::min(window_.Size(n_total), n_local)
          : 0;
  return window_from_context + n_local;
}

uint64_t Session::GpuResidentBytes() const {
  return static_cast<uint64_t>(TokensOnGpu()) * config_.KvBytesPerToken();
}

void Session::RefreshDeviceReservations() {
  if (gang_ == nullptr || gang_->size() <= 1) {
    gpu_reservation_.ResizeTo(GpuResidentBytes());
    return;
  }
  const std::vector<DeviceGang::Shard> shards = gang_->ShardMap(TokensOnGpu());
  for (size_t i = 0; i < shards.size(); ++i) {
    gang_reservations_[i].ResizeTo(static_cast<uint64_t>(shards[i].tokens()) *
                                   config_.KvBytesPerToken());
  }
}

Status Session::BindGang(std::shared_ptr<const DeviceGang> gang) {
  if (gang == nullptr || gang->size() <= 1) return Status::Ok();  // Degenerate: stay solo.
  if (detached_) return Status::FailedPrecondition("session was detached for store");
  if (local_.NumTokens() != 0) {
    return Status::FailedPrecondition("gang must bind before the session holds local KV");
  }
  if (gang->primary() != device_->id()) {
    return Status::InvalidArgument("gang primary must be the session's bound device");
  }
  gang_ = std::move(gang);
  gang_reservations_.clear();
  gang_reservations_.reserve(gang_->size());
  for (size_t i = 0; i < gang_->size(); ++i) {
    gang_reservations_.emplace_back(&gang_->member_device(i).memory(), 0);
  }
  gpu_reservation_.ResizeTo(0);
  return Status::Ok();
}

QueryContext Session::MakeQueryContext(uint32_t layer) const {
  QueryContext qc;
  qc.context_length = TotalTokens(layer);
  qc.partial_reuse = partial_reuse();
  qc.reused_prefix_len =
      qc.partial_reuse ? static_cast<uint32_t>(prefix_len_) : UINT32_MAX;
  qc.gpu_budget_bytes = options_.gpu_budget_bytes;
  qc.layer_id = static_cast<int>(layer);
  return qc;
}

Status Session::Attention(uint32_t layer, const float* q, float* out,
                          AttentionCallStats* stats) {
  if (layer >= config_.num_layers) return Status::OutOfRange("layer out of range");
  if (q == nullptr || out == nullptr) return Status::InvalidArgument("null q/out");
  AttentionCallStats total;
  for (uint32_t h = 0; h < config_.num_q_heads; ++h) {
    AttentionCallStats head_stats;
    const size_t off = static_cast<size_t>(h) * config_.head_dim;
    ALAYA_RETURN_IF_ERROR(AttendHead(layer, h, q + off, out + off, &head_stats));
    total.Add(head_stats);
  }
  // The plan depends only on the layer, so every head ran this same plan.
  total.plan_explain = optimizer_.Plan(MakeQueryContext(layer)).Explain();
  ChargeModeledGpuSeconds(total.modeled_gpu_seconds);
  if (stats != nullptr) *stats = total;
  return Status::Ok();
}

void Session::ChargeModeledGpuSeconds(double seconds) {
  if (gang_ == nullptr || gang_->size() <= 1) {
    device_->clock().Advance(seconds);
    return;
  }
  // Context parallelism: each member runs the kernels over its own shard, so
  // the modeled time splits by resident-token share (the shard map is block-
  // quantized, so shares are exact block counts, not estimates).
  const size_t n = TokensOnGpu();
  const std::vector<DeviceGang::Shard> shards = gang_->ShardMap(n);
  bool charged = false;
  for (const DeviceGang::Shard& s : shards) {
    if (s.tokens() == 0) continue;
    charged = true;
    gang_->member_device(s.member).clock().Advance(
        seconds * (static_cast<double>(s.tokens()) / static_cast<double>(n)));
  }
  if (!charged) device_->clock().Advance(seconds);  // Nothing resident yet.
  // One ring rotation per charge: every member forwards its partial-softmax
  // triples for all query heads to its ring successor on the interconnect.
  const uint64_t ring_bytes =
      DeviceGang::RingExchangeBytes(config_.num_q_heads, config_.head_dim);
  for (size_t i = 0; i < gang_->size(); ++i) {
    Device& dev = gang_->member_device(i);
    dev.clock().Advance(dev.cost_model().TransferSeconds(ring_bytes));
  }
  gang_ring_bytes_ += ring_bytes * gang_->size();
}

Session::DetachedState Session::DetachForStore() {
  DetachedState out{std::move(local_), std::move(recorded_), prefix_len_, context_};
  detached_ = true;
  // Leave the session in a valid (but dead) state: an empty local cache, no
  // recorded queries, and no device residency — retiring IS the offload.
  local_ = KvCache(config_);
  recorded_.reset();
  gpu_reservation_.ResizeTo(0);
  for (MemoryReservation& r : gang_reservations_) r.ResizeTo(0);
  return out;
}

Session::SuspendedState Session::DetachForSuspend() {
  const uint64_t bytes = GpuResidentBytes();  // Before the detach zeroes it.
  return SuspendedState{DetachForStore(), bytes};
}

Status Session::AttachFromSuspend(SuspendedState&& state) {
  if (detached_) {
    return Status::FailedPrecondition("cannot attach onto a detached session");
  }
  if (local_.NumTokens() != 0) {
    return Status::FailedPrecondition("cannot attach onto a session with local KV");
  }
  if (state.base.reused_prefix != prefix_len_) {
    // The resume path must rebind the exact prefix the suspended session saw;
    // a different (e.g. freshly re-matched, longer) prefix would shift every
    // local token's absolute position and corrupt attention.
    return Status::InvalidArgument("suspended state prefix mismatch");
  }
  local_ = std::move(state.base.local_kv);
  recorded_ = std::move(state.base.recorded);
  RefreshDeviceReservations();
  return Status::Ok();
}

Status Session::AttendHead(uint32_t layer, uint32_t q_head, const float* qh,
                           float* out_h, AttentionCallStats* stats) {
  if (detached_) return Status::FailedPrecondition("session was detached for store");
  const uint32_t kv_head = config_.KvHeadForQuery(q_head);
  const size_t d = config_.head_dim;
  const float scale = 1.0f / std::sqrt(static_cast<float>(d));
  const size_t n_local = local_.NumTokens(layer);
  const size_t n_total = prefix_len_ + n_local;

  VectorSetView ctx_keys, ctx_vals;
  if (context_ != nullptr && prefix_len_ > 0) {
    ctx_keys = context_->kv().Keys(layer, kv_head);
    ctx_vals = context_->kv().Values(layer, kv_head);
  }
  VectorSetView loc_keys = local_.Keys(layer, kv_head);
  VectorSetView loc_vals = local_.Values(layer, kv_head);

  const QueryPlan plan = optimizer_.Plan(MakeQueryContext(layer));

  PartialAttention state(d);

  if (plan.query == QueryClass::kFullAttention) {
    WallTimer t;
    if (prefix_len_ > 0) {
      KvPartition ctx_part{ctx_keys, ctx_vals, {}, 0,
                           static_cast<uint32_t>(prefix_len_)};
      stats->attended_tokens += AccumulatePartition(qh, ctx_part, scale, &state);
    }
    if (n_local > 0) {
      KvPartition loc_part{loc_keys, loc_vals, {}, 0, static_cast<uint32_t>(n_local)};
      stats->attended_tokens += AccumulatePartition(qh, loc_part, scale, &state);
    }
    state.Finalize(out_h);
    stats->attention_seconds += t.ElapsedSeconds();
    // In the deployed system full attention runs on GPU.
    stats->modeled_gpu_seconds +=
        device_->cost_model().GpuAttentionSeconds(4.0 * static_cast<double>(n_total) * d);
    return Status::Ok();
  }

  // --- Sparse path: window ids over the combined [context | local] space. ---
  // Local tokens are all attended (late materialization keeps them in the
  // device window); context window ids are the initial tokens plus whatever
  // part of the recent window reaches back into the reused prefix.
  std::vector<uint32_t> ctx_window_ids;
  const uint32_t init_end = static_cast<uint32_t>(
      std::min<size_t>(prefix_len_, window_.config().initial_tokens));
  for (uint32_t i = 0; i < init_end; ++i) ctx_window_ids.push_back(i);
  const size_t recent = window_.config().recent_tokens;
  if (recent > n_local && prefix_len_ > 0) {
    const size_t reach = recent - n_local;  // Recent tokens inside the prefix.
    const uint32_t lo = static_cast<uint32_t>(prefix_len_ > reach ? prefix_len_ - reach : 0);
    for (uint32_t i = std::max(lo, init_end); i < prefix_len_; ++i) {
      ctx_window_ids.push_back(i);
    }
  }

  // Window-enhanced DIPRS prior (§7.1): best inner product over device-resident
  // tokens (context window + local tail).
  float prior = -1e30f;
  WallTimer search_timer;
  for (uint32_t id : ctx_window_ids) {
    prior = std::max(prior, Dot(qh, ctx_keys.Vec(id), d));
  }
  for (uint32_t i = 0; i < n_local; ++i) {
    prior = std::max(prior, Dot(qh, loc_keys.Vec(i), d));
  }
  stats->search.dist_comps += ctx_window_ids.size() + n_local;

  // --- Retrieval over the reused context: one index call. An unbuilt
  // planned index degrades coarse -> fine -> flat.
  SearchResult retrieved;
  if (prefix_len_ > 0) {
    const VectorIndex* index = nullptr;
    if (plan.index == IndexClass::kCoarse) index = context_->CoarseIdx(layer, kv_head);
    if (index == nullptr && plan.index != IndexClass::kFlat) {
      const RoarGraph* fine = context_->FineIndex(layer, q_head);
      if (fine != nullptr && fine->built()) index = fine;
    }
    const FlatIndex flat(ctx_keys);
    if (index == nullptr) index = &flat;
    if (plan.query == QueryClass::kDipr) {
      const DiprParams dipr{plan.dipr, prior};
      ALAYA_RETURN_IF_ERROR(index->SearchDipr(qh, dipr, plan.filter, &retrieved));
    } else {
      ALAYA_RETURN_IF_ERROR(index->SearchTopK(qh, plan.topk, plan.filter, &retrieved));
    }
  }
  stats->search_seconds += search_timer.ElapsedSeconds();
  stats->search += retrieved.stats;
  stats->retrieved_tokens += retrieved.hits.size();

  // --- Data-centric partial attention (§7.2). ---
  WallTimer attn_timer;
  // Partition 1 (CPU, where the offloaded context lives): retrieved critical
  // tokens minus those already in the device window.
  std::vector<uint32_t> cpu_ids;
  cpu_ids.reserve(retrieved.hits.size());
  for (const ScoredId& hit : retrieved.hits) {
    const bool in_window =
        hit.id < init_end ||
        (recent > n_local && hit.id >= prefix_len_ - std::min(prefix_len_,
                                                              recent - n_local));
    if (!in_window) cpu_ids.push_back(hit.id);
  }
  PartialAttention cpu_state(d);
  if (!cpu_ids.empty()) {
    KvPartition part{ctx_keys, ctx_vals, cpu_ids, 0, 0};
    stats->attended_tokens += AccumulatePartition(qh, part, scale, &cpu_state);
  }

  // Partition 2 (GPU): context window tokens + the local tail, accumulated as
  // the canonical block fold — per-kShardBlockTokens partials merged in
  // ascending order. Gang members own whole blocks, so a gang-of-N computes
  // this exact float sequence distributed and the result stays bit-identical.
  PartialAttention gpu_state(d);
  stats->attended_tokens += AccumulateDeviceBlocks(
      qh, scale, ctx_keys, ctx_vals, loc_keys, loc_vals, ctx_window_ids, n_local,
      &gpu_state);
  const size_t gpu_tokens = ctx_window_ids.size() + n_local;
  stats->modeled_gpu_seconds +=
      device_->cost_model().GpuAttentionSeconds(4.0 * static_cast<double>(gpu_tokens) * d);

  // Data-centric: only the (max, sum, acc) triple crosses PCIe, d + 2 floats.
  stats->modeled_gpu_seconds +=
      device_->cost_model().TransferSeconds((d + 2) * sizeof(float));

  state.Merge(gpu_state);
  state.Merge(cpu_state);
  state.Finalize(out_h);
  stats->attention_seconds += attn_timer.ElapsedSeconds();
  return Status::Ok();
}

}  // namespace alaya
