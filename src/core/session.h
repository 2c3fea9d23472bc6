// Session: connects one running inference request to its (possibly reused)
// context (§5, Table 2). Mirrors the paper's API:
//   Session.update(q, k, v, layer)   -> Update()      (DynamicCache-compatible)
//   Session.attention(q, layer) -> o -> Attention()   (flash-attention drop-in)
//
// Newly generated KV is appended to the session-local cache and attended via
// the window — it is only materialized into a physical index when
// DB.Store(session) is called (late materialization, §7.2).
#pragma once

#include <memory>
#include <vector>

#include "src/attention/window_cache.h"
#include "src/core/context_store.h"
#include "src/core/kv_cache.h"
#include "src/core/query_samples.h"
#include "src/device/device.h"
#include "src/device/gang.h"
#include "src/query/optimizer.h"

namespace alaya {

struct SessionOptions {
  WindowConfig window;
  OptimizerOptions optimizer;
  /// Per-session device budget the optimizer plans against.
  uint64_t gpu_budget_bytes = 0;
  /// Prefill queries recorded (per layer) so DB.Store() can train RoarGraph.
  size_t max_recorded_tokens = 8192;
};

/// Per-Attention-call accounting (one layer, all query heads).
struct AttentionCallStats {
  size_t retrieved_tokens = 0;  ///< Critical tokens returned by retrieval.
  size_t attended_tokens = 0;   ///< Tokens that entered softmax (incl. window).
  SearchStats search;
  double search_seconds = 0;
  double attention_seconds = 0;
  double modeled_gpu_seconds = 0;  ///< Charged device time (window part, transfers).
  std::string plan_explain;        ///< The layer's plan; set by Attention() only.

  void Add(const AttentionCallStats& o) {
    retrieved_tokens += o.retrieved_tokens;
    attended_tokens += o.attended_tokens;
    search += o.search;
    search_seconds += o.search_seconds;
    attention_seconds += o.attention_seconds;
    modeled_gpu_seconds += o.modeled_gpu_seconds;
  }
};

class Session {
 public:
  /// `reused` may be nullptr (fresh context). `reused_prefix` <=
  /// reused->length() tokens of the stored context are visible to this session
  /// (partial reuse engages attribute filtering, §7.1). `device` binds the
  /// session to one GPU of the environment's DeviceSet (clamped to the fleet):
  /// its KV residency reserves bytes on that device's tracker and every
  /// modeled kernel it runs advances that device's clock.
  Session(const ModelConfig& config, const SessionOptions& options, Context* reused,
          size_t reused_prefix, SimEnvironment* env = nullptr, int device = 0);

  /// Appends one token's K/V to the session-local cache for `layer` and
  /// (optionally) records q for index training. Compatible with
  /// DynamicCache.update: the full K/V remains accessible via kv views.
  Status Update(uint32_t layer, const float* q, const float* k, const float* v);

  /// Batch prefill variant: `count` tokens, token-major layout.
  Status UpdateBatch(uint32_t layer, size_t count, const float* q, const float* k,
                     const float* v);

  /// Computes one layer's attention output for the newest token.
  /// q and out are [num_q_heads * head_dim]. Replaces flash_attn_func.
  Status Attention(uint32_t layer, const float* q, float* out,
                   AttentionCallStats* stats = nullptr);

  /// One (layer, q_head) attention call — the unit the serving engine batches
  /// across concurrent sessions. `qh`/`out_h` are this head's [head_dim]
  /// slices; `stats` must be non-null.
  ///
  /// Unlike Attention(), this does NOT advance the environment's GPU clock:
  /// batching callers aggregate stats->modeled_gpu_seconds across heads and
  /// call ChargeModeledGpuSeconds once. Reentrancy: safe to call concurrently
  /// for distinct heads of the same session (all session state it touches is
  /// read-only), provided no Update/UpdateBatch runs concurrently.
  Status AttendHead(uint32_t layer, uint32_t q_head, const float* qh, float* out_h,
                    AttentionCallStats* stats);

  /// Advances the shared environment's modeled GPU clock (thread-safe).
  /// Gang-backed sessions split the charge across members by resident-token
  /// share and add one modeled ring-exchange rotation per call (each member
  /// forwards its partial-softmax triples to its ring successor).
  void ChargeModeledGpuSeconds(double seconds);

  /// Gang-backed mode (context parallelism): shard this session's
  /// device-resident KV across `gang`'s members — per-member memory
  /// reservations follow DeviceGang::ShardMap, and modeled kernel time is
  /// split by shard weight plus a ring-exchange transfer per step. The math
  /// is untouched (the block fold runs identically either way), so a
  /// gang-backed decode is bit-identical to the single-device one. Only
  /// valid on a fresh session (no local KV, not detached) whose bound device
  /// is the gang's primary.
  Status BindGang(std::shared_ptr<const DeviceGang> gang);
  const DeviceGang* gang() const { return gang_.get(); }

  /// Lifetime bytes of modeled ring-exchange traffic (gang mode only).
  uint64_t gang_ring_transfer_bytes() const { return gang_ring_bytes_; }

  /// Everything DB.Store needs, severed from the live session — the ownership
  /// handoff that lets the serving engine retire a session immediately while
  /// materialization runs in the background. `reused_context` is a borrowed
  /// pointer: the caller must keep its pin (shared_ptr) alive for as long as
  /// the detached state references it.
  struct DetachedState {
    KvCache local_kv;
    std::unique_ptr<QuerySamples> recorded;
    size_t reused_prefix = 0;
    Context* reused_context = nullptr;
  };

  /// Moves the session-local KV and recorded queries out and releases the
  /// session's device reservation (retire == the KV leaves the device under
  /// late materialization). The session is dead afterwards: Update/Attention
  /// fail with FailedPrecondition, LocalTokens() reads zero.
  DetachedState DetachForStore();
  bool detached() const { return detached_; }

  /// Everything a *suspended* (preempted) request needs to later resume with
  /// zero recompute: the detached KV/queries plus the byte count the caller
  /// parks host-side while the request waits. Decode position and the
  /// per-request "RNG state" live engine-side — fill_step/fill_prompt are
  /// pure functions of (step/token, layer), so the engine's step and
  /// prefill_pos counters ARE the generator state; it parks them alongside
  /// this struct.
  struct SuspendedState {
    DetachedState base;
    uint64_t kv_bytes = 0;  ///< Device bytes the detach released.
  };

  /// Generalization of DetachForStore for preemption: same detach (the
  /// session is dead afterwards), plus the released byte count so the engine
  /// can reserve host memory for the parked KV and charge the modeled
  /// device→host offload transfer.
  SuspendedState DetachForSuspend();

  /// Resume-side reattach: moves a suspended request's KV and recorded
  /// queries back into this session and re-reserves device residency. Only
  /// valid on a freshly constructed session (not detached, zero local
  /// tokens) built over the same reused prefix length the suspended session
  /// had — the context *pointer* may differ (the context may have been
  /// spilled and paged back in while suspended; page-in restores it
  /// bit-identically), which is why the state's borrowed reused_context is
  /// ignored in favor of this session's own binding.
  Status AttachFromSuspend(SuspendedState&& state);

  // --- Introspection ---
  size_t reused_prefix() const { return prefix_len_; }
  bool partial_reuse() const {
    return context_ != nullptr && prefix_len_ < context_->length();
  }
  size_t LocalTokens(uint32_t layer = 0) const { return local_.NumTokens(layer); }
  size_t TotalTokens(uint32_t layer = 0) const {
    return prefix_len_ + local_.NumTokens(layer);
  }
  Context* reused_context() { return context_; }
  const Context* reused_context() const { return context_; }
  /// The device this session is bound to (id into the environment's fleet).
  int device() const { return device_->id(); }
  const KvCache& local_kv() const { return local_; }
  const QuerySamples* recorded_queries() const { return recorded_.get(); }
  const ModelConfig& config() const { return config_; }
  const SessionOptions& options() const { return options_; }
  const RuleBasedOptimizer& optimizer() const { return optimizer_; }

  /// Bytes currently GPU-resident for this session (window + local KV at
  /// deployed precision, across layers — summed over gang members when
  /// gang-backed).
  uint64_t GpuResidentBytes() const;

  /// Device-resident tokens (context window drawn from the reused prefix plus
  /// the local tail) — the sequence the gang shard map partitions.
  size_t TokensOnGpu() const;

 private:
  QueryContext MakeQueryContext(uint32_t layer) const;

  /// Re-sizes device reservations to the current residency: the single bound
  /// device's tracker normally, each gang member's shard share in gang mode.
  void RefreshDeviceReservations();

  ModelConfig config_;
  SessionOptions options_;
  Context* context_;
  size_t prefix_len_;
  SimEnvironment* env_;
  Device* device_;  ///< The fleet device this session reserves/charges on.
  KvCache local_;
  std::unique_ptr<QuerySamples> recorded_;
  RuleBasedOptimizer optimizer_;
  WindowCache window_;
  MemoryReservation gpu_reservation_;
  /// Context parallelism: non-null once BindGang succeeds. Reservations are
  /// per member (gang_reservations_[i] on member i's tracker) and replace
  /// gpu_reservation_, which stays at zero while gang-backed.
  std::shared_ptr<const DeviceGang> gang_;
  std::vector<MemoryReservation> gang_reservations_;
  uint64_t gang_ring_bytes_ = 0;
  bool detached_ = false;
};

}  // namespace alaya
