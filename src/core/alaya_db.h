// AlayaDB: the DB abstraction (Table 2) — manages all contexts (prompts, KV
// cache, vector indexes) and hands out Sessions:
//   DB.create_session(prompts) -> Session, truncated prompts
//   DB.import(prompts, kv_cache)
//   DB.store(session)
//   DB.store_async(session) -> context id, materialization off the hot path
//
// Callers serving live traffic sit one layer up, behind ServingEngine
// (src/server/serving_engine.h): an always-on driver thread that turns these
// primitives into a request lifecycle — non-blocking Submit returning a
// RequestHandle, continuous admission at step boundaries, per-step streaming,
// cancellation/deadlines, graceful Shutdown draining this DB's
// materialization queue. Prefix lookups that route create_session's reuse are
// trie-indexed (ContextStore::BestPrefixMatch — O(match length), independent
// of store size).
#pragma once

#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "src/common/thread_pool.h"
#include "src/core/context_store.h"
#include "src/core/session.h"
#include "src/core/tiered_context_store.h"

namespace alaya {

struct DbOptions {
  ModelConfig model = ModelConfig::Tiny();
  SessionOptions session;
  IndexBuildOptions index_build;
  /// Quantization: the one knob set (vector_codec.h). index_codec/rerank_k
  /// are copied into index_build.roar at construction; kv_codec rounds every
  /// materialized/imported context's KV onto the codec grid, which shrinks
  /// DeployedBytes (tier budgets, admission) to the codec's width.
  QuantOptions quant;
  /// Build RoarGraph per (layer, KV head) on Import/Store.
  bool build_fine_indices = true;
  /// Additionally build coarse block indices (used when the optimizer has GPU
  /// budget to burn; InfLLM-in-AlayaDB, Fig. 8).
  bool build_coarse_indices = false;
  CoarseIndexOptions coarse;
  /// Worker pool background materializations (StoreAsync) run on
  /// (nullptr -> ThreadPool::Global()).
  ThreadPool* materialize_pool = nullptr;
  /// Host → disk tiering (TieredContextStore): host budget, spill backing,
  /// durability and restart semantics. Disabled by default — the store then
  /// behaves exactly as before (grow-only, host-resident).
  TierOptions tier;
};

class AlayaDB {
 public:
  explicit AlayaDB(const DbOptions& options, SimEnvironment* env = nullptr);
  /// Drains every in-flight materialization before tearing the DB down.
  ~AlayaDB();

  AlayaDB(const AlayaDB&) = delete;
  AlayaDB& operator=(const AlayaDB&) = delete;

  /// Result of create_session: the session plus the non-reused (truncated)
  /// suffix of the prompt, which the inference engine must still prefill.
  struct SessionCreation {
    std::unique_ptr<Session> session;
    std::vector<int32_t> truncated_prompt;
    size_t reused_prefix = 0;
    uint64_t context_id = 0;  ///< 0 when no stored context matched.
    /// Pins the reused context for the session's lifetime: a concurrent
    /// ContextStore::Remove unregisters it but cannot free it underneath a
    /// running session. Keep this alive as long as `session` is.
    std::shared_ptr<Context> context_ref;
    /// Cross-device reuse: the matched context resided on a different fleet
    /// device than the session was placed on, so the device-resident window it
    /// contributes was pulled over the interconnect — these bytes were charged
    /// as a modeled transfer to the session's device clock, and the context's
    /// residency moved with it (last-user-wins). 0 on same-device reuse.
    uint64_t cross_device_transfer_bytes = 0;
  };

  /// DB.create_session(prompts): finds the stored context sharing the longest
  /// common prefix with `prompt` and returns a session reusing it. `device`
  /// places the session on one GPU of the environment's fleet (clamped);
  /// reusing a context warm on another device charges the modeled transfer of
  /// its window bytes to the target device and re-homes the context there.
  Result<SessionCreation> CreateSession(const std::vector<int32_t>& prompt,
                                        int device = 0);

  /// Rebinding for a preempted request resuming after suspension: constructs
  /// a fresh session over EXACTLY the context/prefix the suspended session
  /// had — deliberately no prefix re-matching (the store may have grown a
  /// longer match since; rebinding to it would shift the suspended KV's token
  /// positions) — ready for Session::AttachFromSuspend. `context_id` 0 means
  /// the original session had no reuse. A context spilled to disk while the
  /// request was suspended (dropping the pin during suspension makes it
  /// evictable — that is the point) is demand-paged back; a context removed
  /// outright fails honestly with kNotFound. Cross-device resume charges the
  /// same modeled window transfer and re-homing as CreateSession.
  struct SessionResume {
    std::unique_ptr<Session> session;
    std::shared_ptr<Context> context_ref;  ///< Re-pinned; null when no reuse.
    uint64_t cross_device_transfer_bytes = 0;
  };
  Result<SessionResume> ResumeSession(uint64_t context_id, size_t reused_prefix,
                                      int device = 0);

  /// DB.import(prompts, kv_cache): registers a precomputed context (and its
  /// optional prefill query samples for index training); builds indices.
  Result<uint64_t> Import(std::vector<int32_t> tokens, std::unique_ptr<KvCache> kv,
                          const QuerySamples* queries = nullptr);

  /// DB.store(session): materializes the session (reused prefix + local KV)
  /// into a new reusable context — the late-materialization endpoint (§7.2).
  /// `new_tokens` are the token ids the session appended
  /// (|new_tokens| == session->LocalTokens()). Synchronous: blocks the caller
  /// for the full KV clone + index build; the session stays usable.
  Result<uint64_t> Store(Session* session, std::span<const int32_t> new_tokens);

  /// DB.store_async(session): same materialization, off the caller's path.
  /// Detaches the session's local KV and recorded queries (the session is
  /// dead afterwards — the serving engine retires it immediately), reserves a
  /// context id, and schedules the KV clone + index build on the materialize
  /// pool. The returned id becomes visible to CreateSession/BestPrefixMatch
  /// only when the context is fully built (ContextStore::Publish); no lookup
  /// can ever observe it half-built. `context_ref` pins the session's reused
  /// context for the job's lifetime; when omitted it is re-pinned from the
  /// store (and if that fails — the context was already removed — the
  /// materialization runs inline before returning, the only safe fallback).
  ///
  /// Produces a context bit-identical to Store() on the same session state:
  /// both run the same materialization code; only the thread differs.
  Result<uint64_t> StoreAsync(Session* session, std::vector<int32_t> new_tokens,
                              std::shared_ptr<Context> context_ref = nullptr);

  /// Background-materialization accounting (pending counts queued + running
  /// jobs; completed/failed are lifetime totals; first_error is sticky).
  struct MaterializationStats {
    size_t pending = 0;
    size_t completed = 0;
    size_t failed = 0;
    Status first_error;
  };

  /// Blocks until every scheduled materialization has published (or failed);
  /// returns the sticky first failure. The barrier RunToCompletion and tests
  /// use to observe Store completion.
  Status Drain();
  MaterializationStats materialization_stats() const;

  /// Per-reservation failures: reserved context id -> why its materialization
  /// never published. Lets callers that recorded a StoreAsync ticket (e.g. the
  /// serving engine's RequestResult) map an aggregate failure count back to
  /// the specific store that was lost. Sticky for the DB's lifetime.
  std::map<uint64_t, Status> materialization_errors() const;

  ContextStore& contexts() { return contexts_; }
  const ContextStore& contexts() const { return contexts_; }
  SimEnvironment& env() { return *env_; }
  const DbOptions& options() const { return options_; }

  /// The tiering policy layer; nullptr when options.tier is disabled.
  TieredContextStore* tiers() { return tiers_.get(); }
  const TieredContextStore* tiers() const { return tiers_.get(); }

  /// Admission-time hint: a probe saw a spilled context match — warm it on
  /// the materialize pool so CreateSession finds it resident. No-op without
  /// tiering or for ids that are resident (or already loading).
  void PrefetchContext(uint64_t id) {
    if (tiers_ != nullptr) tiers_->PrefetchAsync(id);
  }

 private:
  Status BuildIndices(Context* context, const QuerySamples* queries,
                      const Context* base = nullptr, size_t base_prefix = 0);

  /// The one materialization path (Store, StoreAsync and its inline fallback
  /// all funnel here — the bit-identical guarantee): clones prefix + local KV,
  /// builds indices (extending from `reused`'s graphs when it fully covers
  /// the prefix), and attaches the host-memory reservation for the offloaded
  /// KV. `tokens` is the full composed sequence.
  Result<std::unique_ptr<Context>> MaterializeContext(
      std::vector<int32_t> tokens, const Context* reused, size_t reused_prefix,
      const KvCache& local_kv, const QuerySamples* queries);

  ThreadPool* MaterializePool() const;

  /// Folds one materialization's outcome into the counters/error map; the
  /// single bookkeeping point for the background job and the inline fallback.
  /// `was_queued` jobs also decrement the pending count and wake Drain().
  void RecordMaterializationOutcome(uint64_t id, const Status& status,
                                    bool was_queued);

  DbOptions options_;
  SimEnvironment* env_;
  ContextStore contexts_;
  /// Declared after contexts_ (destroyed first): its teardown waits for
  /// in-flight prefetches, which read the store.
  std::unique_ptr<TieredContextStore> tiers_;

  mutable std::mutex mat_mu_;
  std::condition_variable mat_cv_;
  size_t mat_pending_ = 0;
  size_t mat_completed_ = 0;
  size_t mat_failed_ = 0;
  Status mat_first_error_;
  std::map<uint64_t, Status> mat_errors_;  ///< Reserved id -> failure.
};

}  // namespace alaya
