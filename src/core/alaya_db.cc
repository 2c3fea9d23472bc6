#include "src/core/alaya_db.h"

#include <algorithm>

namespace alaya {

namespace {

/// Composes the stored token sequence: the reused prefix's ids followed by the
/// session-appended tail.
std::vector<int32_t> ComposeTokens(const Context* reused, size_t reused_prefix,
                                   std::span<const int32_t> new_tokens) {
  std::vector<int32_t> tokens;
  tokens.reserve(reused_prefix + new_tokens.size());
  if (reused != nullptr) {
    const auto& src = reused->tokens();
    tokens.insert(tokens.end(), src.begin(),
                  src.begin() + static_cast<long>(reused_prefix));
  }
  tokens.insert(tokens.end(), new_tokens.begin(), new_tokens.end());
  return tokens;
}

}  // namespace

AlayaDB::AlayaDB(const DbOptions& options, SimEnvironment* env)
    : options_(options), env_(env != nullptr ? env : &SimEnvironment::Global()) {
  // One quantization knob set: the index codec rides into every RoarGraph
  // build/extend/restore through index_build.roar (the tiered store below
  // captures the same options for its restore path).
  options_.index_build.roar.codec = options_.quant.index_codec;
  options_.index_build.roar.rerank_k = options_.quant.rerank_k;
  if (options_.tier.Enabled()) {
    tiers_ = std::make_unique<TieredContextStore>(
        &contexts_, env_, options_.model, options_.index_build.roar,
        options_.tier, MaterializePool());
    if (options_.tier.warm_start) {
      // Restart semantics: re-register every persisted context as a spilled
      // placeholder. Best-effort — a bad manifest is skipped, not fatal; the
      // sticky status is readable via tiers()->warm_start_status().
      (void)tiers_->WarmStart();
    }
  }
}

AlayaDB::~AlayaDB() {
  // In-flight jobs capture `this`; they must finish before members die.
  (void)Drain();
}

ThreadPool* AlayaDB::MaterializePool() const {
  return options_.materialize_pool != nullptr ? options_.materialize_pool
                                              : &ThreadPool::Global();
}

Result<AlayaDB::SessionCreation> AlayaDB::CreateSession(
    const std::vector<int32_t>& prompt, int device) {
  ALAYA_RETURN_IF_ERROR(options_.model.Validate());
  device = static_cast<int>(std::min<size_t>(
      static_cast<size_t>(std::max(device, 0)), env_->num_devices() - 1));
  SessionCreation out;
  ContextStore::PrefixMatch match = contexts_.BestPrefixMatch(prompt);
  if (match.spilled && match.matched > 0) {
    // The best prefix lives on disk: demand-page it back before the session
    // binds to it (ideally a no-op — the admission probe already prefetched
    // it on the materialize pool). A failed page-in degrades to a cold start
    // instead of failing the session.
    Result<std::shared_ptr<Context>> paged =
        tiers_ != nullptr ? tiers_->PageIn(match.id)
                          : Result<std::shared_ptr<Context>>(Status::NotFound(
                                "spilled context without a tier layer"));
    if (paged.ok()) {
      match.ref = std::move(paged.value());
      match.context = match.ref.get();
      match.spilled = false;
    } else {
      match = ContextStore::PrefixMatch{};
    }
  }
  Context* reused = nullptr;
  if (match.context != nullptr && match.matched > 0) {
    if (tiers_ != nullptr) tiers_->OnPrefixHit(match.id);
    reused = match.context;
    out.reused_prefix = match.matched;
    out.context_id = match.context->id();
    out.context_ref = match.ref;
    if (reused->resident_device() != device) {
      // The context is warm on another device: the window tokens the session
      // will keep device-resident have to cross the interconnect once, up
      // front. Charge the modeled transfer to the *target* device (it is the
      // one stalled waiting for the bytes) and move the context's residency
      // with the session — the affinity signal placement policies read.
      const WindowCache window(options_.session.window);
      const size_t window_tokens =
          std::min(window.Size(out.reused_prefix), out.reused_prefix);
      out.cross_device_transfer_bytes =
          static_cast<uint64_t>(window_tokens) * options_.model.KvBytesPerToken();
      Device& dst = env_->device(static_cast<size_t>(device));
      dst.clock().Advance(
          dst.cost_model().TransferSeconds(out.cross_device_transfer_bytes));
      reused->set_resident_device(device);
    }
  }
  out.truncated_prompt.assign(prompt.begin() + static_cast<long>(out.reused_prefix),
                              prompt.end());
  out.session = std::make_unique<Session>(options_.model, options_.session, reused,
                                          out.reused_prefix, env_, device);
  return out;
}

Result<AlayaDB::SessionResume> AlayaDB::ResumeSession(uint64_t context_id,
                                                      size_t reused_prefix,
                                                      int device) {
  ALAYA_RETURN_IF_ERROR(options_.model.Validate());
  device = static_cast<int>(std::min<size_t>(
      static_cast<size_t>(std::max(device, 0)), env_->num_devices() - 1));
  SessionResume out;
  Context* reused = nullptr;
  if (context_id != 0 && reused_prefix > 0) {
    out.context_ref = contexts_.FindShared(context_id);
    if (out.context_ref == nullptr && tiers_ != nullptr) {
      // The pin was dropped at suspension, so the tier layer was free to spill
      // the context to disk meanwhile. Page-in restores it bit-identically.
      Result<std::shared_ptr<Context>> paged = tiers_->PageIn(context_id);
      if (paged.ok()) out.context_ref = std::move(paged.value());
    }
    if (out.context_ref == nullptr) {
      // Removed outright while the request was suspended. The parked KV's
      // token positions are meaningless without the prefix; fail honestly
      // rather than silently recomputing (callers surface this as a lost
      // request, never as corrupted output).
      return Status::NotFound("suspended request's reused context is gone");
    }
    if (reused_prefix > out.context_ref->length()) {
      return Status::InvalidArgument(
          "suspended prefix exceeds the stored context");
    }
    reused = out.context_ref.get();
    if (tiers_ != nullptr) tiers_->OnPrefixHit(context_id);
    if (reused->resident_device() != device) {
      // Same cross-device charge as CreateSession: the resuming device pulls
      // the window bytes over the interconnect and the context re-homes.
      const WindowCache window(options_.session.window);
      const size_t window_tokens =
          std::min(window.Size(reused_prefix), reused_prefix);
      out.cross_device_transfer_bytes =
          static_cast<uint64_t>(window_tokens) * options_.model.KvBytesPerToken();
      Device& dst = env_->device(static_cast<size_t>(device));
      dst.clock().Advance(
          dst.cost_model().TransferSeconds(out.cross_device_transfer_bytes));
      reused->set_resident_device(device);
    }
  }
  out.session = std::make_unique<Session>(options_.model, options_.session, reused,
                                          reused == nullptr ? 0 : reused_prefix,
                                          env_, device);
  return out;
}

Status AlayaDB::BuildIndices(Context* context, const QuerySamples* queries,
                             const Context* base, size_t base_prefix) {
  if (options_.build_fine_indices) {
    ALAYA_RETURN_IF_ERROR(context->BuildFineIndices(options_.index_build, queries,
                                                    /*total_stats=*/nullptr, base,
                                                    base_prefix));
  }
  if (options_.build_coarse_indices) {
    CoarseIndexOptions copts = options_.coarse;
    copts.gpu_memory = &env_->gpu_memory();
    if (copts.bytes_per_token_kv == 0) {
      copts.bytes_per_token_kv =
          static_cast<uint32_t>(options_.model.KvBytesPerTokenLayer());
    }
    ALAYA_RETURN_IF_ERROR(context->BuildCoarseIndices(copts));
  }
  return Status::Ok();
}

Result<uint64_t> AlayaDB::Import(std::vector<int32_t> tokens,
                                 std::unique_ptr<KvCache> kv,
                                 const QuerySamples* queries) {
  if (kv == nullptr) return Status::InvalidArgument("null KV cache");
  if (kv->NumTokens() != tokens.size()) {
    return Status::InvalidArgument("token/KV length mismatch");
  }
  // Round the imported KV onto the deployment grid before anything reads it:
  // indices build over (and searches score against) exactly the keys the
  // deployed representation would hold.
  kv->QuantizeInPlace(options_.quant.kv_codec);
  const uint64_t kv_bytes = kv->DeployedBytes();
  auto context = std::make_unique<Context>(0, std::move(tokens), std::move(kv));
  ALAYA_RETURN_IF_ERROR(BuildIndices(context.get(), queries));
  // Offloaded KV lives in host DRAM; the context owns the reservation so the
  // bytes are returned when it is released (store/remove symmetry). Headroom
  // is made BEFORE the bytes attach, keeping the tracker peak under budget.
  if (tiers_ != nullptr) tiers_->EnsureHeadroom(kv_bytes);
  context->AttachHostReservation(MemoryReservation(&env_->host_memory(), kv_bytes));
  const uint64_t id = contexts_.Add(std::move(context));
  if (tiers_ != nullptr) tiers_->NotifyPublished(id);
  return id;
}

Result<std::unique_ptr<Context>> AlayaDB::MaterializeContext(
    std::vector<int32_t> tokens, const Context* reused, size_t reused_prefix,
    const KvCache& local_kv, const QuerySamples* queries) {
  // Clone KV: context prefix + local tail (materialization happens here, not
  // during decoding — late materialization, §7.2).
  auto kv = std::make_unique<KvCache>(options_.model);
  if (reused != nullptr) {
    ALAYA_RETURN_IF_ERROR(kv->AppendPrefixFrom(reused->kv(), reused_prefix));
  }
  ALAYA_RETURN_IF_ERROR(kv->AppendAllFrom(local_kv));
  // Quantize after the full sequence is assembled (prefix + tail share one
  // grid per head); a kFp32 kv_codec leaves the floats untouched.
  kv->QuantizeInPlace(options_.quant.kv_codec);

  const uint64_t kv_bytes = kv->DeployedBytes();
  auto context = std::make_unique<Context>(0, std::move(tokens), std::move(kv));
  // Decode-time queries recorded by the session are the ideal training set
  // (they are exactly the distribution future searches come from). When the
  // session fully reused `reused`, its graphs are extended with the suffix
  // instead of rebuilt (index sharing; see Context::BuildFineIndices).
  ALAYA_RETURN_IF_ERROR(BuildIndices(context.get(), queries, reused, reused_prefix));
  // Evict-before-attach: the host tracker's peak never exceeds the budget.
  if (tiers_ != nullptr) tiers_->EnsureHeadroom(kv_bytes);
  context->AttachHostReservation(MemoryReservation(&env_->host_memory(), kv_bytes));
  return context;
}

Result<uint64_t> AlayaDB::Store(Session* session,
                                std::span<const int32_t> new_tokens) {
  if (session == nullptr) return Status::InvalidArgument("null session");
  if (session->detached()) {
    return Status::FailedPrecondition("session was already detached for store");
  }
  if (new_tokens.size() != session->LocalTokens()) {
    return Status::InvalidArgument(
        "new_tokens must cover exactly the session-local tokens");
  }
  const Context* reused = session->reused_context();
  const size_t prefix = session->reused_prefix();
  Result<std::unique_ptr<Context>> built =
      MaterializeContext(ComposeTokens(reused, prefix, new_tokens), reused, prefix,
                         session->local_kv(), session->recorded_queries());
  ALAYA_RETURN_IF_ERROR(built.status());
  // The new context is warm where the session that produced it ran.
  built.value()->set_resident_device(session->device());
  const uint64_t id = contexts_.Add(std::move(built.value()));
  if (tiers_ != nullptr) tiers_->NotifyPublished(id);
  return id;
}

Result<uint64_t> AlayaDB::StoreAsync(Session* session,
                                     std::vector<int32_t> new_tokens,
                                     std::shared_ptr<Context> context_ref) {
  if (session == nullptr) return Status::InvalidArgument("null session");
  if (session->detached()) {
    return Status::FailedPrecondition("session was already detached for store");
  }
  if (new_tokens.size() != session->LocalTokens()) {
    return Status::InvalidArgument(
        "new_tokens must cover exactly the session-local tokens");
  }

  const int device = session->device();  // Residency of the future context.
  Session::DetachedState det = session->DetachForStore();
  std::vector<int32_t> tokens =
      ComposeTokens(det.reused_context, det.reused_prefix, new_tokens);

  // The background job reads the reused context's tokens/KV/graphs: it must
  // be pinned for the job's lifetime, not just the session's.
  if (det.reused_context != nullptr && context_ref.get() != det.reused_context) {
    context_ref = contexts_.FindShared(det.reused_context->id());
  }
  const uint64_t id = contexts_.ReservePending();

  if (det.reused_context != nullptr && context_ref == nullptr) {
    // The reused context is no longer in the store and the caller provided no
    // pin: there is no way to guarantee it outlives a background job, so
    // materialize inline (still publishing through the pending id, and still
    // counted — the completed/failed totals reconcile against store contents
    // regardless of which path a StoreAsync took).
    Result<std::unique_ptr<Context>> built =
        MaterializeContext(std::move(tokens), det.reused_context, det.reused_prefix,
                           det.local_kv, det.recorded.get());
    if (built.ok()) built.value()->set_resident_device(device);
    Status status = built.ok() ? contexts_.Publish(id, std::move(built.value()))
                               : built.status();
    if (!status.ok()) contexts_.AbortPending(id);
    if (status.ok() && tiers_ != nullptr) tiers_->NotifyPublished(id);
    RecordMaterializationOutcome(id, status, /*was_queued=*/false);
    ALAYA_RETURN_IF_ERROR(status);
    return id;
  }

  {
    std::lock_guard<std::mutex> lk(mat_mu_);
    ++mat_pending_;
  }
  // ThreadPool tasks must be copyable std::functions; park the moved-in state
  // behind a shared_ptr.
  struct Job {
    std::vector<int32_t> tokens;
    Session::DetachedState det;
    std::shared_ptr<Context> pin;
    uint64_t id;
    int device;
  };
  auto job = std::make_shared<Job>(Job{std::move(tokens), std::move(det),
                                       std::move(context_ref), id, device});
  MaterializePool()->Submit([this, job] {
    Status status;
    {
      Result<std::unique_ptr<Context>> built = MaterializeContext(
          std::move(job->tokens), job->det.reused_context, job->det.reused_prefix,
          job->det.local_kv, job->det.recorded.get());
      if (built.ok()) built.value()->set_resident_device(job->device);
      status = built.ok() ? contexts_.Publish(job->id, std::move(built.value()))
                          : built.status();
      if (!status.ok()) contexts_.AbortPending(job->id);
      // Tier bookkeeping (and durable write-through + budget enforcement)
      // runs here on the worker — never on the decode path — and before the
      // drain barrier lifts, so Drain() also covers the persist.
      if (status.ok() && tiers_ != nullptr) tiers_->NotifyPublished(job->id);
      // Drop the base-context pin (and, via this scope, any failed build)
      // BEFORE signalling completion: releasing the last pin frees host
      // bytes against the environment, and callers are free to tear the
      // environment down the moment the drain barrier lifts. The rest of the
      // job state (KV buffers, recorded queries) is plain heap memory, safe
      // to destroy whenever the worker gets to it.
      job->pin.reset();
    }
    RecordMaterializationOutcome(job->id, status, /*was_queued=*/true);
  });
  return id;
}

void AlayaDB::RecordMaterializationOutcome(uint64_t id, const Status& status,
                                           bool was_queued) {
  std::lock_guard<std::mutex> lk(mat_mu_);
  if (was_queued) --mat_pending_;
  if (status.ok()) {
    ++mat_completed_;
  } else {
    ++mat_failed_;
    if (mat_first_error_.ok()) mat_first_error_ = status;
    mat_errors_[id] = status;
  }
  if (was_queued) mat_cv_.notify_all();
}

Status AlayaDB::Drain() {
  std::unique_lock<std::mutex> lk(mat_mu_);
  mat_cv_.wait(lk, [&] { return mat_pending_ == 0; });
  return mat_first_error_;
}

AlayaDB::MaterializationStats AlayaDB::materialization_stats() const {
  std::lock_guard<std::mutex> lk(mat_mu_);
  MaterializationStats out;
  out.pending = mat_pending_;
  out.completed = mat_completed_;
  out.failed = mat_failed_;
  out.first_error = mat_first_error_;
  return out;
}

std::map<uint64_t, Status> AlayaDB::materialization_errors() const {
  std::lock_guard<std::mutex> lk(mat_mu_);
  return mat_errors_;
}

}  // namespace alaya
