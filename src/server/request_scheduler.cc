#include "src/server/request_scheduler.h"

#include <algorithm>
#include <limits>

namespace alaya {

namespace {

/// Adds (+1) or removes (-1) one request's reservation shares on `loads`: an
/// even byte split across the gang (integer division, remainder on the primary
/// so shares sum EXACTLY to the estimate), an even step-seconds split, and one
/// active session per member. With a single member this is bit-identical to
/// the historical single-device arithmetic (full bytes, full step seconds).
/// AdviseVictimsLocked runs the same function over its simulated loads, so the
/// advice subtraction can never drift from the real bookkeeping.
void ApplyReservationShares(std::vector<DeviceLoad>* loads,
                            const std::vector<int>& members,
                            const AdmissionEstimate& e, int sign) {
  const size_t k = members.size();
  if (k == 0) return;
  const uint64_t base = e.gpu_bytes / k;
  const uint64_t remainder = e.gpu_bytes % k;
  const double step_share = e.EffectiveStepSeconds() / static_cast<double>(k);
  for (size_t i = 0; i < k; ++i) {
    DeviceLoad& load = (*loads)[static_cast<size_t>(members[i])];
    const uint64_t bytes = base + (i == 0 ? remainder : 0);
    if (sign > 0) {
      load.reserved_bytes += bytes;
      load.reserved_step_seconds += step_share;
      ++load.active_sessions;
    } else {
      load.reserved_bytes -= bytes;
      load.reserved_step_seconds -= step_share;
      --load.active_sessions;
    }
  }
}

}  // namespace

RequestScheduler::RequestScheduler(const ModelConfig& model,
                                   const WindowConfig& window, const CostModel& cost,
                                   const RequestSchedulerOptions& options)
    : model_(model), window_(window), cost_(cost), options_(options) {
  // A zero cap would deadlock Admit; one session must always be able to run.
  options_.max_concurrent_sessions = std::max<size_t>(1, options_.max_concurrent_sessions);
  options_.prefill_chunk_tokens = std::max<size_t>(1, options_.prefill_chunk_tokens);
  options_.min_prefill_tokens = std::max<size_t>(1, options_.min_prefill_tokens);
  options_.devices = std::max<size_t>(1, options_.devices);
  options_.max_gang_size =
      std::clamp<size_t>(options_.max_gang_size, 1, options_.devices);
  placement_ = options_.placement != nullptr
                   ? options_.placement
                   : std::make_shared<const BestFitPlacement>();
  if (options_.max_gang_size > 1) {
    // Gang admission: requests that fit one device still place through the
    // inner policy; oversized ones span the smallest sufficient gang.
    placement_ =
        std::make_shared<const GangPlacement>(options_.max_gang_size, placement_);
  }
  // FairSharePolicy is a safe default: single-tenant, uniform-priority,
  // no-deadline traffic (everything that existed before policies) orders
  // exactly FIFO under it.
  policy_ = options_.policy != nullptr ? options_.policy
                                       : std::make_shared<const FairSharePolicy>();
  loads_.resize(options_.devices);
  for (size_t d = 0; d < loads_.size(); ++d) {
    loads_[d].device = static_cast<int>(d);
    loads_[d].budget_bytes = options_.gpu_budget_bytes;
  }
}

AdmissionEstimate RequestScheduler::Estimate(const ServingRequest& request,
                                             size_t reused_prefix) const {
  AdmissionEstimate e;
  const size_t total = request.prompt.size() + request.max_new_tokens;
  reused_prefix = std::min(reused_prefix, request.prompt.size());
  e.prefill_tokens = request.prompt.size() - reused_prefix;

  // Device-resident tokens at completion: the window over the full context,
  // plus whatever part of the session-local tail the window does not already
  // cover. The local tail is the prefilled prompt suffix plus every decoded
  // token — late materialization keeps all of it on device.
  const size_t local_tokens = e.prefill_tokens + request.max_new_tokens;
  const size_t window_tokens = window_.Size(total);
  const size_t gpu_tokens = std::min(total, std::max(window_tokens, local_tokens));
  e.gpu_bytes = static_cast<uint64_t>(gpu_tokens) * model_.KvBytesPerToken();

  // Per-step modeled device time at completion, mirroring the sparse path in
  // Session::AttendHead: one window+tail attention kernel per (layer, head)
  // plus the data-centric partial-state transfer.
  const double per_head =
      cost_.GpuAttentionSeconds(4.0 * static_cast<double>(gpu_tokens) *
                                model_.head_dim) +
      cost_.TransferSeconds((model_.head_dim + 2) * sizeof(float));
  e.step_gpu_seconds = per_head * model_.num_q_heads * model_.num_layers;

  // Prefill phase: each prompt token costs one full-attention pass over the
  // context visible at that point; project with the final prompt length as the
  // (tight for long prompts) upper bound. Per engine step the session pushes
  // one chunk, so that is its per-step contribution while prefilling.
  if (e.prefill_tokens > 0) {
    const double per_token =
        cost_.GpuAttentionSeconds(4.0 * static_cast<double>(request.prompt.size()) *
                                  model_.head_dim) *
        model_.num_q_heads * model_.num_layers;
    // Admission reserves at chunk granularity: a per-step token budget caps
    // the largest chunk a step can actually grant, so the reservation (and
    // the TPOT SLO check built on it) reflects the real per-step cost, not
    // the unthrottled chunk size.
    size_t chunk_cap = options_.prefill_chunk_tokens;
    if (options_.step_token_budget > 0) {
      chunk_cap = std::min(chunk_cap, options_.step_token_budget);
    }
    const size_t chunk = std::min(chunk_cap, e.prefill_tokens);
    e.prefill_step_gpu_seconds = per_token * static_cast<double>(chunk);
    e.prefill_total_gpu_seconds = per_token * static_cast<double>(e.prefill_tokens);
  }
  // The fair-share cost of admitting this request: everything it will run.
  e.total_gpu_seconds = e.prefill_total_gpu_seconds +
                        e.step_gpu_seconds * static_cast<double>(request.max_new_tokens);
  return e;
}

AdmissionEstimate RequestScheduler::EstimateResumed(const ServingRequest& request,
                                                    size_t reused_prefix,
                                                    size_t prefill_pos,
                                                    size_t steps_done) const {
  // Full completion footprint: the detached KV (prefilled suffix + decoded
  // tail so far) returns to the device in full, so gpu_bytes and the per-step
  // decode cost are unchanged from the original estimate.
  AdmissionEstimate e = Estimate(request, reused_prefix);
  prefill_pos = std::min(prefill_pos, request.prompt.size());
  const size_t remaining_prefill = request.prompt.size() - prefill_pos;
  if (e.prefill_tokens > 0) {
    const double per_token =
        e.prefill_total_gpu_seconds / static_cast<double>(e.prefill_tokens);
    e.prefill_total_gpu_seconds = per_token * static_cast<double>(remaining_prefill);
    if (remaining_prefill == 0) e.prefill_step_gpu_seconds = 0;
  }
  e.prefill_tokens = remaining_prefill;
  const size_t steps_left =
      request.max_new_tokens - std::min(steps_done, request.max_new_tokens);
  // Only remaining work counts toward fair-share: the finished slice was
  // already charged when the request first admitted.
  e.total_gpu_seconds =
      e.prefill_total_gpu_seconds + e.step_gpu_seconds * static_cast<double>(steps_left);
  return e;
}

RequestScheduler::StepPlan RequestScheduler::PlanStep(
    size_t decoding_sessions, std::span<const size_t> prefill_remaining) const {
  StepPlan plan;
  plan.decode_tokens = decoding_sessions;  // Decode always runs in full.
  size_t left = options_.step_token_budget == 0
                    ? std::numeric_limits<size_t>::max()
                    : options_.step_token_budget;
  left -= std::min(left, decoding_sessions);
  plan.chunks.reserve(prefill_remaining.size());
  for (size_t i = 0; i < prefill_remaining.size(); ++i) {
    const size_t need = prefill_remaining[i];
    size_t grant = std::min({options_.prefill_chunk_tokens, need, left});
    if (i == 0 && need > 0) {
      // Forward-progress floor: even a decode-saturated budget funds the head
      // prefilling session, or prefill would livelock behind a full batch.
      const size_t floor =
          std::min({need, options_.prefill_chunk_tokens, options_.min_prefill_tokens});
      grant = std::max(grant, floor);
    }
    left -= std::min(left, grant);
    plan.chunks.push_back(grant);
  }
  plan.budget_left = left;
  return plan;
}

size_t RequestScheduler::GrantChunk(size_t remaining_need, size_t* budget_left) const {
  // Mid-step admissions draw only from the step's unspent budget — no floor;
  // a request that gets nothing now is funded at the next step's PlanStep.
  const size_t grant =
      std::min({options_.prefill_chunk_tokens, remaining_need, *budget_left});
  *budget_left -= grant;
  return grant;
}

PlacementDecision RequestScheduler::PlaceLocked(const Admitted& item) const {
  PlacementRequest preq;
  preq.gpu_bytes = item.estimate.gpu_bytes;
  preq.step_seconds = item.estimate.EffectiveStepSeconds();
  preq.affinity_device = item.affinity_device;  // Probed once, at Enqueue.
  return placement_->Place(preq, loads_, options_.tpot_slo_seconds);
}

std::chrono::steady_clock::time_point RequestScheduler::Admitted::Deadline() const {
  if (request.deadline_seconds <= 0) {
    return std::chrono::steady_clock::time_point::max();
  }
  // Converting double seconds into the clock's integer duration is UB once it
  // overflows (~292 years in nanoseconds); a caller passing an astronomically
  // large budget means "no deadline", so treat it as one instead of wrapping
  // into the past and expiring instantly. Half the representable range leaves
  // headroom for the addition to submit_time.
  using ClockDuration = std::chrono::steady_clock::duration;
  const double ticks = request.deadline_seconds *
                       static_cast<double>(ClockDuration::period::den) /
                       static_cast<double>(ClockDuration::period::num);
  if (ticks >= static_cast<double>(std::numeric_limits<ClockDuration::rep>::max() / 2)) {
    return std::chrono::steady_clock::time_point::max();
  }
  return submit_time + std::chrono::duration_cast<ClockDuration>(
                           std::chrono::duration<double>(request.deadline_seconds));
}

RequestScheduler::EnqueuePreflight RequestScheduler::Preflight(
    const ServingRequest& request) const {
  EnqueuePreflight pre;
  RequestSchedulerOptions::PrefixProbeResult probe;
  if (options_.placement_probe != nullptr) {
    probe = options_.placement_probe(request.prompt);
  }
  pre.estimate = Estimate(request, probe.matched);
  pre.affinity_device = probe.affinity_device;
  return pre;
}

Result<uint64_t> RequestScheduler::Enqueue(ServingRequest request) {
  const EnqueuePreflight pre = Preflight(request);
  return Enqueue(std::move(request), pre);
}

Result<uint64_t> RequestScheduler::Enqueue(ServingRequest request,
                                           const EnqueuePreflight& pre) {
  if (request.fill_step == nullptr) {
    return Status::InvalidArgument("request has no fill_step");
  }
  if (request.max_new_tokens == 0) {
    return Status::InvalidArgument("max_new_tokens must be positive");
  }
  const AdmissionEstimate& e = pre.estimate;
  std::lock_guard<std::mutex> lk(mu_);
  // Permanent-rejection gate. Budgets are per-device and uniform, so without
  // gangs exceeding one budget means exceeding every device's; with gangs the
  // footprint shards across up to max_gang_size members, and only a request
  // that outgrows even the largest permitted gang's combined budget can never
  // be placed.
  const uint64_t capacity_bytes =
      options_.gpu_budget_bytes * static_cast<uint64_t>(options_.max_gang_size);
  if (options_.gpu_budget_bytes > 0 && e.gpu_bytes > capacity_bytes) {
    return Status::NeverFits(
        "request footprint (prefilled prompt suffix + window + decoded tail) "
        "exceeds the per-device GPU budget (and the largest permitted device "
        "gang) even running alone");
  }
  if (pending_.size() >= options_.max_queue_depth) {
    // Retryable: the backlog drains as sessions finish.
    return Status::BacklogFull("admission queue is full");
  }
  Admitted item;
  item.id = next_id_++;
  item.priority = request.priority;
  item.tenant_id = request.tenant_id;
  item.request = std::move(request);
  item.estimate = e;
  item.affinity_device = pre.affinity_device;
  item.submit_time = std::chrono::steady_clock::now();
  const uint64_t id = item.id;
  EnsureTenantLocked(item.tenant_id);
  pending_.push_back(std::move(item));
  return id;
}

void RequestScheduler::EnsureTenantLocked(uint64_t tenant_id) {
  auto [it, inserted] = ledger_.try_emplace(tenant_id);
  if (inserted) {
    const auto w = options_.tenant_weights.find(tenant_id);
    it->second.weight =
        (w != options_.tenant_weights.end() && w->second > 0) ? w->second : 1.0;
  }
}

void RequestScheduler::ResetDeficitIfDrainedLocked(uint64_t tenant_id) {
  for (const Admitted& p : pending_) {
    if (p.tenant_id == tenant_id) return;
  }
  auto it = ledger_.find(tenant_id);
  if (it != ledger_.end()) it->second.deficit_seconds = 0;
}

QueuedRequestView RequestScheduler::ViewOfLocked(const Admitted& item) const {
  QueuedRequestView v;
  v.id = item.id;
  v.priority = item.priority;
  v.tenant_id = item.tenant_id;
  v.deadline = item.Deadline();
  v.cost_seconds = item.estimate.total_gpu_seconds;
  v.resume = item.resume;
  return v;
}

void RequestScheduler::Requeue(Admitted item) {
  std::lock_guard<std::mutex> lk(mu_);
  EnsureTenantLocked(item.tenant_id);
  pending_.push_back(std::move(item));
}

void RequestScheduler::AdviseVictimsLocked(const Admitted& blocked,
                                           std::vector<uint64_t>* victims) const {
  std::vector<RunningRequestView> running;
  running.reserve(active_.size());
  for (const auto& [id, entry] : active_) {
    RunningRequestView r;
    r.id = id;
    r.priority = entry.priority;
    r.tenant_id = entry.tenant_id;
    r.device = entry.device;
    r.gpu_bytes = entry.estimate.gpu_bytes;
    r.step_seconds = entry.estimate.EffectiveStepSeconds();
    r.remaining_seconds =
        std::max(0.0, entry.estimate.total_gpu_seconds - entry.consumed_seconds);
    r.deadline = entry.deadline;
    r.admit_order = entry.admit_order;
    running.push_back(r);
  }
  const std::vector<uint64_t> ranked =
      policy_->RankVictims(ViewOfLocked(blocked), running);
  if (ranked.empty()) return;

  // Simulate suspending a growing prefix of the ranking until the blocked
  // request would both have a slot and place on some device. Advice only:
  // nothing is released here — capacity frees when the engine actually
  // suspends the victims and calls back.
  std::vector<DeviceLoad> sim = loads_;
  size_t sim_active = active_.size();
  PlacementRequest preq;
  preq.gpu_bytes = blocked.estimate.gpu_bytes;
  preq.step_seconds = blocked.estimate.EffectiveStepSeconds();
  preq.affinity_device = blocked.affinity_device;
  std::vector<uint64_t> chosen;
  for (const uint64_t vid : ranked) {
    const auto it = active_.find(vid);
    if (it == active_.end()) continue;
    ApplyReservationShares(&sim, it->second.gang, it->second.estimate, -1);
    --sim_active;
    chosen.push_back(vid);
    if (sim_active < options_.max_concurrent_sessions &&
        placement_->Place(preq, sim, options_.tpot_slo_seconds).placed()) {
      victims->insert(victims->end(), chosen.begin(), chosen.end());
      return;
    }
  }
  // Even suspending every ranked victim would not make room: advise nothing
  // (the blocked request waits for ordinary drain instead).
}

std::vector<RequestScheduler::Admitted> RequestScheduler::Admit(
    std::vector<uint64_t>* preempt_victims) {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<Admitted> out;
  const auto now = std::chrono::steady_clock::now();
  while (!pending_.empty()) {
    // Policy views in arrival order (index 0 = FIFO head), rebuilt per pick:
    // each admission mutates the ledger the next pick depends on. Queue depth
    // is capped (max_queue_depth), so the rebuild is cheap.
    std::vector<QueuedRequestView> views;
    views.reserve(pending_.size());
    for (const Admitted& p : pending_) views.push_back(ViewOfLocked(p));
    const size_t pick = policy_->PickNext(views, ledger_);
    if (pick >= pending_.size()) break;
    Admitted& cand = pending_[pick];

    // Expired-at-pick sweep: a doomed request must not absorb a deficit grant
    // or block the queue — set it aside (TakeExpired) and re-pick. This also
    // covers expiries the step-boundary RemoveQueuedExpired sweep has not
    // seen yet because the policy reordered the queue.
    if (cand.request.deadline_seconds > 0 && cand.Deadline() <= now) {
      const uint64_t tenant = cand.tenant_id;
      expired_.push_back(std::move(cand));
      pending_.erase(pending_.begin() + static_cast<long>(pick));
      ResetDeficitIfDrainedLocked(tenant);
      continue;
    }

    const bool slots_full = active_.size() >= options_.max_concurrent_sessions;
    PlacementDecision placed;
    if (!slots_full) {
      // Enqueue guarantees every queued request fits an idle device, and the
      // placement policy must place a feasible request on an all-idle fleet,
      // so the pick is always admissible once the system drains: no
      // starvation.
      placed = PlaceLocked(cand);
    }
    if (slots_full || !placed.placed()) {
      if (!slots_full && placed.never_fits) {
        // Permanently unplaceable (a custom policy's verdict): remove it so
        // it cannot block the queue forever — rejection, not bypass.
        const uint64_t tenant = cand.tenant_id;
        never_fits_.push_back(std::move(cand));
        pending_.erase(pending_.begin() + static_cast<long>(pick));
        ResetDeficitIfDrainedLocked(tenant);
        continue;
      }
      // Blocked pick: optionally advise preemption, then stop — no bypass
      // past the policy's choice (admission order stays deterministic).
      if (preempt_victims != nullptr) {
        AdviseVictimsLocked(cand, preempt_victims);
      }
      break;
    }
    policy_->OnAdmitted(views, pick, &ledger_);
    cand.device = placed.device;
    cand.gang = placed.gang() ? placed.gang_members
                              : std::vector<int>{placed.device};
    ApplyReservationLocked(cand.gang, cand.estimate, +1);
    ActiveEntry entry;
    entry.estimate = cand.estimate;
    entry.device = placed.device;
    entry.gang = cand.gang;
    entry.priority = cand.priority;
    entry.tenant_id = cand.tenant_id;
    entry.deadline = cand.Deadline();
    entry.admit_order = admit_seq_++;
    active_[cand.id] = std::move(entry);
    const uint64_t tenant = cand.tenant_id;
    out.push_back(std::move(cand));
    pending_.erase(pending_.begin() + static_cast<long>(pick));
    ResetDeficitIfDrainedLocked(tenant);
  }
  return out;
}

void RequestScheduler::UpdateReservation(uint64_t id, const AdmissionEstimate& actual) {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = active_.find(id);
  if (it == active_.end()) return;
  // Swap the shares atomically under the lock; the gang membership is fixed
  // for the life of the admission, only the footprint estimate moves.
  ApplyReservationLocked(it->second.gang, it->second.estimate, -1);
  it->second.estimate = actual;
  ApplyReservationLocked(it->second.gang, actual, +1);
}

void RequestScheduler::RecordProgress(uint64_t id, double modeled_seconds) {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = active_.find(id);
  if (it == active_.end()) return;
  it->second.consumed_seconds += modeled_seconds;
}

std::vector<RequestScheduler::Admitted> RequestScheduler::TakeNeverFits() {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<Admitted> out;
  out.swap(never_fits_);
  return out;
}

std::vector<RequestScheduler::Admitted> RequestScheduler::TakeExpired() {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<Admitted> out;
  out.swap(expired_);
  return out;
}

TenantLedger RequestScheduler::TenantLedgerSnapshot() const {
  std::lock_guard<std::mutex> lk(mu_);
  return ledger_;
}

std::optional<RequestScheduler::Admitted> RequestScheduler::RemoveQueued(
    uint64_t id, bool include_resume) {
  std::lock_guard<std::mutex> lk(mu_);
  for (auto it = pending_.begin(); it != pending_.end(); ++it) {
    if (it->id == id) {
      if (it->resume && !include_resume) return std::nullopt;
      Admitted out = std::move(*it);
      pending_.erase(it);
      return out;
    }
  }
  return std::nullopt;
}

std::vector<RequestScheduler::Admitted> RequestScheduler::RemoveQueuedExpired(
    std::chrono::steady_clock::time_point now) {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<Admitted> out;
  for (auto it = pending_.begin(); it != pending_.end();) {
    if (it->request.deadline_seconds > 0 && it->Deadline() <= now) {
      out.push_back(std::move(*it));
      it = pending_.erase(it);
    } else {
      ++it;
    }
  }
  return out;
}

std::vector<RequestScheduler::Admitted> RequestScheduler::TakeAllQueued() {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<Admitted> out(std::make_move_iterator(pending_.begin()),
                            std::make_move_iterator(pending_.end()));
  pending_.clear();
  return out;
}

void RequestScheduler::Release(uint64_t id) {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = active_.find(id);
  if (it == active_.end()) return;
  ApplyReservationLocked(it->second.gang, it->second.estimate, -1);
  active_.erase(it);
}

void RequestScheduler::ApplyReservationLocked(const std::vector<int>& members,
                                              const AdmissionEstimate& estimate,
                                              int sign) {
  ApplyReservationShares(&loads_, members, estimate, sign);
}

size_t RequestScheduler::queued() const {
  std::lock_guard<std::mutex> lk(mu_);
  return pending_.size();
}

size_t RequestScheduler::active() const {
  std::lock_guard<std::mutex> lk(mu_);
  return active_.size();
}

uint64_t RequestScheduler::reserved_gpu_bytes() const {
  std::lock_guard<std::mutex> lk(mu_);
  uint64_t total = 0;
  for (const DeviceLoad& load : loads_) total += load.reserved_bytes;
  return total;
}

double RequestScheduler::reserved_step_seconds() const {
  std::lock_guard<std::mutex> lk(mu_);
  double total = 0;
  for (const DeviceLoad& load : loads_) total += load.reserved_step_seconds;
  return total;
}

std::vector<DeviceLoad> RequestScheduler::DeviceLoads() const {
  std::lock_guard<std::mutex> lk(mu_);
  return loads_;
}

}  // namespace alaya
