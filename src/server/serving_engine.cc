#include "src/server/serving_engine.h"

#include <algorithm>
#include <span>
#include <string>

#include "src/common/rng.h"
#include "src/device/gang.h"

namespace alaya {

namespace {

/// Defaults the scheduler's probe to the DB's context store: admission then
/// projects prefill work from what is actually stored, and placement sees
/// which device holds the matched context (affinity).
ServingEngineOptions WithDefaults(AlayaDB* db, ServingEngineOptions o) {
  if (o.scheduler.placement_probe == nullptr) {
    // The Submit fast path: matched length + affinity device from one walk.
    // Hitting a spilled context here is the prefetch hook: the page-in runs
    // on the materialize pool while the request waits for admission, so by
    // the time CreateSession needs the context it is (usually) resident.
    o.scheduler.placement_probe = [db](std::span<const int32_t> tokens) {
      const ContextStore::PrefixProbe probe = db->contexts().BestPrefixProbe(tokens);
      if (probe.spilled) db->PrefetchContext(probe.context_id);
      return RequestSchedulerOptions::PrefixProbeResult{probe.matched, probe.device,
                                                        probe.spilled};
    };
  }
  return o;
}

/// Names where a request taken off the scheduler queue was waiting, for its
/// terminal status message.
std::string QueuedPhase(const RequestScheduler::Admitted& adm) {
  return adm.resume ? "while suspended" : "before admission";
}

}  // namespace

int32_t SyntheticStoredTokenId(uint64_t request_id, size_t step) {
  const uint64_t h = Mix64(Mix64(request_id) ^ static_cast<uint64_t>(step));
  return static_cast<int32_t>(UINT32_C(0x40000000) |
                              (static_cast<uint32_t>(h >> 33) & UINT32_C(0x3FFFFFFF)));
}

const RequestResult* RequestHandle::Wait() const {
  if (ticket_ == nullptr) return nullptr;
  std::unique_lock<std::mutex> lk(ticket_->mu);
  ticket_->cv.wait(lk, [&] { return ticket_->done; });
  // The ticket owns the result: the pointer survives result-map eviction for
  // as long as the caller holds the handle.
  return ticket_->result.get();
}

const RequestResult* RequestHandle::TryWait() const {
  if (ticket_ == nullptr) return nullptr;
  std::lock_guard<std::mutex> lk(ticket_->mu);
  return ticket_->done ? ticket_->result.get() : nullptr;
}

bool RequestHandle::Cancel() const {
  if (engine_ == nullptr || ticket_ == nullptr) return false;
  return engine_->CancelRequest(ticket_);
}

ServingEngine::ServingEngine(AlayaDB* db, const ServingEngineOptions& options)
    : db_(db),
      options_(WithDefaults(db, options)),
      scheduler_(db->options().model, db->options().session.window,
                 db->env().cost_model(), options_.scheduler),
      pool_(options_.pool != nullptr ? options_.pool : &ThreadPool::Global()) {
  // The fleet must exist before any placement decision can bind a session to
  // it. Grow-only and pointer-stable, so sessions of other engines sharing
  // this environment are unaffected.
  const size_t devices = scheduler_.options().devices;  // Clamped to >= 1.
  db_->env().devices().EnsureAtLeast(devices);
  device_stats_.resize(devices);
  for (size_t d = 0; d < device_stats_.size(); ++d) {
    device_stats_[d].device = static_cast<int>(d);
  }
}

ServingEngine::~ServingEngine() { (void)Abort(); }

Status ServingEngine::Start() {
  std::lock_guard<std::mutex> lk(life_mu_);
  if (state_ == State::kRunning || state_ == State::kDraining) {
    return Status::FailedPrecondition("engine is already running");
  }
  if (driver_.joinable()) driver_.join();  // Reap the previous run's thread.
  state_ = State::kRunning;
  stop_mode_ = StopMode::kNone;
  run_status_ = Status::Ok();
  run_timer_.Restart();
  driver_ = std::thread(&ServingEngine::DriverLoop, this);
  return Status::Ok();
}

Status ServingEngine::JoinStoppedDriverLocked() {
  if (driver_.joinable()) driver_.join();
  return run_status_;
}

Status ServingEngine::Shutdown() {
  std::unique_lock<std::mutex> lk(life_mu_);
  if (state_ == State::kCreated) return run_status_;
  if (state_ == State::kStopped) return JoinStoppedDriverLocked();
  if (stop_mode_ == StopMode::kNone) stop_mode_ = StopMode::kDrain;
  state_ = State::kDraining;
  life_cv_.notify_all();
  life_cv_.wait(lk, [&] { return state_ == State::kStopped; });
  return JoinStoppedDriverLocked();
}

Status ServingEngine::Abort() {
  std::unique_lock<std::mutex> lk(life_mu_);
  if (state_ == State::kCreated) return run_status_;
  if (state_ == State::kStopped) return JoinStoppedDriverLocked();
  stop_mode_ = StopMode::kAbort;  // Escalates a graceful drain in progress.
  state_ = State::kDraining;
  life_cv_.notify_all();
  life_cv_.wait(lk, [&] { return state_ == State::kStopped; });
  return JoinStoppedDriverLocked();
}

void ServingEngine::WaitIdle() {
  std::unique_lock<std::mutex> lk(life_mu_);
  life_cv_.wait(lk, [&] {
    if (state_ != State::kRunning && state_ != State::kDraining) return true;
    // Order matters: queued==0 proves any cancel/expiry dequeue already
    // happened, so a zero finalizing_ read afterwards proves its result
    // publication completed too — idle implies every result is visible.
    return scheduler_.queued() == 0 && scheduler_.active() == 0 &&
           finalizing_.load() == 0;
  });
}

ServingEngine::State ServingEngine::state() const {
  std::lock_guard<std::mutex> lk(life_mu_);
  return state_;
}

Status ServingEngine::RunToCompletion() {
  ALAYA_RETURN_IF_ERROR(Start());
  WaitIdle();
  return Shutdown();
}

Result<RequestHandle> ServingEngine::Submit(ServingRequest request) {
  auto ticket = std::make_shared<RequestTicket>();
  // The store probe (admission estimate + placement affinity) is an
  // O(prompt-length) trie walk — run it before taking mu_ so concurrent
  // submitters never stall the driver's finalize/snapshot paths on it.
  const RequestScheduler::EnqueuePreflight pre = scheduler_.Preflight(request);
  {
    // Enqueue and ticket registration are one atomic step under mu_: any
    // terminal result is published through FinalizeResult, which also takes
    // mu_, so the driver cannot finalize this request before its ticket
    // exists — the invariant that makes the result map safely evictable
    // (there is never a finalized request whose ticket will register later).
    std::lock_guard<std::mutex> lk(mu_);
    Result<uint64_t> id = scheduler_.Enqueue(std::move(request), pre);
    if (!id.ok()) {
      rejected_.fetch_add(1);
      return id.status();
    }
    submitted_.fetch_add(1);
    ticket->id = id.value();
    tickets_[ticket->id] = ticket;
  }
  {
    // Wake an idle driver. Notify under life_mu_ so a waiter between its
    // predicate check and its sleep cannot miss the signal.
    std::lock_guard<std::mutex> lk(life_mu_);
    life_cv_.notify_all();
  }
  return RequestHandle(this, std::move(ticket));
}

std::shared_ptr<RequestTicket> ServingEngine::FindTicket(uint64_t id) {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = tickets_.find(id);
  return it == tickets_.end() ? nullptr : it->second;
}

bool ServingEngine::CancelRequest(const std::shared_ptr<RequestTicket>& ticket) {
  {
    std::lock_guard<std::mutex> lk(ticket->mu);
    if (ticket->done) return false;
  }
  ticket->cancel_requested.store(true);
  // Still queued? Pull it out and finalize right here — effective even on a
  // stopped engine, and the driver can never see the request again (exactly
  // one of RemoveQueued/Admit wins the queue entry). Otherwise the request is
  // admitted (or mid-admission) and the driver observes the flag at the next
  // step boundary.
  finalizing_.fetch_add(1);  // Covers the dequeue-to-publication window.
  if (auto adm = scheduler_.RemoveQueued(ticket->id)) {
    FinalizeUnadmitted(std::move(*adm),
                       Status::Cancelled("cancelled before admission"));
  }
  finalizing_.fetch_sub(1);
  // Notify on BOTH paths: the driver may need to observe the flag, and the
  // dequeue above may have just made the engine idle — a WaitIdle waiter
  // whose predicate became true must get to re-evaluate it.
  std::lock_guard<std::mutex> lk(life_mu_);
  life_cv_.notify_all();
  return true;
}

void ServingEngine::FinalizeResult(uint64_t id, RequestResult&& result) {
  result.id = id;
  auto stored = std::make_shared<const RequestResult>(std::move(result));
  std::shared_ptr<RequestTicket> ticket;
  {
    std::lock_guard<std::mutex> lk(mu_);
    results_.insert_or_assign(id, stored);
    ++snapshot_.completed;
    if (stored->status.IsCancelled()) ++snapshot_.cancelled;
    if (stored->status.IsDeadlineExceeded()) ++snapshot_.deadline_exceeded;
    // Per-class / per-tenant terminal accounting. Results are self-describing
    // (priority/tenant stamped at admission or from the queue entry), so this
    // is the single point every finalize path funnels through.
    ClassServingStats& cs = class_stats_[stored->priority];
    cs.priority = stored->priority;
    ++cs.completed;
    if (stored->ttft_seconds > 0) {
      // Streaming quantiles: every completed request contributes (no first-N
      // cap), at O(1) memory per class.
      ++cs.ttft_count;
      cs.ttft_p50.Add(stored->ttft_seconds);
      cs.ttft_p99.Add(stored->ttft_seconds);
    }
    TenantServingStats& ts = tenant_stats_[stored->tenant_id];
    ts.tenant_id = stored->tenant_id;
    ++ts.completed;
    auto t = tickets_.find(id);
    if (t != tickets_.end()) {
      ticket = std::move(t->second);
      tickets_.erase(t);
    }
    // Bounded retention: evict the oldest terminal results beyond the cap.
    // Tickets co-own their results, so outstanding handles are unaffected —
    // only the id-keyed result() lookup forgets ancient requests.
    if (options_.result_retention > 0) {
      while (results_.size() > options_.result_retention) {
        results_.erase(results_.begin());
      }
    }
  }
  if (ticket != nullptr) {
    std::lock_guard<std::mutex> lk(ticket->mu);
    ticket->result = std::move(stored);
    ticket->done = true;
    ticket->cv.notify_all();
  }
}

void ServingEngine::FinalizeUnadmitted(RequestScheduler::Admitted&& adm,
                                       Status status) {
  RequestResult r;
  r.status = std::move(status);
  r.priority = adm.priority;
  r.tenant_id = adm.tenant_id;
  FinalizeResult(adm.id, std::move(r));
}

void ServingEngine::FinalizeDequeued(RequestScheduler::Admitted&& adm,
                                     Status status) {
  if (adm.resume) {
    FinalizeSuspended(adm.id, std::move(status));
  } else {
    FinalizeUnadmitted(std::move(adm), std::move(status));
  }
}

void ServingEngine::FinalizeSuspended(uint64_t id, Status status) {
  auto it = suspended_.find(id);
  if (it == suspended_.end()) return;
  std::unique_ptr<ActiveSession> a = std::move(it->second);
  suspended_.erase(it);
  // The parked KV dies with the request; no scheduler Release — a suspended
  // request holds no reservation (its slot was freed at suspension).
  FreeParkedKv(a.get());
  a->result.status = std::move(status);
  FinalizeResult(a->id, std::move(a->result));
}

void ServingEngine::FreeParkedKv(ActiveSession* a) {
  if (a->parked_key != 0) db_->tiers()->DropParkedKv(a->parked_key);
  a->parked_key = 0;
  a->suspended_kv.reset();
  a->host_kv_reservation.Release();
}

bool ServingEngine::SuspendVictim(uint64_t id) {
  auto it = std::find_if(active_.begin(), active_.end(),
                         [id](const auto& a) { return a->id == id; });
  if (it == active_.end()) return false;
  ActiveSession* a = it->get();
  // A failed/terminal session is already on its way out — retiring it frees
  // the slot anyway; suspending it would strand a dead request in suspended_.
  if (a->failed || a->Terminal() || a->session == nullptr) return false;

  // Detach the KV and decode state. step/prefill_pos stay on the parked
  // ActiveSession — with pure fill callbacks they are the full generator
  // state, which is what makes the resumed decode bit-identical.
  const uint64_t ring_bytes = a->session->gang_ring_transfer_bytes();
  Session::SuspendedState state = a->session->DetachForSuspend();
  const uint64_t kv_bytes = state.kv_bytes;
  // The offload is a modeled device→host transfer on the victim's device (it
  // executes the copy-out), and the parked bytes live in host DRAM until
  // resume — unless they would push host usage past the tier budget, in
  // which case the tier store parks them on disk. A failed park falls back to
  // host DRAM: spilling is an optimization, never a correctness gate.
  Device& dev = db_->env().device(static_cast<size_t>(a->device));
  dev.clock().Advance(dev.cost_model().TransferSeconds(kv_bytes));
  a->suspended_kv.emplace(std::move(state));
  TieredContextStore* tiers = db_->tiers();
  if (tiers != nullptr && tiers->HostOverBudget(kv_bytes)) {
    a->parked_key = tiers->ParkKv(&a->suspended_kv->base.local_kv).ValueOr(0);
  }
  if (a->parked_key == 0) {
    a->host_kv_reservation =
        MemoryReservation(&db_->env().host_memory(), kv_bytes);
  }
  a->session.reset();
  // Drop the context pin: while the request waits, the tier layer is free to
  // spill (and later page back in) the context — resume re-pins it.
  a->context_ref.reset();
  a->state = RequestState::kSuspended;
  ++a->result.preemptions;
  {
    std::lock_guard<std::mutex> lk(mu_);
    ++snapshot_.preemptions;
    snapshot_.gang_ring_transfer_bytes += ring_bytes;
    ClassServingStats& cs = class_stats_[a->result.priority];
    cs.priority = a->result.priority;
    ++cs.preempted;
    TenantServingStats& ts = tenant_stats_[a->result.tenant_id];
    ts.tenant_id = a->result.tenant_id;
    ++ts.preempted;
  }

  // Requeue BEFORE Release: the resume entry must be visible before the
  // reservation returns, or a WaitIdle between the two could observe an idle
  // system while this request is suspended.
  RequestScheduler::Admitted resume;
  resume.id = a->id;
  resume.request.deadline_seconds = a->request.deadline_seconds;
  resume.submit_time = a->submit_time;
  resume.priority = a->result.priority;
  resume.tenant_id = a->result.tenant_id;
  resume.affinity_device = a->device;  // Warm KV affinity: it lived here last.
  resume.resume = true;
  resume.estimate = scheduler_.EstimateResumed(
      a->request, a->result.reused_prefix, a->prefill_pos, a->step);
  scheduler_.Requeue(std::move(resume));
  scheduler_.Release(a->id);
  suspended_[a->id] = std::move(*it);
  active_.erase(it);
  return true;
}

void ServingEngine::ResumeSuspended(RequestScheduler::Admitted&& adm,
                                    std::vector<ActiveSession*>* newly) {
  auto it = suspended_.find(adm.id);
  if (it == suspended_.end()) {
    // Defensive: the driver owns both sides, so a resume entry without a
    // parked request should not exist. Return the reservation rather than
    // leak it.
    scheduler_.Release(adm.id);
    return;
  }
  std::unique_ptr<ActiveSession> parked = std::move(it->second);
  suspended_.erase(it);
  ActiveSession* a = parked.get();

  // Terminal-while-suspended states the sweeps have not seen yet (Admit just
  // won the queue entry): finalize before rebuilding anything. Finalize
  // before Release, as everywhere, so idleness implies visible results.
  if (a->ticket == nullptr) a->ticket = FindTicket(a->id);
  Status terminal;
  if (a->ticket != nullptr && a->ticket->cancel_requested.load()) {
    terminal = Status::Cancelled("cancelled while suspended");
  } else if (a->deadline <= std::chrono::steady_clock::now()) {
    terminal = Status::DeadlineExceeded("deadline expired while suspended");
  }
  const uint64_t kv_bytes =
      a->suspended_kv.has_value() ? a->suspended_kv->kv_bytes : 0;
  Status rebuilt;
  AlayaDB::SessionResume resumed;
  if (terminal.ok()) {
    // Rebind to the exact context/prefix the session had (paging it back in
    // if it was spilled while suspended), then reattach the parked KV.
    Result<AlayaDB::SessionResume> r = db_->ResumeSession(
        a->result.reused_context_id, a->result.reused_prefix, adm.device);
    if (r.ok()) {
      resumed = std::move(r.value());
      if (adm.gang.size() > 1) {
        // Gang bind must precede AttachFromSuspend: a session only accepts a
        // gang while it holds zero local KV.
        rebuilt = resumed.session->BindGang(
            std::make_shared<const DeviceGang>(&db_->env(), adm.gang));
      }
      if (rebuilt.ok() && a->parked_key != 0) {
        // The KV was parked on disk under host pressure; page it back before
        // the reattach (bit-identical serializer round-trip).
        Result<KvCache> kv = db_->tiers()->UnparkKv(a->parked_key);
        rebuilt = kv.status();
        if (kv.ok()) {
          a->parked_key = 0;  // Retired: the key may already be reused.
          a->suspended_kv->base.local_kv = std::move(kv.value());
        }
      }
      if (rebuilt.ok()) {
        rebuilt = resumed.session->AttachFromSuspend(std::move(*a->suspended_kv));
      }
    } else {
      rebuilt = r.status();
    }
  }
  if (!terminal.ok() || !rebuilt.ok()) {
    FreeParkedKv(a);
    a->result.status = terminal.ok() ? rebuilt : terminal;
    FinalizeResult(a->id, std::move(a->result));
    scheduler_.Release(a->id);
    return;
  }

  // The parked bytes travel host→device on the resuming device's clock, the
  // host reservation returns, and the request re-enters the exact phase and
  // position it was suspended in. prefill_pos/step were never touched, so
  // there is zero recompute: prefilled_tokens and the decoded outputs come
  // out identical to an uninterrupted run.
  a->suspended_kv.reset();
  a->session = std::move(resumed.session);
  a->context_ref = std::move(resumed.context_ref);
  a->device = adm.device;
  a->gang = adm.gang;
  Device& dev = db_->env().device(static_cast<size_t>(adm.device));
  dev.clock().Advance(dev.cost_model().TransferSeconds(kv_bytes));
  a->host_kv_reservation.Release();
  a->state = a->prefill_pos < a->request.prompt.size()
                 ? RequestState::kPrefilling
                 : RequestState::kDecoding;
  ++a->result.resumes;
  {
    std::lock_guard<std::mutex> lk(mu_);
    ++snapshot_.resumes;
    ClassServingStats& cs = class_stats_[a->result.priority];
    cs.priority = a->result.priority;
    ++cs.resumed;
    TenantServingStats& ts = tenant_stats_[a->result.tenant_id];
    ts.tenant_id = a->result.tenant_id;
    ++ts.resumed;
    DeviceServingStats& ds = device_stats_[static_cast<size_t>(adm.device)];
    ++ds.placements;
    if (resumed.cross_device_transfer_bytes > 0) {
      ++ds.cross_device_reuses;
      ds.transfer_bytes += resumed.cross_device_transfer_bytes;
    }
    if (adm.gang.size() > 1) {
      ++snapshot_.gang_admissions;
      for (const int m : adm.gang) {
        ++device_stats_[static_cast<size_t>(m)].gang_shards;
      }
    }
  }
  if (newly != nullptr) newly->push_back(a);
  active_.push_back(std::move(parked));
}

void ServingEngine::SweepCancellations() {
  const auto now = std::chrono::steady_clock::now();
  finalizing_.fetch_add(1);  // Covers the dequeue-to-publication window.
  for (RequestScheduler::Admitted& adm : scheduler_.RemoveQueuedExpired(now)) {
    Status expired = Status::DeadlineExceeded("deadline expired " + QueuedPhase(adm));
    FinalizeDequeued(std::move(adm), std::move(expired));
  }
  // Cancel-while-suspended: the caller-thread Cancel path deliberately skips
  // resume entries (the driver owns the suspended lifecycle), so the driver
  // sweeps the flags here — winning the queue entry first so a concurrent
  // observer can never see the id both finalized and still queued.
  for (auto it = suspended_.begin(); it != suspended_.end();) {
    ActiveSession* a = it->second.get();
    if (a->ticket == nullptr) a->ticket = FindTicket(a->id);
    const bool cancelled =
        a->ticket != nullptr && a->ticket->cancel_requested.load();
    ++it;  // FinalizeSuspended erases; advance first.
    if (cancelled &&
        scheduler_.RemoveQueued(a->id, /*include_resume=*/true).has_value()) {
      FinalizeSuspended(a->id, Status::Cancelled("cancelled while suspended"));
    }
  }
  finalizing_.fetch_sub(1);
  for (auto& a : active_) {
    if (a->failed) continue;
    // Submit registers the ticket after Enqueue, so admission can outrun it;
    // fetch lazily until it appears.
    if (a->ticket == nullptr) a->ticket = FindTicket(a->id);
    if (a->deadline <= now) {
      a->result.status = Status::DeadlineExceeded("request deadline expired");
      a->failed = true;
    } else if (a->ticket != nullptr && a->ticket->cancel_requested.load()) {
      a->result.status = Status::Cancelled("cancelled by caller");
      a->failed = true;
    }
  }
}

size_t ServingEngine::AdmitInto(std::vector<ActiveSession*>* newly,
                                bool allow_preempt) {
  const ModelConfig& model = db_->options().model;
  const size_t qdim = static_cast<size_t>(model.num_q_heads) * model.head_dim;
  const size_t kvdim = static_cast<size_t>(model.num_kv_heads) * model.head_dim;
  size_t added = 0;
  // Admit → suspend advised victims → admit again, until the scheduler stops
  // advising (or suspension frees nothing). Capacity only moves when a victim
  // actually suspends, so the loop terminates: each round either admits, or
  // shrinks the running set, or breaks.
  std::vector<RequestScheduler::Admitted> admitted;
  for (;;) {
    std::vector<uint64_t> victims;
    // Placement can reject a head as permanently unplaceable (custom
    // policies; the uniform-budget case already failed at Submit), and a pick
    // can be swept as expired: those requests hold no reservation, so the
    // finalizing_ guard keeps WaitIdle honest across the
    // dequeue-to-publication window.
    finalizing_.fetch_add(1);
    std::vector<RequestScheduler::Admitted> round =
        scheduler_.Admit(allow_preempt ? &victims : nullptr);
    // A resume entry can be rejected too: its footprint is re-estimated from
    // the session's real reuse, which may exceed what Submit projected.
    for (RequestScheduler::Admitted& adm : scheduler_.TakeNeverFits()) {
      FinalizeDequeued(std::move(adm),
                       Status::NeverFits("no device's budget can hold the request"));
    }
    // Expired at pick time, before the boundary sweep saw it.
    for (RequestScheduler::Admitted& adm : scheduler_.TakeExpired()) {
      Status expired = Status::DeadlineExceeded("deadline expired " + QueuedPhase(adm));
      FinalizeDequeued(std::move(adm), std::move(expired));
    }
    finalizing_.fetch_sub(1);
    admitted.insert(admitted.end(), std::make_move_iterator(round.begin()),
                    std::make_move_iterator(round.end()));
    if (victims.empty()) break;
    size_t suspended_now = 0;
    for (const uint64_t vid : victims) {
      if (SuspendVictim(vid)) ++suspended_now;
    }
    // Advice built on stale running state (victims already terminal) may free
    // nothing; stop rather than spin — those victims retire at this boundary
    // anyway and the next Admit sees the freed slots.
    if (suspended_now == 0) break;
  }
  for (RequestScheduler::Admitted& adm : admitted) {
    if (adm.resume) {
      ResumeSuspended(std::move(adm), newly);
      ++added;
      continue;
    }
    // Cancellation or deadline expiry may have landed after the queue pop;
    // don't build a session that would only retire immediately. Admit() took
    // the reservation, so return it explicitly on these paths.
    std::shared_ptr<RequestTicket> ticket = FindTicket(adm.id);
    const auto deadline = adm.Deadline();
    // Finalize BEFORE Release (mirroring FinishSession): the reservation keeps
    // WaitIdle's predicate false until the terminal result is visible.
    if (ticket != nullptr && ticket->cancel_requested.load()) {
      const uint64_t rid = adm.id;
      FinalizeUnadmitted(std::move(adm), Status::Cancelled("cancelled at admission"));
      scheduler_.Release(rid);
      continue;
    }
    if (deadline <= std::chrono::steady_clock::now()) {
      const uint64_t rid = adm.id;
      FinalizeUnadmitted(std::move(adm),
                         Status::DeadlineExceeded("deadline expired at admission"));
      scheduler_.Release(rid);
      continue;
    }

    auto active = std::make_unique<ActiveSession>();
    active->id = adm.id;
    active->device = adm.device;
    active->gang = adm.gang;
    active->request = std::move(adm.request);
    active->ticket = std::move(ticket);
    active->submit_time = adm.submit_time;
    active->deadline = deadline;
    active->result.id = adm.id;
    active->result.priority = adm.priority;
    active->result.tenant_id = adm.tenant_id;

    // Bind the session to its placed device: residency lands on that
    // device's tracker, modeled kernels on its clock, and a matched context
    // warm elsewhere pays the cross-device window transfer here.
    Result<AlayaDB::SessionCreation> created =
        db_->CreateSession(active->request.prompt, adm.device);
    if (created.ok()) {
      // Placements count sessions that actually materialized on the device —
      // a failed CreateSession served nothing there, and consumers gate on
      // placements > 0 to decide whether a device was used.
      std::lock_guard<std::mutex> lk(mu_);
      DeviceServingStats& ds = device_stats_[static_cast<size_t>(adm.device)];
      ++ds.placements;
      if (created.value().cross_device_transfer_bytes > 0) {
        ++ds.cross_device_reuses;
        ds.transfer_bytes += created.value().cross_device_transfer_bytes;
      }
    }
    if (!created.ok()) {
      active->result.status = created.status();
      active->failed = true;
    } else if (!created.value().truncated_prompt.empty() &&
               active->request.fill_prompt == nullptr) {
      // The unmatched prompt suffix must be prefilled before decoding, and
      // only the caller knows its QKV. Fail honestly instead of silently
      // attending to a context missing those tokens.
      active->result.status = Status::NotSupported(
          "prompt extends past every stored context and the request has no "
          "fill_prompt callback to prefill the suffix");
      active->failed = true;
    } else {
      AlayaDB::SessionCreation& sc = created.value();
      active->session = std::move(sc.session);
      active->context_ref = std::move(sc.context_ref);
      active->result.reused_prefix = sc.reused_prefix;
      active->result.reused_context_id = sc.context_id;
      if (adm.gang.size() > 1) {
        // Context parallelism: the scheduler placed this request across a
        // device gang. Bind before any prefill lands — a session only accepts
        // a gang while its local KV is empty.
        Status bound = active->session->BindGang(
            std::make_shared<const DeviceGang>(&db_->env(), adm.gang));
        if (!bound.ok()) {
          active->result.status = bound;
          active->failed = true;
        } else {
          std::lock_guard<std::mutex> lk(mu_);
          ++snapshot_.gang_admissions;
          for (const int m : adm.gang) {
            ++device_stats_[static_cast<size_t>(m)].gang_shards;
          }
        }
      }
      if (!active->failed) {
        // The enqueue-time prefix probe was an estimate; the store may have
        // changed since (it will, under background materialization). Re-anchor
        // the admission reservation to the reuse the session actually got, so
        // reserved bytes/seconds track real footprints.
        scheduler_.UpdateReservation(
            adm.id, scheduler_.Estimate(active->request, sc.reused_prefix));
        // prefill_pos is always anchored to the reuse (== prompt length when
        // fully covered): the suspend path snapshots it as the resume position
        // regardless of which phase the session is in.
        active->prefill_pos = sc.reused_prefix;
        if (!sc.truncated_prompt.empty()) {
          active->state = RequestState::kPrefilling;
          // Scratch sized for the largest chunk any step can grant; a budgeted
          // step simply uses a prefix of it.
          const size_t chunk = scheduler_.options().prefill_chunk_tokens;
          active->pq.resize(chunk * qdim);
          active->pk.resize(chunk * kvdim);
          active->pv.resize(chunk * kvdim);
        } else {
          active->state = RequestState::kDecoding;
        }
      }
    }

    active->q.resize(qdim);
    active->k.resize(kvdim);
    active->v.resize(kvdim);
    active->out.resize(qdim);
    active->head_stats.resize(model.num_q_heads);
    active->head_status.resize(model.num_q_heads);
    if (active->request.record_outputs) {
      active->result.outputs.reserve(active->request.max_new_tokens * qdim);
    }
    if (newly != nullptr) newly->push_back(active.get());
    active_.push_back(std::move(active));
    ++added;
  }
  std::lock_guard<std::mutex> lk(mu_);
  snapshot_.peak_concurrent_sessions =
      std::max(snapshot_.peak_concurrent_sessions, active_.size());
  return added;
}

void ServingEngine::AdmitPending() { (void)AdmitInto(nullptr, /*allow_preempt=*/true); }

size_t ServingEngine::MidStepAdmit(PrefillWave* wave, size_t* budget_left,
                                   std::vector<ActiveSession*>* chunked) {
  std::vector<ActiveSession*> newly;
  // No preemption mid-step: suspending a session whose pointers are live in
  // the running step's decode batch would pull state out from under it.
  // Victims are advised and suspended at step boundaries only.
  const size_t admitted = AdmitInto(&newly, /*allow_preempt=*/false);
  if (admitted > 0) {
    // Published immediately — not at step end — so a live observer sees the
    // admission while the step that absorbed it is still running.
    std::lock_guard<std::mutex> lk(mu_);
    snapshot_.midstep_admissions += admitted;
  }
  for (ActiveSession* a : newly) {
    // The step's wall time after this point is attributed to the state the
    // session entered in (DriverLoop stamps continuing sessions at the top of
    // the step; mid-step arrivals are stamped here).
    a->was_prefilling = a->state == RequestState::kPrefilling;
    if (a->failed || a->state != RequestState::kPrefilling) continue;
    // First chunk out of the step's unspent budget, straight into the wave
    // already in flight — the mid-step admission payoff: prefill starts now,
    // not at the next step boundary.
    const size_t need = a->request.prompt.size() - a->prefill_pos;
    const size_t grant = scheduler_.GrantChunk(need, budget_left);
    if (grant > 0) {
      LaunchChunk(a, grant, wave);
      chunked->push_back(a);
    }
  }
  return admitted;
}

void ServingEngine::LaunchChunk(ActiveSession* a, size_t count, PrefillWave* wave) {
  SessionPrefillJob job;
  job.session = a->session.get();
  job.first_token = a->prefill_pos;
  job.count = count;
  job.fill = a->request.fill_prompt;
  job.q_scratch = a->pq.data();
  job.k_scratch = a->pk.data();
  job.v_scratch = a->pv.data();
  a->chunk_granted = count;
  a->chunk_status = Status::Ok();
  wave->Launch(job, &a->chunk_status, pool_);
}

void ServingEngine::StepActiveSessions(const WallTimer& step_timer) {
  const ModelConfig& model = db_->options().model;
  const size_t d = model.head_dim;

  // Sessions with work this step (stable submit order for determinism), split
  // by state: Prefilling sessions push one budgeted prompt chunk, Decoding
  // sessions run one lockstep token.
  std::vector<ActiveSession*> decoding, prefilling;
  for (auto& a : active_) {
    if (a->failed) continue;
    if (a->state == RequestState::kPrefilling) {
      prefilling.push_back(a.get());
    } else if (a->state == RequestState::kDecoding &&
               a->step < a->request.max_new_tokens) {
      decoding.push_back(a.get());
    }
  }
  if (decoding.empty() && prefilling.empty()) return;

  // Split the step's token budget: decode is funded first (one token per
  // Decoding session — the budget throttles prefill, never TPOT), the
  // remainder is dealt to Prefilling sessions FIFO in chunks. `chunked`
  // collects every session whose chunk launched this step — including
  // mid-step admissions — for the accounting pass after the join.
  std::vector<size_t> remaining(prefilling.size());
  for (size_t i = 0; i < prefilling.size(); ++i) {
    remaining[i] = prefilling[i]->request.prompt.size() - prefilling[i]->prefill_pos;
  }
  const RequestScheduler::StepPlan plan =
      scheduler_.PlanStep(decoding.size(), remaining);
  size_t budget_left = plan.budget_left;

  // Launch this step's chunks into the wave. Prefilling and decoding sessions
  // are disjoint, so the chunks overlap the entire decode layer loop below
  // (joined once, before accounting) instead of stalling every decoder's
  // first layer behind the slowest chunk. The wave tasks write into the
  // sessions' scratch and chunk_status, so the step must not return before
  // the wave.Wait() join below.
  PrefillWave wave;
  std::vector<ActiveSession*> chunked;
  chunked.reserve(prefilling.size());
  for (size_t i = 0; i < prefilling.size(); ++i) {
    prefilling[i]->chunk_granted = 0;
    if (plan.chunks[i] > 0) {
      LaunchChunk(prefilling[i], plan.chunks[i], &wave);
      chunked.push_back(prefilling[i]);
    }
  }

  size_t step_tokens = 0;
  size_t step_prefilled = 0;
  // Per-device work this step (folded into device_stats_ under mu_ below).
  std::vector<size_t> dev_tokens(device_stats_.size(), 0);
  std::vector<size_t> dev_prefilled(device_stats_.size(), 0);
  const uint32_t num_heads = model.num_q_heads;

  for (uint32_t layer = 0; decoding.size() > 0 && layer < model.num_layers;
       ++layer) {
    // Phase 1 — Update: append this step's K/V to each session-local cache.
    // Sessions are independent, so this fans out across the pool; within a
    // session the call is exclusive (no attention runs yet).
    pool_->ParallelFor(0, decoding.size(), [&](size_t i) {
      ActiveSession* a = decoding[i];
      if (a->failed) return;  // Failed at an earlier layer of this step.
      a->request.fill_step(a->step, layer, a->q.data(), a->k.data(), a->v.data());
      Status s = a->session->Update(layer, a->q.data(), a->k.data(), a->v.data());
      if (!s.ok()) {
        a->result.status = s;
        a->failed = true;
      }
    });

    // Phase 2 — batched attention: every decoding session's (session, q_head)
    // DIPRS/attention query of this layer in one pool batch. Index j is head
    // j % H of session decoding[j / H]; each call writes only its own output
    // slice, head_stats and head_status slot (AttendHead is reentrant across
    // heads and leaves the modeled clock untouched).
    pool_->ParallelFor(0, decoding.size() * num_heads, [&](size_t j) {
      ActiveSession* a = decoding[j / num_heads];
      if (a->failed) return;
      const uint32_t h = static_cast<uint32_t>(j % num_heads);
      const size_t off = static_cast<size_t>(h) * d;
      a->head_stats[h] = AttentionCallStats{};
      a->head_status[h] = a->session->AttendHead(layer, h, a->q.data() + off,
                                                 a->out.data() + off, &a->head_stats[h]);
    });
    // A head's failure fails its own session (first failing head's status),
    // never the fleet.
    for (ActiveSession* a : decoding) {
      if (a->failed) continue;
      for (const Status& s : a->head_status) {
        if (!s.ok()) {
          a->result.status = s;
          a->failed = true;
          break;
        }
      }
    }

    // Phase 3 — per-session accounting: fold head stats, charge the modeled
    // device clock once per session-layer (AttendHead leaves it untouched).
    for (ActiveSession* a : decoding) {
      if (a->failed) continue;
      AttentionCallStats layer_stats;
      for (const AttentionCallStats& hs : a->head_stats) layer_stats.Add(hs);
      a->session->ChargeModeledGpuSeconds(layer_stats.modeled_gpu_seconds);
      scheduler_.RecordProgress(a->id, layer_stats.modeled_gpu_seconds);
      a->result.stats.Add(layer_stats);
      if (layer + 1 == model.num_layers) {
        if (a->request.record_outputs) {
          a->result.outputs.insert(a->result.outputs.end(), a->out.begin(),
                                   a->out.end());
        }
        if (a->result.steps_completed == 0) {
          a->result.ttft_seconds =
              std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                            a->submit_time)
                  .count();
        }
        // Stream the finished output block before advancing the step counter:
        // callbacks observe steps 0..N-1 strictly in order, from the driver
        // thread, with the span valid only for the duration of the call.
        if (a->request.on_token != nullptr) {
          a->request.on_token(a->step,
                              std::span<const float>(a->out.data(), a->out.size()));
        }
        ++a->result.steps_completed;
        ++a->step;
        ++step_tokens;
        ++dev_tokens[static_cast<size_t>(a->device)];
      }
    }

    // Mid-step admission poll, between layers: a request that arrived while
    // this layer ran gets its session built NOW and its first prefill chunk
    // (budget permitting) launched into the wave already in flight — it does
    // not wait for the batch to drain to a step boundary. Newly admitted
    // sessions never join the current step's decode lockstep (decode starts
    // next step), so the per-layer batch below stays over a fixed set. The
    // last layer skips the poll: a chunk launched there could not overlap
    // anything and would only delay the join.
    if (layer + 1 < model.num_layers && scheduler_.queued() > 0) {
      MidStepAdmit(&wave, &budget_left, &chunked);
    }
  }

  // Mid-step retirement: a session whose last token just decoded is retired
  // NOW — result published, reservation released — so its slot is free for
  // the wave-tail admission polls below instead of sitting occupied until the
  // step boundary. Safe here: the layer loop is done and `decoding` is not
  // read again, and erasing from active_ only moves unique_ptrs, never the
  // sessions `prefilling`/`chunked` point at.
  //
  // Retirement frees the retiring sessions' KV before the end-of-step
  // residency sample; take the step's high-water sample first so
  // peak_gpu_bytes still reflects the footprint this step decoded at.
  {
    std::lock_guard<std::mutex> lk(mu_);
    SampleResidencyPeaksLocked();
  }
  size_t retired = 0;
  auto it = active_.begin();
  while (it != active_.end()) {
    ActiveSession* a = it->get();
    if (!a->failed && a->state == RequestState::kDecoding &&
        a->step >= a->request.max_new_tokens) {
      // The driver's post-step attribution loop no longer sees this session;
      // attribute its partial-step wall time before finalizing.
      a->result.decode_wall_seconds += step_timer.ElapsedSeconds();
      a->state = RequestState::kRetiring;
      FinishSession(a);
      it = active_.erase(it);
      ++retired;
    } else {
      ++it;
    }
  }
  if (retired > 0) {
    std::lock_guard<std::mutex> lk(mu_);
    snapshot_.midstep_retirements += retired;
  }

  // Poll admissions while waiting out the wave — on every step, not just
  // prefill-only ones. For prefill-only steps this is the only poll site (no
  // layer loop to interleave with); for mixed steps it extends coverage past
  // the last between-layer poll into the wave-join tail, so an arrival during
  // the final decode layer or a long chunk still enters mid-step and its
  // chunk joins the same wave.
  while (!wave.WaitFor(std::chrono::microseconds(200))) {
    if (scheduler_.queued() > 0) {
      MidStepAdmit(&wave, &budget_left, &chunked);
    }
  }

  // Join the prefill chunks, then fold their results and charge the modeled
  // device cost: each prompt token is one full-attention pass over the
  // context visible at its position (per layer and query head) — the prefill
  // analogue of the decode-side per-step charge.
  wave.Wait();
  const CostModel& cost = db_->env().cost_model();
  for (ActiveSession* a : chunked) {
    if (!a->chunk_status.ok()) {
      a->result.status = a->chunk_status;
      a->failed = true;
      continue;
    }
    // The clock and the scheduler are charged per chunk; the result's total
    // folds token by token, so it does not depend on how the step budget
    // split the prompt into chunks.
    const double heads_x_layers = static_cast<double>(model.num_q_heads) * model.num_layers;
    double modeled = 0;
    for (size_t t = 0; t < a->chunk_granted; ++t) {
      const double visible = static_cast<double>(a->prefill_pos + t + 1);
      const double token_seconds = cost.GpuAttentionSeconds(4.0 * visible * d);
      modeled += token_seconds;
      a->result.stats.modeled_gpu_seconds += token_seconds * heads_x_layers;
    }
    modeled *= heads_x_layers;
    a->session->ChargeModeledGpuSeconds(modeled);
    scheduler_.RecordProgress(a->id, modeled);
    a->prefill_pos += a->chunk_granted;
    a->result.prefilled_tokens += a->chunk_granted;
    step_prefilled += a->chunk_granted;
    dev_prefilled[static_cast<size_t>(a->device)] += a->chunk_granted;
    a->chunk_granted = 0;
    if (a->prefill_pos == a->request.prompt.size()) {
      a->state = RequestState::kDecoding;  // Decode starts next engine step.
      // The chunk scratch is dead weight for the whole decode phase; free it
      // (jobs referencing it were joined above).
      a->pq = {};
      a->pk = {};
      a->pv = {};
    }
  }

  std::lock_guard<std::mutex> lk(mu_);
  snapshot_.tokens_decoded += step_tokens;
  snapshot_.tokens_prefilled += step_prefilled;
  ++snapshot_.engine_steps;
  // Sampled on every step — prefill-only steps included, so residency grown by
  // UpdateBatch (the prompt suffix landing in session-local KV) is observed
  // even when no session decoded this step.
  for (size_t d = 0; d < device_stats_.size(); ++d) {
    device_stats_[d].tokens_decoded += dev_tokens[d];
    device_stats_[d].tokens_prefilled += dev_prefilled[d];
  }
  SampleResidencyPeaksLocked();
}

void ServingEngine::SampleResidencyPeaksLocked() {
  // The fleet peak sums the devices' simultaneous residency (with one device:
  // exactly the per-step sample); each device's own peak is tracked alongside.
  uint64_t fleet_bytes = 0;
  for (size_t d = 0; d < device_stats_.size(); ++d) {
    const uint64_t current = db_->env().device(d).memory().current();
    fleet_bytes += current;
    device_stats_[d].peak_gpu_bytes =
        std::max(device_stats_[d].peak_gpu_bytes, current);
  }
  snapshot_.peak_gpu_bytes = std::max(snapshot_.peak_gpu_bytes, fleet_bytes);
}

void ServingEngine::FinishSession(ActiveSession* active) {
  if (!active->failed && active->request.store_on_finish) {
    // DB.Store expects ids for every session-local token: the prefilled prompt
    // suffix first (its ids are right there in the request), then the decoded
    // tail. Cancelled / deadline-exceeded sessions never reach this branch
    // (they carry failed=true): a partial decode must not publish a context.
    const std::vector<int32_t>& prompt = active->request.prompt;
    const size_t suffix_begin = active->result.reused_prefix;
    const size_t suffix_end = suffix_begin + active->result.prefilled_tokens;
    std::vector<int32_t> new_tokens;
    new_tokens.reserve(active->result.prefilled_tokens + active->step);
    new_tokens.insert(new_tokens.end(),
                      prompt.begin() + static_cast<long>(suffix_begin),
                      prompt.begin() + static_cast<long>(suffix_end));
    for (size_t s = 0; s < active->step; ++s) {
      // Default ids are salted with the request id: two sessions storing over
      // the same base context must not produce identical token sequences with
      // different KV, or later prompts would silently match the wrong one.
      new_tokens.push_back(active->request.token_at != nullptr
                               ? active->request.token_at(s)
                               : SyntheticStoredTokenId(active->id, s));
    }
    // Hand the session's KV, ids and recorded queries to a background
    // materialization job and retire immediately — the index build never
    // blocks the step loop. The reserved context id is reported right away;
    // it becomes matchable once the job publishes (observe via Drain()).
    Result<uint64_t> stored = db_->StoreAsync(
        active->session.get(), std::move(new_tokens), active->context_ref);
    if (stored.ok()) {
      active->result.stored_context_id = stored.value();
    } else {
      active->result.status = stored.status();
    }
  }
  if (active->session != nullptr && active->session->gang() != nullptr) {
    std::lock_guard<std::mutex> lk(mu_);
    snapshot_.gang_ring_transfer_bytes +=
        active->session->gang_ring_transfer_bytes();
  }
  // Free the session (and its device reservation) before returning the
  // admission reservation, so the next admit sees consistent accounting; and
  // publish the result before Release, so a WaitIdle() that observes zero
  // reservations also observes every finished result.
  active->session.reset();
  active->context_ref.reset();
  FinalizeResult(active->id, std::move(active->result));
  scheduler_.Release(active->id);
}

void ServingEngine::RetireFinished() {
  auto it = active_.begin();
  while (it != active_.end()) {
    ActiveSession* a = it->get();
    if (a->Terminal()) {
      a->state = RequestState::kRetiring;
      FinishSession(a);
      it = active_.erase(it);
    } else {
      ++it;
    }
  }
}

void ServingEngine::DriverLoop() {
  Status status;  // Engine-level; per-request failures live in their results.
  for (;;) {
    StopMode stop;
    {
      std::lock_guard<std::mutex> lk(life_mu_);
      stop = stop_mode_;
    }
    if (stop == StopMode::kAbort) break;

    // Step boundary: retire cancellations/expiries first (their reservations
    // free capacity), then admit — requests submitted while the engine runs
    // enter here, the continuous-batching entry point.
    SweepCancellations();
    RetireFinished();
    AdmitPending();

    if (active_.empty()) {
      if (scheduler_.queued() == 0) {
        if (stop == StopMode::kDrain) break;
        // Idle: announce it (WaitIdle waiters) and sleep until a Submit,
        // Cancel or stop request arrives.
        std::unique_lock<std::mutex> lk(life_mu_);
        life_cv_.notify_all();
        life_cv_.wait(lk, [&] {
          return stop_mode_ != StopMode::kNone || scheduler_.queued() > 0;
        });
        continue;
      }
      // A concurrent Submit landed between Admit() and queued(); having
      // observed a non-empty queue on an idle system, a second Admit() must
      // pull its head (Enqueue guarantees it fits). A concurrent Cancel can
      // instead empty the queue — loop around. If neither happened, it's an
      // internal accounting bug — fail loudly, don't spin.
      AdmitPending();
      if (active_.empty()) {
        if (scheduler_.queued() == 0) continue;
        status = Status::Internal("queued requests but none admissible on idle system");
        break;
      }
    }

    for (auto& a : active_) {
      a->was_prefilling = a->state == RequestState::kPrefilling;
    }
    WallTimer step_timer;
    StepActiveSessions(step_timer);
    const double step_seconds = step_timer.ElapsedSeconds();
    for (auto& a : active_) {
      if (a->failed) continue;
      if (a->was_prefilling) {
        a->result.prefill_wall_seconds += step_seconds;
      } else {
        a->result.decode_wall_seconds += step_seconds;
      }
    }
    RetireFinished();
  }

  // Terminal sweep: an abort (or an engine-level error) fails everything the
  // engine still owns, so every handle reaches a terminal state. A graceful
  // drain arrives here with nothing active or queued (a Submit racing the
  // final check stays queued for the next Start — exactly the old
  // RunToCompletion contract the stress tests rely on).
  StopMode final_stop;
  {
    std::lock_guard<std::mutex> lk(life_mu_);
    final_stop = stop_mode_;
  }
  if (!status.ok() || final_stop == StopMode::kAbort) {
    const Status reason =
        status.ok() ? Status::Cancelled("engine aborted") : status;
    for (auto& a : active_) {
      if (!a->failed) {
        a->result.status = reason;
        a->failed = true;
      }
    }
    RetireFinished();
    finalizing_.fetch_add(1);  // Covers the dequeue-to-publication window.
    for (RequestScheduler::Admitted& adm : scheduler_.TakeAllQueued()) {
      Status aborted =
          status.ok() ? Status::Cancelled("engine aborted " + QueuedPhase(adm)) : status;
      FinalizeDequeued(std::move(adm), std::move(aborted));
    }
    // Belt and braces: every suspended request has a resume entry (the
    // invariant), so the loop above drained suspended_ — but a request whose
    // entry was lost must still reach a terminal state.
    while (!suspended_.empty()) {
      FinalizeSuspended(suspended_.begin()->first,
                        status.ok() ? Status::Cancelled("engine aborted while suspended")
                                    : status);
    }
    finalizing_.fetch_sub(1);
  }

  FinalizeRun();
  std::lock_guard<std::mutex> lk(life_mu_);
  run_status_ = status;
  state_ = State::kStopped;
  life_cv_.notify_all();
}

void ServingEngine::FinalizeRun() {
  // Barrier: every store_on_finish materialization handed off during the run
  // must publish before the engine reports stopped — callers (and tests)
  // observe a store whose contexts are all fully built. A failed
  // materialization loses one context, never the run: it is counted in
  // snapshot().materializations_failed, and db.materialization_errors() maps
  // the result's stored_context_id (a reservation ticket that will now never
  // publish) to the failure. Published results are deliberately NOT amended:
  // they are immutable once a handle's Wait/TryWait returns, so live callers
  // can read them without synchronizing against Shutdown.
  (void)db_->Drain();
  std::lock_guard<std::mutex> lk(mu_);
  snapshot_.serve_wall_seconds += run_timer_.ElapsedSeconds();
  // Instant runs can round the wall clock to zero even though tokens were
  // decoded; clamp the denominator so the reported throughput stays finite
  // (and zero only when nothing was decoded).
  snapshot_.tokens_per_second =
      snapshot_.tokens_decoded > 0
          ? static_cast<double>(snapshot_.tokens_decoded) /
                std::max(snapshot_.serve_wall_seconds, 1e-9)
          : 0;
}

const RequestResult* ServingEngine::result(uint64_t id) const {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = results_.find(id);
  // The shared_ptr target is immutable and stays alive until the id is
  // evicted (see result_retention): the pointer outlives the lock.
  return it == results_.end() ? nullptr : it->second.get();
}

ServingSnapshot ServingEngine::snapshot() const {
  const AlayaDB::MaterializationStats mat = db_->materialization_stats();
  const std::vector<DeviceLoad> loads = scheduler_.DeviceLoads();
  const TenantLedger ledger = scheduler_.TenantLedgerSnapshot();
  ServingSnapshot out;
  {
    std::lock_guard<std::mutex> lk(mu_);
    out = snapshot_;
    out.devices = device_stats_;
    // Classes and tenants: engine-side terminal counters first (std::map →
    // ascending key order)...
    out.classes.reserve(class_stats_.size());
    for (const auto& [priority, cs] : class_stats_) out.classes.push_back(cs);
    out.tenants.reserve(std::max(tenant_stats_.size(), ledger.size()));
    for (const auto& [tid, ts] : tenant_stats_) out.tenants.push_back(ts);
  }
  // ...then the scheduler's live fair-share ledger merged over them (a tenant
  // can exist in the ledger before any of its requests reached a terminal
  // state, and vice versa on a fresh scheduler).
  for (const auto& [tid, share] : ledger) {
    auto it = std::find_if(out.tenants.begin(), out.tenants.end(),
                           [tid = tid](const TenantServingStats& t) {
                             return t.tenant_id == tid;
                           });
    if (it == out.tenants.end()) {
      TenantServingStats fresh;
      fresh.tenant_id = tid;
      it = out.tenants.insert(
          std::upper_bound(out.tenants.begin(), out.tenants.end(), fresh,
                           [](const TenantServingStats& a, const TenantServingStats& b) {
                             return a.tenant_id < b.tenant_id;
                           }),
          fresh);
    }
    it->weight = share.weight;
    it->deficit_seconds = share.deficit_seconds;
    it->admitted_seconds = share.admitted_seconds;
    it->admitted = share.admitted;
  }
  out.submitted = submitted_.load();
  out.rejected = rejected_.load();
  out.materializations_pending = mat.pending;
  out.materializations_completed = mat.completed;
  out.materializations_failed = mat.failed;
  if (const TieredContextStore* tiers = db_->tiers()) {
    const TieredContextStore::Stats ts = tiers->stats();
    out.suspend_spills = ts.parked_spills;
    out.suspend_restores = ts.parked_restores;
    out.tier_spills = ts.spills;
    out.tier_page_ins = ts.page_ins;
    out.tier_prefetches = ts.prefetches;
    out.tier_resident_contexts = ts.resident_contexts;
    out.tier_spilled_contexts = ts.spilled_contexts;
    out.tier_resident_kv_bytes = ts.resident_kv_bytes;
  }
  // Merge live per-device state: what the scheduler currently reserves on
  // each device, and each device clock's modeled busy seconds (utilization).
  for (DeviceServingStats& ds : out.devices) {
    const size_t d = static_cast<size_t>(ds.device);
    if (d < loads.size()) {
      ds.reserved_bytes = loads[d].reserved_bytes;
      ds.active_sessions = loads[d].active_sessions;
    }
    ds.modeled_busy_seconds = db_->env().device(d).clock().Seconds();
  }
  return out;
}

}  // namespace alaya
