// Preemptive multi-tenant scheduling: priority classes, suspend/resume with
// zero recompute (the resumed decode is bit-identical to an uninterrupted
// one), the FifoPolicy golden (arrival order regardless of priority), and the
// suspended-state edge cases — cancel-while-suspended, deadline-expiry-while-
// suspended, suspension racing retirement. The storm test races caller
// threads against the preempting driver and runs under TSan in CI.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <latch>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "src/common/rng.h"
#include "src/server/serving_engine.h"

namespace alaya {
namespace {

struct PreemptFixture {
  ModelConfig model = ModelConfig::Tiny();
  size_t context_tokens = 160;
  SimEnvironment env;
  DbOptions options;
  std::unique_ptr<AlayaDB> db;
  uint64_t context_id = 0;
  ThreadPool pool{4};

  ServingEngineOptions EngineOptions(size_t max_concurrent) {
    ServingEngineOptions o;
    o.scheduler.max_concurrent_sessions = max_concurrent;
    o.pool = &pool;
    return o;
  }

  PreemptFixture() {
    options.model = model;
    options.session.optimizer.short_context_threshold = 64;
    options.session.window = WindowConfig{8, 16};
    options.materialize_pool = &pool;
    db = std::make_unique<AlayaDB>(options, &env);
    auto kv = std::make_unique<KvCache>(model);
    Rng rng(1);
    const size_t stride = model.num_kv_heads * model.head_dim;
    std::vector<float> k(stride), v(stride);
    for (uint32_t layer = 0; layer < model.num_layers; ++layer) {
      for (size_t t = 0; t < context_tokens; ++t) {
        rng.FillGaussian(k.data(), stride);
        rng.FillGaussian(v.data(), stride);
        kv->AppendToken(layer, k.data(), v.data());
      }
    }
    auto imported = db->Import(ContextTokens(), std::move(kv));
    EXPECT_TRUE(imported.ok()) << imported.status().ToString();
    context_id = imported.ValueOr(0);
  }

  std::vector<int32_t> ContextTokens() const {
    std::vector<int32_t> t(context_tokens);
    for (size_t i = 0; i < context_tokens; ++i) t[i] = 100 + static_cast<int32_t>(i);
    return t;
  }

  /// A request whose prompt extends `suffix` tokens past the stored context
  /// (prefill work) and decodes `steps` tokens. Deterministic fill callbacks
  /// keyed by `seed`: any schedule — preempted or not — must produce
  /// identical outputs.
  ServingRequest MakeRequest(uint64_t seed, size_t steps, size_t suffix = 0) const {
    ServingRequest r;
    r.prompt = ContextTokens();
    for (size_t i = 0; i < suffix; ++i) {
      r.prompt.push_back(5000 + static_cast<int32_t>(seed * 100 + i));
    }
    r.max_new_tokens = steps;
    const ModelConfig m = model;
    r.fill_step = [m, seed](size_t step, uint32_t layer, float* q, float* k,
                            float* v) {
      Rng rng(seed * 1000003ull + step * 131ull + layer);
      rng.FillGaussian(q, static_cast<size_t>(m.num_q_heads) * m.head_dim);
      rng.FillGaussian(k, static_cast<size_t>(m.num_kv_heads) * m.head_dim);
      rng.FillGaussian(v, static_cast<size_t>(m.num_kv_heads) * m.head_dim);
    };
    if (suffix > 0) {
      r.fill_prompt = [m, seed](size_t token, uint32_t layer, float* q, float* k,
                                float* v) {
        Rng rng(seed * 2000003ull + token * 137ull + layer);
        rng.FillGaussian(q, static_cast<size_t>(m.num_q_heads) * m.head_dim);
        rng.FillGaussian(k, static_cast<size_t>(m.num_kv_heads) * m.head_dim);
        rng.FillGaussian(v, static_cast<size_t>(m.num_kv_heads) * m.head_dim);
      };
    }
    return r;
  }
};

// The tentpole golden: a low-priority request preempted mid-decode by a
// high-priority one resumes with ZERO recompute and finishes bit-identical to
// an uninterrupted solo run — same outputs, and prefilled_tokens exactly the
// uncovered suffix length (nothing was prefilled twice).
TEST(ServingPreemptTest, PreemptedDecodeResumesBitIdenticalWithZeroRecompute) {
  constexpr size_t kSteps = 48;
  constexpr size_t kSuffix = 24;
  constexpr uint64_t kSeed = 7;

  // Solo golden: the same request, alone, never preempted.
  std::vector<float> golden;
  {
    PreemptFixture fx;
    ServingEngine engine(fx.db.get(), fx.EngineOptions(1));
    ServingRequest req = fx.MakeRequest(kSeed, kSteps, kSuffix);
    req.record_outputs = true;
    auto h = engine.Submit(std::move(req));
    ASSERT_TRUE(h.ok());
    ASSERT_TRUE(engine.RunToCompletion().ok());
    const RequestResult* r = h.value().TryWait();
    ASSERT_NE(r, nullptr);
    ASSERT_TRUE(r->status.ok()) << r->status.ToString();
    EXPECT_EQ(r->prefilled_tokens, kSuffix);
    golden = r->outputs;
    ASSERT_EQ(golden.size(),
              kSteps * static_cast<size_t>(fx.model.num_q_heads) * fx.model.head_dim);
  }

  // Contended: one slot; the low request is provably mid-decode (first-token
  // latch) when the high-priority one arrives and takes the slot from it.
  PreemptFixture fx;
  ServingEngine engine(fx.db.get(), fx.EngineOptions(1));
  ASSERT_TRUE(engine.Start().ok());

  std::latch first_token(1);
  ServingRequest low = fx.MakeRequest(kSeed, kSteps, kSuffix);
  low.record_outputs = true;
  low.priority = 0;
  low.on_token = [&](size_t step, std::span<const float>) {
    if (step == 0) first_token.count_down();
    // Pace the early steps so the high request lands mid-decode, well before
    // the low one finishes; the tail runs at full speed.
    if (step < kSteps / 2) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  };
  auto low_h = engine.Submit(std::move(low));
  ASSERT_TRUE(low_h.ok());
  first_token.wait();

  ServingRequest high = fx.MakeRequest(99, 4);
  high.priority = 1;
  auto high_h = engine.Submit(std::move(high));
  ASSERT_TRUE(high_h.ok());

  const RequestResult* hr = high_h.value().Wait();
  ASSERT_NE(hr, nullptr);
  EXPECT_TRUE(hr->status.ok()) << hr->status.ToString();
  EXPECT_EQ(hr->priority, 1);

  const RequestResult* lr = low_h.value().Wait();
  ASSERT_NE(lr, nullptr);
  ASSERT_TRUE(lr->status.ok()) << lr->status.ToString();
  engine.WaitIdle();
  ASSERT_TRUE(engine.Shutdown().ok());

  // The low request was actually suspended and resumed...
  EXPECT_GE(lr->preemptions, 1u);
  EXPECT_EQ(lr->resumes, lr->preemptions);
  // ...prefilled exactly its uncovered suffix once (zero recompute)...
  EXPECT_EQ(lr->prefilled_tokens, kSuffix);
  EXPECT_EQ(lr->steps_completed, kSteps);
  // ...and decoded bit-identical to the uninterrupted solo run.
  EXPECT_EQ(lr->outputs, golden);

  const ServingSnapshot snap = engine.snapshot();
  EXPECT_GE(snap.preemptions, 1u);
  EXPECT_EQ(snap.resumes, snap.preemptions);
  // Per-class accounting saw both classes complete and the preemption.
  ASSERT_EQ(snap.classes.size(), 2u);
  EXPECT_EQ(snap.classes[0].priority, 0);
  EXPECT_EQ(snap.classes[0].completed, 1u);
  EXPECT_GE(snap.classes[0].preempted, 1u);
  EXPECT_EQ(snap.classes[1].priority, 1);
  EXPECT_EQ(snap.classes[1].completed, 1u);
  EXPECT_EQ(snap.classes[1].preempted, 0u);
  EXPECT_EQ(engine.scheduler().active(), 0u);
  EXPECT_EQ(engine.scheduler().queued(), 0u);
}

// FifoPolicy is the default-off golden: arrival order, no priority bypass, no
// preemption — the historical scheduler bit for bit.
TEST(ServingPreemptTest, FifoPolicyServesArrivalOrderIgnoringPriority) {
  PreemptFixture fx;
  ServingEngineOptions opts = fx.EngineOptions(1);
  opts.scheduler.policy = std::make_shared<const FifoPolicy>();
  ServingEngine engine(fx.db.get(), opts);

  // Backlog into a stopped engine: priorities descend then jump — FIFO must
  // ignore all of it.
  std::mutex mu;
  std::vector<uint64_t> completion_order;
  std::vector<RequestHandle> handles;
  const int priorities[] = {0, 2, 1, 5, 0};
  for (int i = 0; i < 5; ++i) {
    ServingRequest req = fx.MakeRequest(300 + static_cast<uint64_t>(i), 2);
    req.priority = priorities[i];
    req.tenant_id = static_cast<uint64_t>(i % 2);
    const uint64_t tag = static_cast<uint64_t>(i);
    req.on_token = [&, tag](size_t step, std::span<const float>) {
      if (step == 0) {
        std::lock_guard<std::mutex> lk(mu);
        completion_order.push_back(tag);
      }
    };
    auto h = engine.Submit(std::move(req));
    ASSERT_TRUE(h.ok());
    handles.push_back(h.value());
  }
  ASSERT_TRUE(engine.RunToCompletion().ok());
  for (auto& h : handles) {
    const RequestResult* r = h.TryWait();
    ASSERT_NE(r, nullptr);
    EXPECT_TRUE(r->status.ok()) << r->status.ToString();
  }
  ASSERT_EQ(completion_order.size(), 5u);
  for (size_t i = 0; i < 5; ++i) EXPECT_EQ(completion_order[i], i) << "slot " << i;
  EXPECT_EQ(engine.snapshot().preemptions, 0u);
  EXPECT_EQ(engine.snapshot().resumes, 0u);
}

TEST(ServingPreemptTest, CancelWhileSuspendedFinalizesAndFreesParkedState) {
  PreemptFixture fx;
  const uint64_t host_baseline = fx.env.host_memory().current();
  ServingEngine engine(fx.db.get(), fx.EngineOptions(1));
  ASSERT_TRUE(engine.Start().ok());

  std::latch low_started(1);
  ServingRequest low = fx.MakeRequest(400, /*steps=*/100000);
  low.priority = 0;
  low.on_token = [&](size_t step, std::span<const float>) {
    if (step == 0) low_started.count_down();
  };
  auto low_h = engine.Submit(std::move(low));
  ASSERT_TRUE(low_h.ok());
  low_started.wait();

  std::latch high_started(1);
  ServingRequest high = fx.MakeRequest(401, /*steps=*/100000);
  high.priority = 1;
  high.on_token = [&](size_t step, std::span<const float>) {
    if (step == 0) high_started.count_down();
  };
  auto high_h = engine.Submit(std::move(high));
  ASSERT_TRUE(high_h.ok());
  high_started.wait();  // High decoding on the only slot => low is suspended.

  // The caller-thread cancel cannot steal the resume entry (the driver owns
  // the suspended lifecycle); the driver's sweep finalizes it.
  EXPECT_TRUE(low_h.value().Cancel());
  const RequestResult* lr = low_h.value().Wait();
  ASSERT_NE(lr, nullptr);
  EXPECT_TRUE(lr->status.IsCancelled()) << lr->status.ToString();
  EXPECT_EQ(lr->preemptions, 1u);
  EXPECT_EQ(lr->resumes, 0u);
  EXPECT_GE(lr->steps_completed, 1u);  // Its pre-suspension tokens stand.

  EXPECT_TRUE(high_h.value().Cancel());
  ASSERT_NE(high_h.value().Wait(), nullptr);
  engine.WaitIdle();
  ASSERT_TRUE(engine.Shutdown().ok());
  EXPECT_EQ(engine.scheduler().active(), 0u);
  EXPECT_EQ(engine.scheduler().queued(), 0u);
  EXPECT_EQ(engine.snapshot().cancelled, 2u);
  // The parked KV's host reservation was returned: host residency is back to
  // the pre-engine baseline (the imported context only).
  EXPECT_EQ(fx.env.host_memory().current(), host_baseline);
}

TEST(ServingPreemptTest, DeadlineExpiryWhileSuspendedIsSwept) {
  PreemptFixture fx;
  ServingEngine engine(fx.db.get(), fx.EngineOptions(1));
  ASSERT_TRUE(engine.Start().ok());

  std::latch low_started(1);
  ServingRequest low = fx.MakeRequest(500, /*steps=*/100000);
  low.priority = 0;
  low.deadline_seconds = 0.15;  // Plenty to admit + decode; hopeless for 1e5.
  low.on_token = [&](size_t step, std::span<const float>) {
    if (step == 0) low_started.count_down();
  };
  auto low_h = engine.Submit(std::move(low));
  ASSERT_TRUE(low_h.ok());
  low_started.wait();

  // The hog never finishes on its own, so the low request can never resume:
  // its deadline expires while it waits suspended.
  ServingRequest high = fx.MakeRequest(501, /*steps=*/100000);
  high.priority = 1;
  auto high_h = engine.Submit(std::move(high));
  ASSERT_TRUE(high_h.ok());

  const RequestResult* lr = low_h.value().Wait();
  ASSERT_NE(lr, nullptr);
  EXPECT_TRUE(lr->status.IsDeadlineExceeded()) << lr->status.ToString();
  EXPECT_GE(lr->preemptions, 1u);
  EXPECT_EQ(lr->resumes, 0u);

  EXPECT_TRUE(high_h.value().Cancel());
  ASSERT_NE(high_h.value().Wait(), nullptr);
  engine.WaitIdle();
  ASSERT_TRUE(engine.Shutdown().ok());
  EXPECT_EQ(engine.scheduler().active(), 0u);
  EXPECT_EQ(engine.scheduler().queued(), 0u);
  EXPECT_EQ(engine.snapshot().deadline_exceeded, 1u);
}

// A resume entry that placement rejects as never-fits must finalize through
// its parked state: the parked KV's host reservation returns, and the result
// keeps the request's progress (its preemption, prefilled tokens and steps).
// The Submit-time probe over-reports reuse (as when the matched context is
// removed before admission), so the low request is admitted on a small
// estimate; its real 120-token uncovered suffix makes the resumed footprint
// exceed the device budget.
TEST(ServingPreemptTest, NeverFitsResumeFreesParkedKv) {
  constexpr size_t kSuffix = 120;
  constexpr size_t kSteps = 32;
  PreemptFixture fx;
  const uint64_t host_baseline = fx.env.host_memory().current();
  ServingEngineOptions opts = fx.EngineOptions(1);
  opts.scheduler.gpu_budget_bytes = 64 * fx.model.KvBytesPerToken();
  opts.scheduler.placement_probe = [](std::span<const int32_t> tokens) {
    return RequestSchedulerOptions::PrefixProbeResult{tokens.size()};
  };
  ServingEngine engine(fx.db.get(), opts);
  ASSERT_TRUE(engine.Start().ok());

  // The low request holds its first token until the high one is queued, so
  // the preemption lands mid-decode.
  std::latch low_started(1);
  std::latch high_queued(1);
  ServingRequest low = fx.MakeRequest(600, kSteps, kSuffix);
  low.priority = 0;
  low.on_token = [&](size_t step, std::span<const float>) {
    if (step == 0) {
      low_started.count_down();
      high_queued.wait();
    }
  };
  auto low_h = engine.Submit(std::move(low));
  ASSERT_TRUE(low_h.ok());
  low_started.wait();

  ServingRequest high = fx.MakeRequest(601, /*steps=*/4);
  high.priority = 1;
  auto high_h = engine.Submit(std::move(high));
  high_queued.count_down();
  ASSERT_TRUE(high_h.ok());

  const RequestResult* lr = low_h.value().Wait();
  ASSERT_NE(lr, nullptr);
  EXPECT_EQ(lr->status.code(), StatusCode::kNeverFits) << lr->status.ToString();
  EXPECT_EQ(lr->preemptions, 1u);
  EXPECT_EQ(lr->resumes, 0u);
  EXPECT_EQ(lr->prefilled_tokens, kSuffix);
  EXPECT_GE(lr->steps_completed, 1u);

  const RequestResult* hr = high_h.value().Wait();
  ASSERT_NE(hr, nullptr);
  EXPECT_TRUE(hr->status.ok()) << hr->status.ToString();
  engine.WaitIdle();
  ASSERT_TRUE(engine.Shutdown().ok());
  EXPECT_EQ(engine.scheduler().active(), 0u);
  EXPECT_EQ(engine.scheduler().queued(), 0u);
  EXPECT_EQ(fx.env.host_memory().current(), host_baseline);
}

// Suspension racing retirement: victims picked from a stale running view may
// already be terminal when the suspension lands — they must retire normally
// (never strand in suspended_), and every other request must still reach a
// typed terminal state. Mixed priorities/tenants/deadlines/cancels racing the
// preempting driver from multiple threads; runs under TSan in CI.
TEST(ServingPreemptTest, PreemptionStormRacesDriver) {
  constexpr size_t kRequests = 30;
  PreemptFixture fx;
  ServingEngineOptions opts = fx.EngineOptions(3);
  opts.scheduler.tenant_weights[1] = 2.0;
  ServingEngine engine(fx.db.get(), opts);
  ASSERT_TRUE(engine.Start().ok());

  std::vector<RequestHandle> handles(kRequests);
  for (size_t i = 0; i < kRequests; ++i) {
    // Short decodes (1–6 steps) keep retirement racing suspension: a victim
    // advised this boundary is often terminal by the time it would suspend.
    ServingRequest req = fx.MakeRequest(600 + i, 1 + i % 6);
    req.priority = static_cast<int>(i % 3);
    req.tenant_id = i % 3;
    if (i % 5 == 1) req.deadline_seconds = 0.002 * static_cast<double>(1 + i % 7);
    auto h = engine.Submit(std::move(req));
    ASSERT_TRUE(h.ok()) << h.status().ToString();
    handles[i] = h.value();
  }

  std::vector<std::thread> cancellers;
  for (int t = 0; t < 2; ++t) {
    cancellers.emplace_back([&, t] {
      for (size_t i = static_cast<size_t>(t); i < kRequests; i += 2) {
        if (i % 5 == 2) handles[i].Cancel();
        std::this_thread::yield();
      }
    });
  }
  for (auto& th : cancellers) th.join();

  size_t ok = 0, cancelled = 0, expired = 0;
  for (size_t i = 0; i < kRequests; ++i) {
    const RequestResult* r = handles[i].Wait();
    ASSERT_NE(r, nullptr) << "request " << i;
    if (r->status.ok()) {
      ++ok;
      EXPECT_EQ(r->steps_completed, 1 + i % 6) << "request " << i;
    } else if (r->status.IsCancelled()) {
      ++cancelled;
    } else if (r->status.IsDeadlineExceeded()) {
      ++expired;
    } else {
      FAIL() << "untyped terminal status: " << r->status.ToString();
    }
  }
  EXPECT_EQ(ok + cancelled + expired, kRequests);
  EXPECT_GT(ok, 0u);

  engine.WaitIdle();
  ASSERT_TRUE(engine.Shutdown().ok());
  const ServingSnapshot snap = engine.snapshot();
  EXPECT_EQ(snap.completed, kRequests);
  EXPECT_EQ(snap.cancelled, cancelled);
  EXPECT_EQ(snap.deadline_exceeded, expired);
  // A preempted request either resumed or was finalized while suspended —
  // resumes can never exceed preemptions.
  EXPECT_LE(snap.resumes, snap.preemptions);
  EXPECT_EQ(engine.scheduler().active(), 0u);
  EXPECT_EQ(engine.scheduler().queued(), 0u);
  // No starvation: every tenant that submitted work was admitted, and the
  // ledger proves it.
  ASSERT_EQ(snap.tenants.size(), 3u);
  for (const TenantServingStats& t : snap.tenants) {
    EXPECT_GT(t.admitted, 0u) << "tenant " << t.tenant_id;
    EXPECT_GT(t.completed, 0u) << "tenant " << t.tenant_id;
  }
  EXPECT_DOUBLE_EQ(snap.tenants[1].weight, 2.0);
}

}  // namespace
}  // namespace alaya
