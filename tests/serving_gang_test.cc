// Device gangs: context parallelism for prompts whose KV footprint exceeds
// any single device's budget. The acceptance bar: a devices=4 gang decode of
// a budget-exceeding prompt is BIT-IDENTICAL to the single-device run of the
// same prompt — the shard map assigns whole accumulation blocks and the
// ring-merged partial softmax is exact, so ganging moves residency, never
// math. Also: smallest-sufficient-gang admission (a subset budget gangs 2,
// not 4), the kNeverFits gate relaxing to the largest permitted gang's
// combined budget, >= 3x max servable context from gang 1 to gang 4,
// suspend-spill of parked KV to disk through the tier store with
// bit-identical resume (also with two engines parking into one DB), and a
// TSan-targeted multi-gang stress run.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "src/common/rng.h"
#include "src/server/serving_engine.h"

namespace alaya {
namespace {

/// One stored context per tenant (prefix-disjoint token sequences); requests
/// fully reuse their tenant's context and decode a deterministic tail.
struct GangFixture {
  ModelConfig model = ModelConfig::Tiny();
  size_t context_tokens = 160;
  size_t tenants = 1;
  SimEnvironment env;
  DbOptions options;
  std::unique_ptr<AlayaDB> db;
  std::vector<uint64_t> context_ids;
  ThreadPool pool{4};

  explicit GangFixture(size_t num_tenants = 1, uint64_t tier_host_budget = 0)
      : tenants(num_tenants) {
    options.model = model;
    options.session.optimizer.short_context_threshold = 64;
    options.session.window = WindowConfig{8, 16};
    options.materialize_pool = &pool;
    options.tier.host_budget_bytes = tier_host_budget;
    db = std::make_unique<AlayaDB>(options, &env);
    for (size_t t = 0; t < tenants; ++t) {
      auto imported = db->Import(ContextTokens(t), MakeKv(/*seed=*/1 + t));
      EXPECT_TRUE(imported.ok()) << imported.status().ToString();
      context_ids.push_back(imported.ValueOr(0));
    }
  }

  /// Host bytes the imported contexts of a `num_tenants` fixture hold. As a
  /// tier budget it keeps them resident but leaves no room for a parked KV,
  /// so every suspension parks its KV on disk through the tier store.
  static uint64_t ImportedHostBytes(size_t num_tenants) {
    GangFixture probe(num_tenants);
    return probe.env.host_memory().current();
  }

  ServingEngineOptions EngineOptions(size_t max_concurrent, size_t devices,
                                     size_t max_gang = 1) {
    ServingEngineOptions o;
    o.scheduler.max_concurrent_sessions = max_concurrent;
    o.scheduler.devices = devices;
    o.scheduler.max_gang_size = max_gang;
    o.pool = &pool;
    return o;
  }

  std::vector<int32_t> ContextTokens(size_t tenant) const {
    std::vector<int32_t> t(context_tokens);
    for (size_t i = 0; i < context_tokens; ++i) {
      t[i] = static_cast<int32_t>(1000 * (tenant + 1) + i);
    }
    return t;
  }

  std::unique_ptr<KvCache> MakeKv(uint64_t seed) const {
    auto kv = std::make_unique<KvCache>(model);
    Rng rng(seed);
    const size_t stride = model.num_kv_heads * model.head_dim;
    std::vector<float> k(stride), v(stride);
    for (uint32_t layer = 0; layer < model.num_layers; ++layer) {
      for (size_t t = 0; t < context_tokens; ++t) {
        rng.FillGaussian(k.data(), stride);
        rng.FillGaussian(v.data(), stride);
        kv->AppendToken(layer, k.data(), v.data());
      }
    }
    return kv;
  }

  ServingRequest MakeRequest(size_t tenant, uint64_t seed, size_t steps) const {
    ServingRequest r;
    r.prompt = ContextTokens(tenant);
    r.max_new_tokens = steps;
    r.record_outputs = true;
    const ModelConfig m = model;
    r.fill_step = [m, seed](size_t step, uint32_t layer, float* q, float* k,
                            float* v) {
      Rng rng(seed * 1000003ull + step * 131ull + layer);
      rng.FillGaussian(q, static_cast<size_t>(m.num_q_heads) * m.head_dim);
      rng.FillGaussian(k, static_cast<size_t>(m.num_kv_heads) * m.head_dim);
      rng.FillGaussian(v, static_cast<size_t>(m.num_kv_heads) * m.head_dim);
    };
    return r;
  }

  /// The projected device footprint of MakeRequest(0, ..., steps) — the
  /// number the per-device budget is sized against.
  uint64_t FootprintBytes(size_t steps) {
    ServingEngine sizer(db.get(), EngineOptions(1, 1));
    return sizer.scheduler().Preflight(MakeRequest(0, 1, steps)).estimate.gpu_bytes;
  }
};

/// Runs one request to completion and returns its result (asserting success).
const RequestResult* RunOne(ServingEngine* engine, ServingRequest request) {
  auto h = engine->Submit(std::move(request));
  EXPECT_TRUE(h.ok()) << h.status().ToString();
  if (!h.ok()) return nullptr;
  EXPECT_TRUE(engine->RunToCompletion().ok());
  return h.value().Wait();
}

TEST(ServingGangTest, GangOfFourBitIdenticalToSingleDeviceGolden) {
  constexpr size_t kSteps = 6;

  // Golden: unbounded single device.
  GangFixture golden_fx;
  ServingEngine golden(golden_fx.db.get(), golden_fx.EngineOptions(1, 1));
  const RequestResult* g = RunOne(&golden, golden_fx.MakeRequest(0, 11, kSteps));
  ASSERT_NE(g, nullptr);
  ASSERT_TRUE(g->status.ok()) << g->status.ToString();

  // Gang: a per-device budget in [ceil(b/4), b/3) rejects solo and every
  // smaller gang, so placement must shard across exactly four devices.
  GangFixture fx;
  const uint64_t bytes = fx.FootprintBytes(kSteps);
  ASSERT_GT(bytes, 96u);  // The interval below needs headroom to be non-empty.
  ServingEngineOptions opts = fx.EngineOptions(1, 4, /*max_gang=*/4);
  opts.scheduler.gpu_budget_bytes = bytes * 7 / 24;
  ServingEngine engine(fx.db.get(), opts);
  const RequestResult* r = RunOne(&engine, fx.MakeRequest(0, 11, kSteps));
  ASSERT_NE(r, nullptr);
  ASSERT_TRUE(r->status.ok()) << r->status.ToString();
  EXPECT_EQ(r->steps_completed, kSteps);

  // The core invariant: ganging is residency orchestration, not new math.
  ASSERT_EQ(r->outputs.size(), g->outputs.size());
  EXPECT_EQ(r->outputs, g->outputs);

  const ServingSnapshot snap = engine.snapshot();
  EXPECT_EQ(snap.gang_admissions, 1u);
  EXPECT_GT(snap.gang_ring_transfer_bytes, 0u);
  ASSERT_EQ(snap.devices.size(), 4u);
  for (const DeviceServingStats& ds : snap.devices) {
    EXPECT_EQ(ds.gang_shards, 1u) << "device " << ds.device;
    EXPECT_EQ(ds.reserved_bytes, 0u) << "leaked reservation on " << ds.device;
    EXPECT_EQ(ds.active_sessions, 0u) << "device " << ds.device;
  }
}

TEST(ServingGangTest, SubsetBudgetAdmitsSmallestSufficientGang) {
  constexpr size_t kSteps = 4;
  GangFixture golden_fx;
  ServingEngine golden(golden_fx.db.get(), golden_fx.EngineOptions(1, 1));
  const RequestResult* g = RunOne(&golden, golden_fx.MakeRequest(0, 21, kSteps));
  ASSERT_NE(g, nullptr);

  // Budget in [ceil(b/2), b): solo never fits, a pair does — with four
  // devices available, the gang must stop at two members, leaving the rest
  // of the fleet free.
  GangFixture fx;
  const uint64_t bytes = fx.FootprintBytes(kSteps);
  ServingEngineOptions opts = fx.EngineOptions(1, 4, /*max_gang=*/4);
  opts.scheduler.gpu_budget_bytes = bytes * 3 / 4;
  ServingEngine engine(fx.db.get(), opts);
  const RequestResult* r = RunOne(&engine, fx.MakeRequest(0, 21, kSteps));
  ASSERT_NE(r, nullptr);
  ASSERT_TRUE(r->status.ok()) << r->status.ToString();
  EXPECT_EQ(r->outputs, g->outputs);

  const ServingSnapshot snap = engine.snapshot();
  EXPECT_EQ(snap.gang_admissions, 1u);
  size_t members = 0;
  for (const DeviceServingStats& ds : snap.devices) {
    members += ds.gang_shards;
  }
  EXPECT_EQ(members, 2u);  // Smallest sufficient gang, not the whole fleet.
}

TEST(ServingGangTest, NeverFitsGateRelaxesToLargestPermittedGang) {
  constexpr size_t kSteps = 4;
  GangFixture fx;
  const uint64_t bytes = fx.FootprintBytes(kSteps);
  const uint64_t budget = bytes / 3;  // One device can never hold it.

  // Without gangs the request is permanently unplaceable at the front door.
  ServingEngineOptions solo = fx.EngineOptions(1, 4, /*max_gang=*/1);
  solo.scheduler.gpu_budget_bytes = budget;
  {
    ServingEngine engine(fx.db.get(), solo);
    auto h = engine.Submit(fx.MakeRequest(0, 31, kSteps));
    ASSERT_FALSE(h.ok());
    EXPECT_EQ(h.status().code(), StatusCode::kNeverFits);
  }
  // With a gang of four permitted, the same request is admissible.
  ServingEngineOptions gang = fx.EngineOptions(1, 4, /*max_gang=*/4);
  gang.scheduler.gpu_budget_bytes = budget;
  {
    ServingEngine engine(fx.db.get(), gang);
    auto h = engine.Submit(fx.MakeRequest(0, 31, kSteps));
    ASSERT_TRUE(h.ok()) << h.status().ToString();
    ASSERT_TRUE(engine.RunToCompletion().ok());
    EXPECT_TRUE(h.value().Wait()->status.ok());
    EXPECT_EQ(engine.snapshot().gang_admissions, 1u);
  }
}

/// Largest zero-reuse prompt the scheduler accepts (rather than rejecting it
/// with the permanent kNeverFits) when one request may gang up to `gang` of
/// `devices` devices, each holding `budget_bytes`.
size_t MaxServableTokens(const ModelConfig& model, const CostModel& cost,
                         uint64_t budget_bytes, size_t devices, size_t gang) {
  RequestSchedulerOptions sopts;
  sopts.gpu_budget_bytes = budget_bytes;
  sopts.devices = devices;
  sopts.max_gang_size = gang;
  // Fresh scheduler per probe: Enqueue holds no reservation, but reusing one
  // instance would trip the backlog cap long before the search converges.
  auto fits = [&](size_t tokens) {
    RequestScheduler sched(model, WindowConfig{32, 128}, cost, sopts);
    ServingRequest r;
    r.prompt.assign(tokens, 7);
    r.max_new_tokens = 1;
    r.fill_step = [](size_t, uint32_t, float*, float*, float*) {};
    return sched.Enqueue(std::move(r)).ok();
  };
  if (!fits(1)) return 0;
  size_t lo = 1, hi = 2;
  while (hi <= (size_t{1} << 24) && fits(hi)) {
    lo = hi;
    hi *= 2;
  }
  while (lo + 1 < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    (fits(mid) ? lo : hi) = mid;
  }
  return lo;
}

TEST(ServingGangTest, MaxServableContextScalesWithGangSize) {
  // Scheduler only, so deterministic: the admission boundary of one request
  // on a 4-device fleet whose per-device budget holds 512 tokens of KV
  // (bench geometry: 2 layers, 4 q-heads, 2 kv-heads, d=64). A gang of four
  // must serve at least 3x the context a single device can.
  const ModelConfig model{2, 4, 2, 64, 2};
  SimEnvironment env;
  const uint64_t budget = 512 * model.KvBytesPerToken();
  std::vector<size_t> max_tokens;
  for (size_t gang = 1; gang <= 4; ++gang) {
    max_tokens.push_back(MaxServableTokens(model, env.cost_model(), budget, 4, gang));
  }
  ASSERT_GT(max_tokens[0], 0u);
  for (size_t k = 1; k < max_tokens.size(); ++k) {
    EXPECT_GT(max_tokens[k], max_tokens[k - 1]) << "gang " << k + 1;
  }
  const double scaling =
      static_cast<double>(max_tokens[3]) / static_cast<double>(max_tokens[0]);
  EXPECT_GE(scaling, 3.0) << max_tokens[0] << " -> " << max_tokens[3] << " tokens";
}

TEST(ServingGangTest, SuspendSpillToDiskResumesBitIdentical) {
  constexpr size_t kLowSteps = 24;
  constexpr size_t kHighSteps = 2;

  // Golden: the same low-priority decode on an idle engine, never preempted.
  GangFixture golden_fx(/*num_tenants=*/1, /*tier_host_budget=*/1ull << 30);
  ServingEngine golden(golden_fx.db.get(), golden_fx.EngineOptions(1, 1));
  const RequestResult* g =
      RunOne(&golden, golden_fx.MakeRequest(0, 51, kLowSteps));
  ASSERT_NE(g, nullptr);
  ASSERT_TRUE(g->status.ok());

  // Live engine, one slot, and a tier host budget that holds the imported
  // context but no parked KV: every suspension must park its KV on disk
  // through the tier store rather than holding host DRAM.
  GangFixture fx(/*num_tenants=*/1, GangFixture::ImportedHostBytes(1));
  ASSERT_NE(fx.db->tiers(), nullptr);
  ServingEngine engine(fx.db.get(), fx.EngineOptions(1, 1));
  ASSERT_TRUE(engine.Start().ok());

  // Deterministic interleaving: the low's first decoded token parks the
  // driver until the high request is queued, so the low is provably
  // mid-decode when the high contends for the only slot — it cannot race to
  // completion on a loaded machine.
  std::atomic<size_t> low_steps{0};
  std::atomic<bool> high_submitted{false};
  ServingRequest low = fx.MakeRequest(0, 51, kLowSteps);
  low.priority = 0;
  low.on_token = [&low_steps, &high_submitted](size_t step,
                                               std::span<const float>) {
    low_steps.fetch_add(1);
    while (step == 0 && !high_submitted.load()) {
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  };
  auto lh = engine.Submit(std::move(low));
  ASSERT_TRUE(lh.ok());
  while (low_steps.load() == 0) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  ServingRequest high = fx.MakeRequest(0, 52, kHighSteps);
  high.priority = 1;
  auto hh = engine.Submit(std::move(high));
  ASSERT_TRUE(hh.ok());
  high_submitted.store(true);

  const RequestResult* hr = hh.value().Wait();
  ASSERT_NE(hr, nullptr);
  EXPECT_TRUE(hr->status.ok()) << hr->status.ToString();
  const RequestResult* lr = lh.value().Wait();
  ASSERT_NE(lr, nullptr);
  ASSERT_TRUE(lr->status.ok()) << lr->status.ToString();
  engine.WaitIdle();
  ASSERT_TRUE(engine.Shutdown().ok());

  // The low kept every decode step across the spill/restore round-trip, and
  // its outputs are bit-identical to the never-preempted golden — the
  // serializer round-trip is exact, not approximate.
  EXPECT_EQ(lr->steps_completed, kLowSteps);
  EXPECT_GE(lr->preemptions, 1u);
  EXPECT_EQ(lr->preemptions, lr->resumes);
  EXPECT_EQ(lr->outputs, g->outputs);

  const ServingSnapshot snap = engine.snapshot();
  EXPECT_GE(snap.preemptions, 1u);
  EXPECT_GE(snap.suspend_spills, 1u);
  EXPECT_EQ(snap.suspend_spills, snap.suspend_restores);
  EXPECT_EQ(snap.tier_spills, 0u);  // Parked KVs are not stored contexts.
}

TEST(ServingGangTest, TwoEnginesParkingOnOneDbResumeTheirOwnKv) {
  constexpr size_t kLowSteps = 24;
  constexpr size_t kHighSteps = 2;
  constexpr uint64_t kLowSeed[2] = {61, 62};

  // Goldens: each low-priority decode alone on an idle engine, never
  // preempted. Distinct seeds, so resuming the other engine's KV would show.
  GangFixture golden_fx(/*num_tenants=*/1, /*tier_host_budget=*/1ull << 30);
  std::vector<float> goldens[2];
  for (size_t e = 0; e < 2; ++e) {
    ServingEngine golden(golden_fx.db.get(), golden_fx.EngineOptions(1, 1));
    const RequestResult* g =
        RunOne(&golden, golden_fx.MakeRequest(0, kLowSeed[e], kLowSteps));
    ASSERT_NE(g, nullptr);
    ASSERT_TRUE(g->status.ok());
    goldens[e] = g->outputs;
  }

  // Two one-slot engines over ONE DB whose tier budget leaves no room for a
  // parked KV. Each engine numbers its requests from 1, so both low requests
  // carry the same engine-local id; the tier store's parked keys must not.
  GangFixture fx(/*num_tenants=*/1, GangFixture::ImportedHostBytes(1));
  TieredContextStore* tiers = fx.db->tiers();
  ASSERT_NE(tiers, nullptr);
  const uint64_t disk_before = fx.env.disk_usage().current();
  auto wait_until = [](auto done) {
    while (!done()) std::this_thread::sleep_for(std::chrono::microseconds(50));
  };
  auto parked = [tiers] { return tiers->stats().parked_spills; };
  // Gate state the drivers' on_token callbacks read: declared before the
  // engines so it outlives their drivers on every exit path.
  std::atomic<bool> high_queued[2] = {false, false};
  std::atomic<size_t> low_steps[2] = {0, 0};
  ThreadPool pool_b(2);
  ServingEngineOptions opts_b = fx.EngineOptions(1, 1);
  opts_b.pool = &pool_b;
  ServingEngine engines[2] = {{fx.db.get(), fx.EngineOptions(1, 1)},
                              {fx.db.get(), opts_b}};

  // The on_token gates fix the order: A spills, then B spills, then A
  // resumes, then B resumes.
  //   - Each low's first token parks its driver until its engine's high is
  //     queued, so the next step boundary preempts the low mid-decode.
  //   - A's high holds A's driver until B has parked too: A cannot resume
  //     before B spills.
  //   - B's high holds B's driver until A's low decoded a token after its
  //     resume.
  ServingRequest low[2], high[2];
  for (size_t e = 0; e < 2; ++e) {
    low[e] = fx.MakeRequest(0, kLowSeed[e], kLowSteps);
    low[e].on_token = [&, e](size_t step, std::span<const float>) {
      low_steps[e].fetch_add(1);
      wait_until([&] { return step > 0 || high_queued[e].load(); });
    };
    high[e] = fx.MakeRequest(0, 70 + e, kHighSteps);
    high[e].priority = 1;
  }
  high[0].on_token = [&](size_t step, std::span<const float>) {
    wait_until([&] { return step > 0 || parked() >= 2; });
  };
  high[1].on_token = [&](size_t step, std::span<const float>) {
    wait_until([&] { return step > 0 || low_steps[0].load() >= 2; });
  };

  RequestHandle low_h[2], high_h[2];
  for (size_t e = 0; e < 2; ++e) {
    ASSERT_TRUE(engines[e].Start().ok());
    auto l = engines[e].Submit(std::move(low[e]));
    ASSERT_TRUE(l.ok());
    low_h[e] = l.value();
    wait_until([&] { return low_steps[e].load() >= 1; });
    auto h = engines[e].Submit(std::move(high[e]));
    ASSERT_TRUE(h.ok());
    high_h[e] = h.value();
    high_queued[e].store(true);
    wait_until([&] { return parked() >= e + 1; });  // Engine e has spilled.
  }

  for (size_t e = 0; e < 2; ++e) {
    SCOPED_TRACE(testing::Message() << "engine " << e);
    const RequestResult* hr = high_h[e].Wait();
    ASSERT_NE(hr, nullptr);
    EXPECT_TRUE(hr->status.ok()) << hr->status.ToString();
    const RequestResult* lr = low_h[e].Wait();
    ASSERT_NE(lr, nullptr);
    ASSERT_TRUE(lr->status.ok()) << lr->status.ToString();
    EXPECT_EQ(lr->steps_completed, kLowSteps);
    EXPECT_EQ(lr->preemptions, 1u);
    EXPECT_EQ(lr->resumes, 1u);
    EXPECT_EQ(lr->outputs, goldens[e]);
    ASSERT_TRUE(engines[e].Shutdown().ok());
  }

  // Both parked KVs went through the tier store and came back; the counters
  // are DB-wide, so both engines report them, and the disk tier is empty again.
  const TieredContextStore::Stats ts = tiers->stats();
  EXPECT_EQ(ts.parked_spills, 2u);
  EXPECT_EQ(ts.parked_restores, 2u);
  EXPECT_EQ(ts.spills, 0u);
  for (const ServingEngine& engine : engines) {
    EXPECT_EQ(engine.snapshot().suspend_spills, 2u);
    EXPECT_EQ(engine.snapshot().suspend_restores, 2u);
  }
  EXPECT_EQ(fx.env.disk_usage().current(), disk_before);
}

TEST(ServingGangTest, MultiGangStressAllComplete) {
  constexpr size_t kSteps = 4;
  constexpr size_t kRequests = 8;

  // Per-request goldens on an unbounded single device.
  GangFixture golden_fx(/*num_tenants=*/2);
  std::vector<std::vector<float>> goldens;
  for (size_t i = 0; i < kRequests; ++i) {
    ServingEngine golden(golden_fx.db.get(), golden_fx.EngineOptions(1, 1));
    const RequestResult* g =
        RunOne(&golden, golden_fx.MakeRequest(i % 2, 100 + i, kSteps));
    ASSERT_NE(g, nullptr);
    ASSERT_TRUE(g->status.ok());
    goldens.push_back(g->outputs);
  }

  // Budget in [ceil(b/2), b): no request fits solo, so every admission gangs
  // at least two devices — and concurrent residents can widen a later gang
  // (smallest sufficient given CURRENT free bytes, not geometry alone). The
  // TSan target: concurrent gang admissions, per-member charging, ring
  // accounting and release must all be race-free.
  GangFixture fx(/*num_tenants=*/2);
  const uint64_t bytes = fx.FootprintBytes(kSteps);
  ServingEngineOptions opts = fx.EngineOptions(4, 4, /*max_gang=*/4);
  opts.scheduler.gpu_budget_bytes = bytes * 3 / 4;
  ServingEngine engine(fx.db.get(), opts);
  ASSERT_TRUE(engine.Start().ok());

  std::vector<RequestHandle> handles(kRequests);
  std::vector<std::thread> submitters;
  for (size_t t = 0; t < 2; ++t) {
    submitters.emplace_back([&, t] {
      for (size_t i = t; i < kRequests; i += 2) {
        auto h = engine.Submit(fx.MakeRequest(i % 2, 100 + i, kSteps));
        ASSERT_TRUE(h.ok()) << h.status().ToString();
        handles[i] = h.value();
      }
    });
  }
  for (std::thread& th : submitters) th.join();
  for (size_t i = 0; i < kRequests; ++i) {
    const RequestResult* r = handles[i].Wait();
    ASSERT_NE(r, nullptr);
    ASSERT_TRUE(r->status.ok()) << "request " << i << ": " << r->status.ToString();
    EXPECT_EQ(r->steps_completed, kSteps);
    EXPECT_EQ(r->outputs, goldens[i]) << "request " << i;
  }
  engine.WaitIdle();
  ASSERT_TRUE(engine.Shutdown().ok());

  const ServingSnapshot snap = engine.snapshot();
  EXPECT_EQ(snap.gang_admissions, kRequests);
  size_t shards = 0;
  for (const DeviceServingStats& ds : snap.devices) shards += ds.gang_shards;
  EXPECT_GE(shards, kRequests * 2);  // Every admission spanned >= 2 members.
  EXPECT_GT(snap.gang_ring_transfer_bytes, 0u);
}

}  // namespace
}  // namespace alaya
