// Sharded serving: placement-aware admission across a DeviceSet. Verifies the
// ISSUE-5 acceptance bar: with devices=1 nothing changes (the engine IS the
// single-device engine), with devices=N requests spread across >= 2 devices
// while every device's reserved bytes stay under the per-device budget, and —
// the core invariant — every request's outputs are bit-identical to the
// single-device golden: placement moves sessions between devices, never their
// math. Also covers the cross-device reuse transfer (charged once, residency
// re-homed) and affinity routing to the warm device.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/common/rng.h"
#include "src/server/serving_engine.h"

namespace alaya {
namespace {

/// Like ServingFixture, but with several tenants: one stored context per
/// tenant (token sequences are prefix-disjoint), each request fully reusing
/// its tenant's context.
struct MultiDeviceFixture {
  ModelConfig model = ModelConfig::Tiny();
  size_t context_tokens = 160;
  size_t tenants = 4;
  SimEnvironment env;
  DbOptions options;
  std::unique_ptr<AlayaDB> db;
  std::vector<uint64_t> context_ids;
  ThreadPool pool{4};

  explicit MultiDeviceFixture(size_t num_tenants = 4) : tenants(num_tenants) {
    options.model = model;
    options.session.optimizer.short_context_threshold = 64;
    options.session.window = WindowConfig{8, 16};
    options.materialize_pool = &pool;
    db = std::make_unique<AlayaDB>(options, &env);
    for (size_t t = 0; t < tenants; ++t) {
      auto imported = db->Import(ContextTokens(t), MakeKv(/*seed=*/1 + t));
      EXPECT_TRUE(imported.ok()) << imported.status().ToString();
      context_ids.push_back(imported.ValueOr(0));
    }
  }

  ServingEngineOptions EngineOptions(size_t max_concurrent, size_t devices) {
    ServingEngineOptions o;
    o.scheduler.max_concurrent_sessions = max_concurrent;
    o.scheduler.devices = devices;
    o.pool = &pool;
    return o;
  }

  std::vector<int32_t> ContextTokens(size_t tenant) const {
    std::vector<int32_t> t(context_tokens);
    for (size_t i = 0; i < context_tokens; ++i) {
      t[i] = static_cast<int32_t>(1000 * (tenant + 1) + i);  // Prefix-disjoint.
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

  /// Deterministic in (seed, step, layer): the concurrent==sequential (and
  /// now any-fleet-size) determinism contract.
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
};

TEST(ServingMultiDeviceTest, FourDevicesMatchSingleDeviceGoldenBitIdentical) {
  constexpr size_t kSteps = 4;
  constexpr size_t kDevices = 4;

  // Golden: the default single-device engine.
  MultiDeviceFixture golden_fx;
  ServingEngine golden(golden_fx.db.get(), golden_fx.EngineOptions(4, 1));
  std::vector<uint64_t> gids;
  for (size_t t = 0; t < golden_fx.tenants; ++t) {
    auto h = golden.Submit(golden_fx.MakeRequest(t, 11 + t, kSteps));
    ASSERT_TRUE(h.ok()) << h.status().ToString();
    gids.push_back(h.value().id());
  }
  ASSERT_TRUE(golden.RunToCompletion().ok());
  // devices=1: one snapshot entry mirroring the aggregates.
  const ServingSnapshot gsnap = golden.snapshot();
  ASSERT_EQ(gsnap.devices.size(), 1u);
  EXPECT_EQ(gsnap.devices[0].placements, golden_fx.tenants);
  EXPECT_EQ(gsnap.devices[0].tokens_decoded, gsnap.tokens_decoded);
  EXPECT_EQ(gsnap.devices[0].peak_gpu_bytes, gsnap.peak_gpu_bytes);
  EXPECT_EQ(gsnap.devices[0].cross_device_reuses, 0u);

  // Sharded run: a per-device budget that holds exactly one projected session
  // forces best-fit to spread the four tenants across the fleet.
  MultiDeviceFixture fx;
  ServingEngineOptions opts = fx.EngineOptions(4, kDevices);
  {
    ServingEngine sizer(fx.db.get(), opts);
    opts.scheduler.gpu_budget_bytes =
        sizer.scheduler().Preflight(fx.MakeRequest(0, 11, kSteps)).estimate.gpu_bytes;
    ASSERT_GT(opts.scheduler.gpu_budget_bytes, 0u);
  }
  ServingEngine engine(fx.db.get(), opts);
  std::vector<uint64_t> ids;
  for (size_t t = 0; t < fx.tenants; ++t) {
    auto h = engine.Submit(fx.MakeRequest(t, 11 + t, kSteps));
    ASSERT_TRUE(h.ok()) << h.status().ToString();
    ids.push_back(h.value().id());
  }
  ASSERT_TRUE(engine.RunToCompletion().ok());

  // Outputs are bit-identical per request: placement changes devices, not math.
  for (size_t t = 0; t < fx.tenants; ++t) {
    const RequestResult* m = engine.result(ids[t]);
    const RequestResult* g = golden.result(gids[t]);
    ASSERT_NE(m, nullptr);
    ASSERT_NE(g, nullptr);
    ASSERT_TRUE(m->status.ok()) << m->status.ToString();
    ASSERT_TRUE(g->status.ok()) << g->status.ToString();
    EXPECT_EQ(m->steps_completed, kSteps);
    ASSERT_EQ(m->outputs.size(), g->outputs.size());
    EXPECT_EQ(m->outputs, g->outputs) << "tenant " << t;
  }

  // Distribution: sessions landed on >= 2 devices (here: all four — the
  // budget fits one session per device), every device's reservation stayed
  // under its budget, and per-device counters reconcile with the aggregates.
  const ServingSnapshot snap = engine.snapshot();
  ASSERT_EQ(snap.devices.size(), kDevices);
  size_t devices_used = 0, placements = 0, tokens = 0;
  for (const DeviceServingStats& ds : snap.devices) {
    if (ds.placements > 0) ++devices_used;
    placements += ds.placements;
    tokens += ds.tokens_decoded;
    EXPECT_LE(ds.peak_gpu_bytes, opts.scheduler.gpu_budget_bytes)
        << "device " << ds.device << " overflowed its budget";
    EXPECT_EQ(ds.reserved_bytes, 0u) << "leaked reservation on " << ds.device;
    EXPECT_EQ(ds.active_sessions, 0u);
    EXPECT_GT(ds.modeled_busy_seconds, 0.0) << "device " << ds.device << " idle";
  }
  EXPECT_GE(devices_used, 2u);
  EXPECT_EQ(devices_used, kDevices);  // One per device with this budget.
  EXPECT_EQ(placements, fx.tenants);
  EXPECT_EQ(tokens, snap.tokens_decoded);
  EXPECT_EQ(snap.tokens_decoded, fx.tenants * kSteps);
}

TEST(ServingMultiDeviceTest, CrossDeviceReuseChargesTransferAndRehomesContext) {
  // One tenant, two requests over the same stored context, per-device budget
  // holding one session: the first lands on the context's warm device 0
  // (affinity), the second spills to device 1 and pays the modeled window
  // transfer; the context's residency follows it.
  constexpr size_t kSteps = 3;
  MultiDeviceFixture fx(/*num_tenants=*/1);
  ServingEngineOptions opts = fx.EngineOptions(2, 2);
  {
    ServingEngine sizer(fx.db.get(), opts);
    opts.scheduler.gpu_budget_bytes =
        sizer.scheduler().Preflight(fx.MakeRequest(0, 7, kSteps)).estimate.gpu_bytes;
  }
  ServingEngine engine(fx.db.get(), opts);
  auto a = engine.Submit(fx.MakeRequest(0, 7, kSteps));
  auto b = engine.Submit(fx.MakeRequest(0, 8, kSteps));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_TRUE(engine.RunToCompletion().ok());
  ASSERT_TRUE(a.value().Wait()->status.ok());
  ASSERT_TRUE(b.value().Wait()->status.ok());

  const ServingSnapshot snap = engine.snapshot();
  ASSERT_EQ(snap.devices.size(), 2u);
  EXPECT_EQ(snap.devices[0].placements, 1u);
  EXPECT_EQ(snap.devices[1].placements, 1u);
  // Device 0 reused warm KV; device 1 pulled the context window across.
  EXPECT_EQ(snap.devices[0].cross_device_reuses, 0u);
  EXPECT_EQ(snap.devices[0].transfer_bytes, 0u);
  EXPECT_EQ(snap.devices[1].cross_device_reuses, 1u);
  EXPECT_GT(snap.devices[1].transfer_bytes, 0u);
  // The transfer covers the device-resident window drawn from the context.
  const WindowCache window(fx.options.session.window);
  const size_t window_tokens =
      std::min(window.Size(fx.context_tokens), fx.context_tokens);
  EXPECT_EQ(snap.devices[1].transfer_bytes,
            window_tokens * fx.model.KvBytesPerToken());
  // Residency moved with the last user (last-user-wins).
  const Context* ctx = fx.db->contexts().FindUnsafeForTest(fx.context_ids[0]);
  ASSERT_NE(ctx, nullptr);
  EXPECT_EQ(ctx->resident_device(), 1);
}

TEST(ServingMultiDeviceTest, AffinityRoutesRequestsToWarmDevices) {
  // Contexts sharded across the fleet (as if a prior run left one warm per
  // device): affinity places each tenant's request on its context's device —
  // full distribution with zero cross-device transfers and no budget pressure.
  constexpr size_t kSteps = 2;
  MultiDeviceFixture fx;
  ServingEngineOptions opts = fx.EngineOptions(4, 4);
  for (size_t t = 0; t < fx.tenants; ++t) {
    fx.db->contexts().FindShared(fx.context_ids[t])->set_resident_device(static_cast<int>(t));
  }
  ServingEngine engine(fx.db.get(), opts);
  std::vector<RequestHandle> handles;
  for (size_t t = 0; t < fx.tenants; ++t) {
    auto h = engine.Submit(fx.MakeRequest(t, 21 + t, kSteps));
    ASSERT_TRUE(h.ok());
    handles.push_back(h.value());
  }
  ASSERT_TRUE(engine.RunToCompletion().ok());
  for (RequestHandle& h : handles) ASSERT_TRUE(h.Wait()->status.ok());

  const ServingSnapshot snap = engine.snapshot();
  ASSERT_EQ(snap.devices.size(), 4u);
  for (size_t d = 0; d < 4; ++d) {
    EXPECT_EQ(snap.devices[d].placements, 1u) << "device " << d;
    EXPECT_EQ(snap.devices[d].cross_device_reuses, 0u) << "device " << d;
    EXPECT_EQ(snap.devices[d].tokens_decoded, kSteps) << "device " << d;
  }
}

TEST(ServingMultiDeviceTest, CustomPolicyNeverFitsFailsRequestTyped) {
  // A pluggable policy may declare a request permanently unplaceable at
  // admission time (heterogeneous budgets the uniform Enqueue pre-check can't
  // see). The head must not wedge the queue: it retires with a typed
  // kNeverFits result and the engine drains to idle.
  struct RejectAllPlacement : PlacementPolicy {
    PlacementDecision Place(const PlacementRequest&, std::span<const DeviceLoad>,
                            double) const override {
      PlacementDecision d;
      d.never_fits = true;
      return d;
    }
  };
  MultiDeviceFixture fx(/*num_tenants=*/1);
  ServingEngineOptions opts = fx.EngineOptions(2, 2);
  opts.scheduler.placement = std::make_shared<RejectAllPlacement>();
  ServingEngine engine(fx.db.get(), opts);
  auto h = engine.Submit(fx.MakeRequest(0, 41, 2));
  ASSERT_TRUE(h.ok());
  ASSERT_TRUE(engine.RunToCompletion().ok());
  const RequestResult* r = h.value().Wait();
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(r->status.code(), StatusCode::kNeverFits);
  EXPECT_EQ(r->steps_completed, 0u);
  EXPECT_EQ(engine.scheduler().queued(), 0u);
  EXPECT_EQ(engine.scheduler().active(), 0u);
  EXPECT_EQ(engine.snapshot().completed, 1u);
}

TEST(ServingMultiDeviceTest, StoredContextIsWarmOnItsSessionsDevice) {
  // store_on_finish on a sharded fleet: the materialized context's residency
  // is the device its session decoded on, so follow-up prompts route there.
  constexpr size_t kSteps = 3;
  MultiDeviceFixture fx(/*num_tenants=*/2);
  // Warm tenant 1's context on device 1 so its request places there.
  fx.db->contexts().FindShared(fx.context_ids[1])->set_resident_device(1);
  ServingEngineOptions opts = fx.EngineOptions(2, 2);
  ServingEngine engine(fx.db.get(), opts);
  ServingRequest req = fx.MakeRequest(1, 31, kSteps);
  req.store_on_finish = true;
  auto h = engine.Submit(std::move(req));
  ASSERT_TRUE(h.ok());
  ASSERT_TRUE(engine.RunToCompletion().ok());
  const RequestResult* r = h.value().Wait();
  ASSERT_TRUE(r->status.ok()) << r->status.ToString();
  ASSERT_NE(r->stored_context_id, 0u);

  const Context* stored = fx.db->contexts().FindUnsafeForTest(r->stored_context_id);
  ASSERT_NE(stored, nullptr);
  EXPECT_EQ(stored->resident_device(), 1);
  // And the affinity probe reports it for extended prompts.
  const ContextStore::PrefixProbe probe =
      fx.db->contexts().BestPrefixProbe(stored->tokens());
  EXPECT_EQ(probe.matched, stored->length());
  EXPECT_EQ(probe.context_id, r->stored_context_id);
  EXPECT_EQ(probe.device, 1);
}

}  // namespace
}  // namespace alaya
