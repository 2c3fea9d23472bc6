// Unit tests for device placement: the pure policies (best-fit by free KV
// bytes with a warm-context affinity win; least-loaded spread) and the
// scheduler's per-device accounting built on them — per-device memory
// budgets, per-device TPOT headroom (a hot device never throttles admission
// to idle ones), and the kNeverFits front-door rejection.
#include "src/server/placement_policy.h"

#include <gtest/gtest.h>

#include "src/server/request_scheduler.h"

namespace alaya {
namespace {

DeviceLoad MakeLoad(int device, uint64_t budget, uint64_t reserved,
                    size_t sessions = 0, double step_seconds = 0) {
  DeviceLoad load;
  load.device = device;
  load.budget_bytes = budget;
  load.reserved_bytes = reserved;
  load.active_sessions = sessions;
  load.reserved_step_seconds = step_seconds;
  return load;
}

PlacementRequest MakeRequest(uint64_t bytes, double step_seconds = 0,
                             int affinity = -1) {
  PlacementRequest r;
  r.gpu_bytes = bytes;
  r.step_seconds = step_seconds;
  r.affinity_device = affinity;
  return r;
}

TEST(PlacementPolicyTest, BestFitPicksTightestFittingDevice) {
  BestFitPlacement policy;
  // Device 0 has 100 free, device 1 has 40 free, device 2 has 25 free (too
  // tight for a 30-byte request): best-fit packs onto device 1.
  const DeviceLoad loads[] = {MakeLoad(0, 100, 0, 1), MakeLoad(1, 100, 60, 1),
                              MakeLoad(2, 100, 75, 1)};
  const PlacementDecision d = policy.Place(MakeRequest(30), loads, 0);
  ASSERT_TRUE(d.placed());
  EXPECT_EQ(d.device, 1);
  EXPECT_FALSE(d.never_fits);
}

TEST(PlacementPolicyTest, BestFitBreaksTiesOnLowestDevice) {
  BestFitPlacement policy;
  const DeviceLoad loads[] = {MakeLoad(0, 100, 50), MakeLoad(1, 100, 50)};
  EXPECT_EQ(policy.Place(MakeRequest(10), loads, 0).device, 0);
  // Unlimited budgets tie at "infinite free" too: deterministic device 0.
  const DeviceLoad unlimited[] = {MakeLoad(0, 0, 0), MakeLoad(1, 0, 0)};
  EXPECT_EQ(policy.Place(MakeRequest(10), unlimited, 0).device, 0);
}

TEST(PlacementPolicyTest, AffinityWinsWheneverItFits) {
  BestFitPlacement policy;
  // Device 2 is the loosest fit — but the matched context is warm on device
  // 0, and same-device reuse skips the modeled window transfer.
  const DeviceLoad loads[] = {MakeLoad(0, 100, 10, 1), MakeLoad(1, 100, 70, 1),
                              MakeLoad(2, 100, 0, 0)};
  EXPECT_EQ(policy.Place(MakeRequest(30, 0, /*affinity=*/0), loads, 0).device, 0);

  // When the affinity device cannot hold the request, placement falls back to
  // best-fit among the rest (device 1: 30 free beats device 2's 100 free).
  const DeviceLoad full[] = {MakeLoad(0, 100, 95, 2), MakeLoad(1, 100, 70, 1),
                             MakeLoad(2, 100, 0, 0)};
  EXPECT_EQ(policy.Place(MakeRequest(30, 0, /*affinity=*/0), full, 0).device, 1);
}

TEST(PlacementPolicyTest, NeverFitsOnlyWhenNoBudgetCouldEverHold) {
  BestFitPlacement policy;
  const DeviceLoad loads[] = {MakeLoad(0, 100, 90), MakeLoad(1, 50, 0)};

  // 60 bytes: does not fit now on device 0 (10 free) and never on device 1
  // (budget 50) — but an eventual drain of device 0 frees room: retry-later.
  const PlacementDecision wait = policy.Place(MakeRequest(60), loads, 0);
  EXPECT_FALSE(wait.placed());
  EXPECT_FALSE(wait.never_fits);

  // 120 bytes exceed every device's budget outright: permanent.
  const PlacementDecision never = policy.Place(MakeRequest(120), loads, 0);
  EXPECT_FALSE(never.placed());
  EXPECT_TRUE(never.never_fits);

  // One unlimited device makes any footprint eventually placeable.
  const DeviceLoad unlimited[] = {MakeLoad(0, 100, 90), MakeLoad(1, 0, 1 << 20, 1)};
  EXPECT_FALSE(policy.Place(MakeRequest(1 << 30, 1.0, -1), unlimited, 0).never_fits);
}

TEST(PlacementPolicyTest, PerDeviceTpotExemptsIdleDevices) {
  BestFitPlacement policy;
  // Device 0 is hot (0.9s of 1.0s SLO reserved); device 1 is idle. A 0.5s
  // request does not fit device 0's headroom but lands on device 1 — and an
  // idle device admits even a request whose step time alone exceeds the SLO.
  const DeviceLoad loads[] = {MakeLoad(0, 0, 0, 2, 0.9), MakeLoad(1, 0, 0, 0, 0)};
  EXPECT_EQ(policy.Place(MakeRequest(10, 0.5), loads, 1.0).device, 1);
  EXPECT_EQ(policy.Place(MakeRequest(10, 5.0), loads, 1.0).device, 1);

  // With both devices occupied and hot, the request waits (not never_fits:
  // TPOT pressure drains).
  const DeviceLoad hot[] = {MakeLoad(0, 0, 0, 2, 0.9), MakeLoad(1, 0, 0, 1, 0.8)};
  const PlacementDecision d = policy.Place(MakeRequest(10, 0.5), hot, 1.0);
  EXPECT_FALSE(d.placed());
  EXPECT_FALSE(d.never_fits);
}

TEST(PlacementPolicyTest, BestFitSpreadsColdTrafficWhenBudgetsUnlimited) {
  BestFitPlacement policy;
  // Unlimited budgets make "free bytes" meaningless (all infinite): packing
  // tightly would send every cold request to device 0 and leave the rest of
  // the fleet idle. Ties must fall through to load spreading instead.
  const DeviceLoad loads[] = {MakeLoad(0, 0, 500, 1), MakeLoad(1, 0, 0, 0)};
  EXPECT_EQ(policy.Place(MakeRequest(10), loads, 0).device, 1);
  // Equal reserved bytes: fewer active sessions wins.
  const DeviceLoad sessions[] = {MakeLoad(0, 0, 100, 2), MakeLoad(1, 0, 100, 1)};
  EXPECT_EQ(policy.Place(MakeRequest(10), sessions, 0).device, 1);
}

// --- Scheduler integration: per-device accounting over the policy. ---

/// Store probe reporting every prompt fully stored, with no affinity.
RequestSchedulerOptions::PrefixProbeResult FullReuse(std::span<const int32_t> t) {
  return {t.size()};
}

struct SchedulerFixture {
  ModelConfig model = ModelConfig::Tiny();
  WindowConfig window{8, 16};
  CostModel cost;

  RequestScheduler Make(RequestSchedulerOptions options) {
    return RequestScheduler(model, window, cost, options);
  }

  static ServingRequest MakeServing(size_t prompt_tokens, size_t steps) {
    ServingRequest r;
    r.prompt.resize(prompt_tokens);
    for (size_t i = 0; i < prompt_tokens; ++i) r.prompt[i] = static_cast<int32_t>(i);
    r.max_new_tokens = steps;
    r.fill_step = [](size_t, uint32_t, float*, float*, float*) {};
    return r;
  }
};

TEST(PlacementSchedulerTest, AdmitAssignsDevicesAndTracksPerDeviceLoad) {
  SchedulerFixture fx;
  RequestSchedulerOptions options;
  options.devices = 2;
  // Full reuse: footprint is window + decoded tail only.
  options.placement_probe = FullReuse;
  RequestScheduler probe = fx.Make(options);
  const uint64_t one = probe.Estimate(fx.MakeServing(100, 4), 100).gpu_bytes;
  ASSERT_GT(one, 0u);

  // Per-device budget holds exactly one session: best-fit must spill the
  // second request to device 1 instead of queueing it behind device 0.
  options.gpu_budget_bytes = one;
  RequestScheduler sched = fx.Make(options);
  ASSERT_TRUE(sched.Enqueue(fx.MakeServing(100, 4)).ok());
  ASSERT_TRUE(sched.Enqueue(fx.MakeServing(100, 4)).ok());
  ASSERT_TRUE(sched.Enqueue(fx.MakeServing(100, 4)).ok());  // No room: waits.

  auto admitted = sched.Admit();
  ASSERT_EQ(admitted.size(), 2u);
  EXPECT_EQ(admitted[0].device, 0);
  EXPECT_EQ(admitted[1].device, 1);
  EXPECT_EQ(sched.queued(), 1u);

  const std::vector<DeviceLoad> loads = sched.DeviceLoads();
  ASSERT_EQ(loads.size(), 2u);
  for (const DeviceLoad& load : loads) {
    EXPECT_EQ(load.reserved_bytes, one);
    EXPECT_LE(load.reserved_bytes, options.gpu_budget_bytes);
    EXPECT_EQ(load.active_sessions, 1u);
  }
  EXPECT_EQ(sched.reserved_gpu_bytes(), 2 * one);

  // Releasing device 0's session admits the waiter — onto device 0.
  sched.Release(admitted[0].id);
  auto next = sched.Admit();
  ASSERT_EQ(next.size(), 1u);
  EXPECT_EQ(next[0].device, 0);
}

TEST(PlacementSchedulerTest, HotDeviceDoesNotThrottleIdleOnes) {
  SchedulerFixture fx;
  RequestSchedulerOptions options;
  options.devices = 2;
  options.placement_probe = FullReuse;

  // SLO fits one decode session per device but not two together: under the
  // old aggregate check the second request would queue; per-device accounting
  // admits it onto the idle device at once.
  RequestScheduler probe = fx.Make(options);
  const AdmissionEstimate e = probe.Estimate(fx.MakeServing(100, 4), 100);
  ASSERT_GT(e.EffectiveStepSeconds(), 0.0);
  options.tpot_slo_seconds = e.EffectiveStepSeconds() * 1.5;

  RequestScheduler sched = fx.Make(options);
  ASSERT_TRUE(sched.Enqueue(fx.MakeServing(100, 4)).ok());
  ASSERT_TRUE(sched.Enqueue(fx.MakeServing(100, 4)).ok());
  ASSERT_TRUE(sched.Enqueue(fx.MakeServing(100, 4)).ok());  // Both hot: waits.

  auto admitted = sched.Admit();
  ASSERT_EQ(admitted.size(), 2u);
  EXPECT_EQ(admitted[0].device, 0);
  EXPECT_EQ(admitted[1].device, 1);
  EXPECT_EQ(sched.queued(), 1u);
}

TEST(PlacementSchedulerTest, EnqueueRejectsFootprintNoDeviceCouldHold) {
  SchedulerFixture fx;
  RequestSchedulerOptions options;
  options.devices = 4;
  options.placement_probe = FullReuse;
  RequestScheduler probe = fx.Make(options);
  const uint64_t one = probe.Estimate(fx.MakeServing(100, 4), 100).gpu_bytes;

  // More devices never rescue a request that exceeds the per-device budget.
  options.gpu_budget_bytes = one - 1;
  RequestScheduler sched = fx.Make(options);
  auto rejected = sched.Enqueue(fx.MakeServing(100, 4));
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kNeverFits);
}

TEST(PlacementSchedulerTest, AffinityProbeRoutesToWarmDevice) {
  SchedulerFixture fx;
  RequestSchedulerOptions options;
  options.devices = 3;
  // Pretend the matched context is warm on device 2.
  options.placement_probe = [](std::span<const int32_t> t) {
    return RequestSchedulerOptions::PrefixProbeResult{t.size(), /*affinity_device=*/2};
  };
  RequestScheduler sched = fx.Make(options);
  ASSERT_TRUE(sched.Enqueue(fx.MakeServing(100, 4)).ok());
  auto admitted = sched.Admit();
  ASSERT_EQ(admitted.size(), 1u);
  EXPECT_EQ(admitted[0].device, 2);
}

TEST(PlacementSchedulerTest, UnlimitedBudgetSpreadsColdRequests) {
  SchedulerFixture fx;
  RequestSchedulerOptions options;
  options.devices = 2;
  options.placement_probe = FullReuse;
  RequestScheduler sched = fx.Make(options);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(sched.Enqueue(fx.MakeServing(100, 4)).ok());
  }
  auto admitted = sched.Admit();
  ASSERT_EQ(admitted.size(), 3u);
  // No budgets, no affinity: best-fit's spread tie-break alternates devices
  // instead of piling everything onto device 0.
  EXPECT_EQ(admitted[0].device, 0);
  EXPECT_EQ(admitted[1].device, 1);
  EXPECT_EQ(admitted[2].device, 0);
}

/// Adversarial policy: declares everything permanently unplaceable — the
/// custom-policy path where Enqueue's uniform-budget pre-check cannot help.
struct RejectAllPlacement : PlacementPolicy {
  PlacementDecision Place(const PlacementRequest&, std::span<const DeviceLoad>,
                          double) const override {
    PlacementDecision d;
    d.never_fits = true;
    return d;
  }
};

TEST(PlacementSchedulerTest, NeverFitsHeadIsRemovedNotStuck) {
  SchedulerFixture fx;
  RequestSchedulerOptions options;
  options.devices = 2;
  options.placement = std::make_shared<RejectAllPlacement>();
  options.placement_probe = FullReuse;
  RequestScheduler sched = fx.Make(options);
  auto a = sched.Enqueue(fx.MakeServing(50, 2));
  auto b = sched.Enqueue(fx.MakeServing(50, 2));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());

  // Neither admits, but neither wedges the queue either: both are removed
  // and surfaced for the caller to fail with a typed kNeverFits result.
  EXPECT_TRUE(sched.Admit().empty());
  EXPECT_EQ(sched.queued(), 0u);
  auto rejected = sched.TakeNeverFits();
  ASSERT_EQ(rejected.size(), 2u);
  EXPECT_EQ(rejected[0].id, a.value());
  EXPECT_EQ(rejected[1].id, b.value());
  EXPECT_TRUE(sched.TakeNeverFits().empty());  // Drained.
}

TEST(PlacementSchedulerTest, SingleDeviceDefaultsMatchLegacyBehavior) {
  // devices defaults to 1: every admission lands on device 0 and the
  // aggregate accessors reduce to the old single-tracker semantics.
  SchedulerFixture fx;
  RequestScheduler sched = fx.Make({});
  ASSERT_TRUE(sched.Enqueue(fx.MakeServing(50, 2)).ok());
  auto admitted = sched.Admit();
  ASSERT_EQ(admitted.size(), 1u);
  EXPECT_EQ(admitted[0].device, 0);
  const std::vector<DeviceLoad> loads = sched.DeviceLoads();
  ASSERT_EQ(loads.size(), 1u);
  EXPECT_EQ(loads[0].reserved_bytes, sched.reserved_gpu_bytes());
  EXPECT_DOUBLE_EQ(loads[0].reserved_step_seconds, sched.reserved_step_seconds());
}

}  // namespace
}  // namespace alaya
