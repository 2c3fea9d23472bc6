// Pluggable device placement for admission control.
//
// With a sharded SimEnvironment every admitted request must land on exactly
// one device: the scheduler tracks per-device reserved KV bytes and per-device
// projected step seconds, and asks a PlacementPolicy to pick the device for
// the queue head. Policies are pure functions over a load snapshot — no locks,
// no clocks — so they are trivially testable and swappable per engine.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

namespace alaya {

/// One device's admission-relevant load, snapshotted under the scheduler lock.
struct DeviceLoad {
  int device = 0;
  /// Per-device KV budget (0 = unlimited).
  uint64_t budget_bytes = 0;
  /// Sum of admitted requests' projected device bytes on this device.
  uint64_t reserved_bytes = 0;
  /// Sum of admitted requests' projected per-step device seconds here.
  double reserved_step_seconds = 0;
  /// Admitted requests currently placed on this device.
  size_t active_sessions = 0;

  uint64_t FreeBytes() const {
    if (budget_bytes == 0) return UINT64_MAX;
    return budget_bytes > reserved_bytes ? budget_bytes - reserved_bytes : 0;
  }
};

/// The candidate request, reduced to what placement needs.
struct PlacementRequest {
  /// Projected device-resident KV bytes at completion (AdmissionEstimate).
  uint64_t gpu_bytes = 0;
  /// Projected per-engine-step device seconds (EffectiveStepSeconds).
  double step_seconds = 0;
  /// Device where the request's best-prefix context currently resides, or -1
  /// when no stored context matched. Placing the session there reuses warm KV;
  /// anywhere else pays a modeled cross-device window transfer.
  int affinity_device = -1;
};

/// Outcome of one placement attempt.
struct PlacementDecision {
  /// Chosen device id; < 0 when the request cannot be placed right now.
  int device = -1;
  /// True when no device could EVER hold the request (its footprint exceeds
  /// every device's budget outright — for gang-aware policies, even the
  /// largest permitted gang's combined budget) — the scheduler's kNeverFits
  /// signal. When false and device < 0, the request waits for load to drain.
  bool never_fits = false;
  /// Context parallelism: when the request was placed across a device gang,
  /// every member id with the primary first (gang_members[0] == device).
  /// Empty for ordinary single-device placements.
  std::vector<int> gang_members;

  bool placed() const { return device >= 0; }
  bool gang() const { return gang_members.size() > 1; }
};

/// Strategy interface. Implementations must be deterministic in their inputs
/// (placement feeds the engine's reproducibility goldens) and must place a
/// feasible request on an all-idle fleet (the scheduler's no-starvation
/// guarantee leans on it). Called under the scheduler lock: keep it cheap and
/// reentrant (const, no shared mutable state).
class PlacementPolicy {
 public:
  virtual ~PlacementPolicy() = default;

  /// Picks a device for `request` given the fleet's `loads` and the optional
  /// per-device TPOT SLO (`tpot_slo_seconds`, 0 = none). A device "fits" when
  /// the request's bytes fit its remaining budget AND adding its step seconds
  /// keeps the device under the SLO — except that an idle (empty) device
  /// always fits a budget-feasible request, so an oversized-per-step request
  /// still runs somewhere alone instead of starving.
  virtual PlacementDecision Place(const PlacementRequest& request,
                                  std::span<const DeviceLoad> loads,
                                  double tpot_slo_seconds) const = 0;
};

/// Default policy: best-fit by free KV bytes, with an affinity bonus.
/// If the affinity device fits, it wins outright (warm KV beats packing —
/// cross-device reuse pays a modeled window transfer). Otherwise the fitting
/// device with the LEAST free bytes wins (classic best-fit: pack tight, keep
/// big devices free for big requests); free-byte ties — always, when budgets
/// are unlimited — spread by load instead (fewest reserved bytes, then
/// fewest active sessions), and the final tie breaks on the lowest device id,
/// so placement is deterministic.
class BestFitPlacement : public PlacementPolicy {
 public:
  PlacementDecision Place(const PlacementRequest& request,
                          std::span<const DeviceLoad> loads,
                          double tpot_slo_seconds) const override;
};

/// Gang-aware placement (context parallelism): single device when the request
/// fits one, the smallest sufficient gang otherwise. Single-device placement
/// delegates to an inner policy (BestFitPlacement by default, affinity bonus
/// included). When no single device fits, the request's footprint is split
/// evenly across candidate gangs of growing size k = 2..max_gang_size; the
/// first k whose top-k devices (most free bytes first, warm-shard affinity
/// preferred into the set and promoted to primary) each hold a 1/k share
/// wins. never_fits only fires when even the largest permitted gang of the
/// biggest-budget devices could not hold the request against EMPTY budgets —
/// so kNeverFits means "no gang can ever hold this", not "busy right now".
class GangPlacement : public PlacementPolicy {
 public:
  /// `max_gang_size` 0 means "the whole fleet". `single` is the policy used
  /// for requests that fit one device (null = BestFitPlacement).
  explicit GangPlacement(size_t max_gang_size = 0,
                         std::shared_ptr<const PlacementPolicy> single = nullptr);

  PlacementDecision Place(const PlacementRequest& request,
                          std::span<const DeviceLoad> loads,
                          double tpot_slo_seconds) const override;

 private:
  size_t max_gang_size_;
  std::shared_ptr<const PlacementPolicy> single_;
};

/// Shared fit predicate: budget + per-device TPOT (empty device exempt).
bool DeviceFits(const PlacementRequest& request, const DeviceLoad& load,
                double tpot_slo_seconds);

}  // namespace alaya
