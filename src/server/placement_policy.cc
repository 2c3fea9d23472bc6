#include "src/server/placement_policy.h"

#include <algorithm>
#include <functional>

namespace alaya {

bool DeviceFits(const PlacementRequest& request, const DeviceLoad& load,
                double tpot_slo_seconds) {
  if (load.budget_bytes > 0 &&
      load.reserved_bytes + request.gpu_bytes > load.budget_bytes) {
    return false;
  }
  // Per-device TPOT: a hot device stops accepting co-tenants, but an idle one
  // admits anything budget-feasible — mirrors the single-device scheduler's
  // "a request exceeding the SLO alone still runs, alone" rule, per device.
  if (tpot_slo_seconds > 0 && load.active_sessions > 0 &&
      load.reserved_step_seconds + request.step_seconds > tpot_slo_seconds) {
    return false;
  }
  return true;
}

namespace {

/// True when the request's footprint exceeds every device's budget outright —
/// waiting can never help, the scheduler's permanent-rejection signal.
bool NeverFits(const PlacementRequest& request, std::span<const DeviceLoad> loads) {
  for (const DeviceLoad& load : loads) {
    if (load.budget_bytes == 0 || request.gpu_bytes <= load.budget_bytes) {
      return false;
    }
  }
  return !loads.empty();
}

PlacementDecision Decide(const PlacementRequest& request,
                         std::span<const DeviceLoad> loads, int best) {
  PlacementDecision out;
  if (best >= 0) {
    out.device = best;
  } else {
    out.never_fits = NeverFits(request, loads);
  }
  return out;
}

}  // namespace

PlacementDecision BestFitPlacement::Place(const PlacementRequest& request,
                                          std::span<const DeviceLoad> loads,
                                          double tpot_slo_seconds) const {
  int best = -1;
  uint64_t best_free = 0;
  uint64_t best_reserved = 0;
  size_t best_sessions = 0;
  for (const DeviceLoad& load : loads) {
    if (!DeviceFits(request, load, tpot_slo_seconds)) continue;
    if (load.device == request.affinity_device) {
      // Warm KV wins outright: same-device reuse skips the modeled
      // cross-device window transfer no packing score can buy back.
      return Decide(request, loads, load.device);
    }
    // Tightest fit by free bytes. With unlimited budgets every device's free
    // space is "infinite" and packing is meaningless, so ties fall through to
    // load spreading (fewer reserved bytes, then fewer sessions) — otherwise
    // cold traffic on an unbudgeted fleet would all pile onto device 0.
    // Final tie: lowest device id (deterministic).
    const uint64_t free = load.FreeBytes();
    const bool better =
        best < 0 || free < best_free ||
        (free == best_free &&
         (load.reserved_bytes < best_reserved ||
          (load.reserved_bytes == best_reserved &&
           load.active_sessions < best_sessions)));
    if (better) {
      best = load.device;
      best_free = free;
      best_reserved = load.reserved_bytes;
      best_sessions = load.active_sessions;
    }
  }
  return Decide(request, loads, best);
}

namespace {

/// Gang-aware permanent rejection: true only when even the largest permitted
/// gang over the biggest-budget devices cannot hold the request against EMPTY
/// budgets. Any unlimited (budget 0) device means "fits eventually".
bool GangNeverFits(const PlacementRequest& request,
                   std::span<const DeviceLoad> loads, size_t k_max) {
  if (loads.empty()) return false;
  std::vector<uint64_t> budgets;
  budgets.reserve(loads.size());
  for (const DeviceLoad& load : loads) {
    if (load.budget_bytes == 0) return false;
    budgets.push_back(load.budget_bytes);
  }
  std::sort(budgets.begin(), budgets.end(), std::greater<uint64_t>());
  for (size_t k = 1; k <= std::min(k_max, budgets.size()); ++k) {
    const uint64_t share = (request.gpu_bytes + k - 1) / k;
    // budgets is descending, so the k-th device is the gang's tightest member.
    if (share <= budgets[k - 1]) return false;
  }
  return true;
}

}  // namespace

GangPlacement::GangPlacement(size_t max_gang_size,
                             std::shared_ptr<const PlacementPolicy> single)
    : max_gang_size_(max_gang_size),
      single_(single != nullptr ? std::move(single)
                                : std::make_shared<BestFitPlacement>()) {}

PlacementDecision GangPlacement::Place(const PlacementRequest& request,
                                       std::span<const DeviceLoad> loads,
                                       double tpot_slo_seconds) const {
  // Single device when it fits — gangs pay ring-exchange overhead, so they
  // are strictly the fallback for requests one device cannot hold.
  PlacementDecision solo = single_->Place(request, loads, tpot_slo_seconds);
  if (solo.placed()) return solo;

  const size_t k_max =
      std::min(max_gang_size_ == 0 ? loads.size() : max_gang_size_, loads.size());
  if (k_max >= 2) {
    // Candidate order: warm-shard affinity first (resuming on the device that
    // already holds the context's KV skips a window transfer), then most free
    // bytes, then lowest id — deterministic under the scheduler lock.
    std::vector<const DeviceLoad*> order;
    order.reserve(loads.size());
    for (const DeviceLoad& load : loads) order.push_back(&load);
    std::sort(order.begin(), order.end(),
              [&](const DeviceLoad* a, const DeviceLoad* b) {
                const bool aa = a->device == request.affinity_device;
                const bool bb = b->device == request.affinity_device;
                if (aa != bb) return aa;
                const uint64_t fa = a->FreeBytes();
                const uint64_t fb = b->FreeBytes();
                if (fa != fb) return fa > fb;
                return a->device < b->device;
              });
    for (size_t k = 2; k <= k_max; ++k) {
      // Smallest sufficient gang: every member holds an even 1/k share.
      PlacementRequest share = request;
      share.gpu_bytes = (request.gpu_bytes + k - 1) / k;
      share.step_seconds = request.step_seconds / static_cast<double>(k);
      share.affinity_device = -1;
      bool all_fit = true;
      for (size_t i = 0; i < k && all_fit; ++i) {
        all_fit = DeviceFits(share, *order[i], tpot_slo_seconds);
      }
      if (!all_fit) continue;
      PlacementDecision out;
      out.gang_members.reserve(k);
      for (size_t i = 0; i < k; ++i) out.gang_members.push_back(order[i]->device);
      // Primary = the affinity member when present (sorted to the front),
      // else the freest device; the rest ascend by id so the shard order is
      // deterministic.
      std::sort(out.gang_members.begin() + 1, out.gang_members.end());
      out.device = out.gang_members.front();
      return out;
    }
  }

  PlacementDecision out;
  out.never_fits = GangNeverFits(request, loads, std::max<size_t>(k_max, 1));
  return out;
}

}  // namespace alaya
