// Simulated deployment: a set of GPU devices, each with tracked memory, its
// own virtual clock and cost model, plus shared host and disk tiers. One
// SimEnvironment is shared by a DB instance.
#pragma once

#include <cstddef>
#include <memory>
#include <mutex>
#include <vector>

#include "src/device/cost_model.h"
#include "src/device/memory_tracker.h"

namespace alaya {

/// One simulated GPU: byte-accurate residency tracking plus a modeled-time
/// clock and the hardware constants that drive it. Sessions bind to exactly
/// one device; everything they keep device-resident reserves bytes in
/// memory(), and every modeled kernel/transfer they run advances clock().
class Device {
 public:
  explicit Device(int id) : id_(id), memory_(MemoryTier::kGpu) {}

  Device(const Device&) = delete;
  Device& operator=(const Device&) = delete;

  int id() const { return id_; }
  MemoryTracker& memory() { return memory_; }
  const MemoryTracker& memory() const { return memory_; }
  VirtualClock& clock() { return clock_; }
  const VirtualClock& clock() const { return clock_; }
  CostModel& cost_model() { return cost_model_; }
  const CostModel& cost_model() const { return cost_model_; }

 private:
  int id_;
  MemoryTracker memory_;
  CostModel cost_model_;
  VirtualClock clock_;
};

/// The environment's device fleet. Devices are identified by dense ids
/// [0, size()); device 0 always exists and is what every single-device code
/// path (and the pre-sharding API surface) uses. Grow-only: EnsureAtLeast
/// appends, nothing is ever removed, and Device pointers/references stay
/// stable for the set's lifetime (sessions cache them).
///
/// Thread-safe: the serving engine grows the set at construction while
/// sessions on other devices hold references, and placement snapshots race
/// with admission.
class DeviceSet {
 public:
  explicit DeviceSet(size_t num_devices = 1);

  size_t size() const;

  /// Grows the fleet to at least `num_devices` devices (no-op if already
  /// there). New devices start empty with default cost models.
  void EnsureAtLeast(size_t num_devices);

  /// Device `id` in [0, size()); the reference stays valid forever.
  Device& At(size_t id);
  const Device& At(size_t id) const;

 private:
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Device>> devices_;
};

/// The simulated hardware environment (N GPUs, host DRAM, NVMe).
/// GPU-resident structures reserve bytes on their device's tracker; modeled
/// kernel and transfer durations accumulate in that device's clock. The
/// legacy single-device accessors (gpu_memory, gpu_clock, cost_model) are
/// views of device 0, so every pre-sharding caller keeps its exact behavior.
class SimEnvironment {
 public:
  explicit SimEnvironment(size_t num_devices = 1)
      : devices_(num_devices),
        host_memory_(MemoryTier::kHost),
        disk_usage_(MemoryTier::kDisk) {}

  DeviceSet& devices() { return devices_; }
  const DeviceSet& devices() const { return devices_; }
  Device& device(size_t id) { return devices_.At(id); }
  const Device& device(size_t id) const { return devices_.At(id); }
  size_t num_devices() const { return devices_.size(); }

  MemoryTracker& gpu_memory() { return devices_.At(0).memory(); }
  MemoryTracker& host_memory() { return host_memory_; }
  MemoryTracker& disk_usage() { return disk_usage_; }
  const MemoryTracker& gpu_memory() const { return devices_.At(0).memory(); }
  const MemoryTracker& host_memory() const { return host_memory_; }

  CostModel& cost_model() { return devices_.At(0).cost_model(); }
  const CostModel& cost_model() const { return devices_.At(0).cost_model(); }

  VirtualClock& gpu_clock() { return devices_.At(0).clock(); }
  const VirtualClock& gpu_clock() const { return devices_.At(0).clock(); }

  /// Process-wide default environment (single device).
  static SimEnvironment& Global();

 private:
  DeviceSet devices_;
  MemoryTracker host_memory_;
  MemoryTracker disk_usage_;
};

}  // namespace alaya
