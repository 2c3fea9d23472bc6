// Wall-clock timing helpers.
#pragma once

#include <chrono>
#include <cstdint>

namespace alaya {

/// Monotonic stopwatch.
class WallTimer {
 public:
  WallTimer() { Restart(); }

  void Restart() { start_ = Clock::now(); }

  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }
  uint64_t ElapsedNanos() const {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - start_)
            .count());
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

/// Accumulates durations across start/stop pairs (e.g., per-phase breakdowns).
class AccumTimer {
 public:
  void Start() { timer_.Restart(); }
  void Stop() { total_seconds_ += timer_.ElapsedSeconds(); }
  void Reset() { total_seconds_ = 0.0; }
  double TotalSeconds() const { return total_seconds_; }
  double TotalMillis() const { return total_seconds_ * 1e3; }

 private:
  WallTimer timer_;
  double total_seconds_ = 0.0;
};

}  // namespace alaya
