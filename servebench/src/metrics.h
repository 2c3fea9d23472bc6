// Pure helpers behind the benchmark's numbers: percentiles and the tail rule,
// the SLO / goodput rule, and self time from nested spans. No AlayaDB
// dependency, so the self-tests (selftest.cc) exercise exactly this code.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace servebench {

/// Nearest-rank percentile (q in (0, 1]) of an unsorted sample; 0 when empty.
double Percentile(std::vector<double> values, double q);

/// A tail figure: the value at `percentile`, with the sample count behind it.
struct Tail {
  double percentile = 0.5;
  double value = 0;
  size_t samples = 0;
};

/// Candidate percentiles for the tail, lowest first.
inline constexpr double kTailLadder[] = {0.5,  0.75,  0.9,   0.95,
                                         0.99, 0.995, 0.999, 0.9999};

/// Samples strictly beyond the nearest-rank position of `q` in `n` samples.
size_t SamplesBeyond(size_t n, double q);

/// The tail: the highest ladder percentile with at least `min_beyond` samples
/// beyond it. Falls back to the median when even that has fewer.
Tail TailOf(const std::vector<double>& values, size_t min_beyond = 10);

/// One request as the SLO rule sees it.
struct RequestOutcome {
  bool ok = false;           ///< Finished with every requested token.
  double ttft_s = 0;         ///< Due time -> first token.
  double mean_gap_s = 0;     ///< Mean gap between consecutive tokens.
  size_t tokens = 0;         ///< Tokens decoded.
  double window_tokens = 0;  ///< Tokens that count toward the measured window.
};

/// Fixed latency limits of one workload.
struct SloLimits {
  double ttft_s = 0;
  double itl_s = 0;  ///< Limit on a request's mean inter-token gap.
};

/// A failed request misses; a request with one token has no gap to judge.
bool MeetsSlo(const RequestOutcome& r, const SloLimits& limits);

struct SloScore {
  size_t sent = 0;
  size_t met = 0;
  double attain = 0;       ///< met / sent (0 when nothing was sent).
  double good_tokens = 0;  ///< Window tokens of requests that met both limits.
};

SloScore ScoreSlo(const std::vector<RequestOutcome>& outcomes,
                  const SloLimits& limits);

/// One timed interval. `parent` is 0 for a root span; ids are unique and
/// non-zero. Times are microseconds on one clock.
struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;
  uint64_t track = 0;  ///< Request id (engine run) or 0 (harness).
  std::string name;
  double start_us = 0;
  double end_us = 0;
};

/// Per-name totals: self time is a span's duration minus the part of it that
/// its children cover (children clipped to the parent, overlaps merged).
struct SelfTime {
  size_t count = 0;
  double total_us = 0;
  double self_us = 0;
};

/// Microseconds of [start, end] covered by the direct children of `span`.
double CoveredByChildren(const Span& span, const std::vector<Span>& spans);

std::map<std::string, SelfTime> SelfTimes(const std::vector<Span>& spans);

}  // namespace servebench
