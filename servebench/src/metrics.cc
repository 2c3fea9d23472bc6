#include "metrics.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>
#include <utility>

namespace servebench {

namespace {

// 1-based nearest rank of percentile q among n samples.
size_t NearestRank(size_t n, double q) {
  const double r = std::ceil(q * static_cast<double>(n) - 1e-9);
  return std::clamp<size_t>(static_cast<size_t>(std::max(r, 1.0)), 1, n);
}

}  // namespace

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  const size_t rank = NearestRank(values.size(), q);
  std::nth_element(values.begin(), values.begin() + static_cast<long>(rank - 1),
                   values.end());
  return values[rank - 1];
}

size_t SamplesBeyond(size_t n, double q) {
  return n == 0 ? 0 : n - NearestRank(n, q);
}

Tail TailOf(const std::vector<double>& values, size_t min_beyond) {
  Tail t;
  t.samples = values.size();
  for (double q : kTailLadder) {
    if (SamplesBeyond(values.size(), q) >= min_beyond) t.percentile = q;
  }
  t.value = Percentile(values, t.percentile);
  return t;
}

bool MeetsSlo(const RequestOutcome& r, const SloLimits& limits) {
  if (!r.ok) return false;
  if (r.ttft_s > limits.ttft_s) return false;
  return r.tokens < 2 || r.mean_gap_s <= limits.itl_s;
}

SloScore ScoreSlo(const std::vector<RequestOutcome>& outcomes,
                  const SloLimits& limits) {
  SloScore s;
  s.sent = outcomes.size();
  for (const RequestOutcome& r : outcomes) {
    if (!MeetsSlo(r, limits)) continue;
    ++s.met;
    s.good_tokens += r.window_tokens;
  }
  s.attain = s.sent == 0 ? 0 : static_cast<double>(s.met) / static_cast<double>(s.sent);
  return s;
}

double CoveredByChildren(const Span& span, const std::vector<Span>& spans) {
  std::vector<std::pair<double, double>> iv;
  for (const Span& c : spans) {
    if (c.parent != span.id || c.id == span.id) continue;
    const double lo = std::max(c.start_us, span.start_us);
    const double hi = std::min(c.end_us, span.end_us);
    if (hi > lo) iv.emplace_back(lo, hi);
  }
  std::sort(iv.begin(), iv.end());
  double covered = 0;
  double cur_lo = 0, cur_hi = -1;
  bool open = false;
  for (const auto& [lo, hi] : iv) {
    if (open && lo <= cur_hi) {
      cur_hi = std::max(cur_hi, hi);
      continue;
    }
    if (open) covered += cur_hi - cur_lo;
    cur_lo = lo;
    cur_hi = hi;
    open = true;
  }
  if (open) covered += cur_hi - cur_lo;
  return covered;
}

std::map<std::string, SelfTime> SelfTimes(const std::vector<Span>& spans) {
  // Group children by parent once so the whole table is O(n log n).
  std::unordered_map<uint64_t, std::vector<Span>> children;
  for (const Span& s : spans) {
    if (s.parent != 0) children[s.parent].push_back(s);
  }
  std::map<std::string, SelfTime> table;
  static const std::vector<Span> kNone;
  for (const Span& s : spans) {
    const auto it = children.find(s.id);
    const double dur = std::max(0.0, s.end_us - s.start_us);
    const double covered =
        CoveredByChildren(s, it == children.end() ? kNone : it->second);
    SelfTime& t = table[s.name];
    ++t.count;
    t.total_us += dur;
    t.self_us += dur - covered;
  }
  return table;
}

}  // namespace servebench
