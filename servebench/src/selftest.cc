// Self-tests of the benchmark's own helpers: tail-percentile selection, the
// SLO / goodput rule (failures count as misses), and self time from nested
// spans. run.py runs this before every benchmark run; a failure stops it.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <vector>

#include "metrics.h"
#include "trace.h"

using namespace servebench;

namespace {

int g_failures = 0;

void Check(bool ok, const char* what, int line) {
  if (!ok) {
    std::fprintf(stderr, "selftest FAILED line %d: %s\n", line, what);
    ++g_failures;
  }
}
#define CHECK(cond) Check((cond), #cond, __LINE__)

bool Near(double a, double b) { return std::fabs(a - b) < 1e-9; }

std::vector<double> Iota(size_t n) {
  std::vector<double> v;
  for (size_t i = 1; i <= n; ++i) v.push_back(static_cast<double>(i));
  return v;
}

void TestPercentile() {
  CHECK(Percentile({}, 0.5) == 0);
  CHECK(Near(Percentile({3, 1, 2}, 0.5), 2));
  CHECK(Near(Percentile(Iota(100), 0.99), 99));
  CHECK(Near(Percentile(Iota(100), 1.0), 100));
  CHECK(Near(Percentile(Iota(10), 0.05), 1));
}

void TestTail() {
  // 100 samples: p90 leaves exactly 10 beyond it, p95 only 5.
  CHECK(SamplesBeyond(100, 0.9) == 10);
  CHECK(SamplesBeyond(100, 0.95) == 5);
  Tail t = TailOf(Iota(100));
  CHECK(Near(t.percentile, 0.9));
  CHECK(Near(t.value, 90));
  CHECK(t.samples == 100);
  // 99 samples: p90 leaves 9 beyond, so the tail falls to p75.
  t = TailOf(Iota(99));
  CHECK(Near(t.percentile, 0.75));
  // 20000 samples: p99.9 leaves 20, p99.99 leaves 2.
  t = TailOf(Iota(20000));
  CHECK(Near(t.percentile, 0.999));
  CHECK(Near(t.value, 19980));
  // Too few samples for any tail: the median stands in.
  t = TailOf(Iota(5));
  CHECK(Near(t.percentile, 0.5));
  CHECK(Near(t.value, 3));
  // Input order does not matter.
  std::vector<double> rev = Iota(1000);
  std::vector<double> fwd = rev;
  std::reverse(rev.begin(), rev.end());
  CHECK(Near(TailOf(rev).value, TailOf(fwd).value));
}

void TestSlo() {
  const SloLimits limits{0.100, 0.010};
  RequestOutcome good{true, 0.050, 0.005, 10, 10};
  RequestOutcome slow_first{true, 0.150, 0.005, 10, 10};
  RequestOutcome slow_gaps{true, 0.050, 0.020, 10, 10};
  RequestOutcome failed{false, 0.010, 0.001, 10, 10};
  RequestOutcome one_token{true, 0.050, 0.0, 1, 1};
  CHECK(MeetsSlo(good, limits));
  CHECK(!MeetsSlo(slow_first, limits));
  CHECK(!MeetsSlo(slow_gaps, limits));
  CHECK(!MeetsSlo(failed, limits));  // Fast but failed: a miss.
  CHECK(MeetsSlo(one_token, limits));
  // Limits are inclusive.
  CHECK(MeetsSlo(RequestOutcome{true, 0.100, 0.010, 5, 5}, limits));

  const SloScore s = ScoreSlo({good, slow_first, slow_gaps, failed, one_token}, limits);
  CHECK(s.sent == 5);
  CHECK(s.met == 2);
  CHECK(Near(s.attain, 0.4));
  CHECK(Near(s.good_tokens, 11));  // Only the good requests' window tokens.
  CHECK(ScoreSlo({}, limits).attain == 0);
}

void TestSelfTime() {
  // root [0, 100] with children a [10, 40] and b [30, 60] (overlapping) and
  // c [90, 120] (clipped at 100); a has a grandchild [15, 25].
  std::vector<Span> spans = {
      {1, 0, 0, "root", 0, 100},   {2, 1, 0, "a", 10, 40},
      {3, 1, 0, "b", 30, 60},      {4, 1, 0, "c", 90, 120},
      {5, 2, 0, "leaf", 15, 25},
  };
  CHECK(Near(CoveredByChildren(spans[0], spans), 60));  // [10,60] + [90,100].
  const auto table = SelfTimes(spans);
  CHECK(Near(table.at("root").self_us, 40));
  CHECK(Near(table.at("root").total_us, 100));
  CHECK(Near(table.at("a").self_us, 20));
  CHECK(Near(table.at("b").self_us, 30));
  CHECK(Near(table.at("c").self_us, 30));
  CHECK(Near(table.at("leaf").self_us, 10));
  // Self times of a tree add up to the root's wall time when children stay
  // inside their parents.
  std::vector<Span> nested = {{1, 0, 0, "step", 0, 50}, {2, 1, 0, "x", 0, 20},
                              {3, 1, 0, "x", 20, 45}, {4, 3, 0, "y", 25, 30}};
  double sum = 0;
  for (const auto& [name, t] : SelfTimes(nested)) sum += t.self_us;
  CHECK(Near(sum, 50));
  CHECK(SelfTimes(nested).at("x").count == 2);
}

void TestSpanLog() {
  SpanLog log;
  {
    auto outer = log.Open("outer");
    { auto inner = log.Open("inner"); }
    { auto inner2 = log.Open("inner"); }
  }
  { auto root2 = log.Open("root2"); }
  const auto& s = log.spans();
  CHECK(s.size() == 4);
  CHECK(s[0].parent == 0);
  CHECK(s[1].parent == s[0].id);
  CHECK(s[2].parent == s[0].id);
  CHECK(s[3].parent == 0);
  CHECK(s[0].end_us >= s[2].end_us);
}

}  // namespace

int main() {
  TestPercentile();
  TestTail();
  TestSlo();
  TestSelfTime();
  TestSpanLog();
  if (g_failures != 0) {
    std::fprintf(stderr, "servebench selftest: %d failure(s)\n", g_failures);
    return 1;
  }
  std::fprintf(stderr, "servebench selftest OK\n");
  return 0;
}
