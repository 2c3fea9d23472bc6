// Figure 12: micro-benchmark of filter-based DIPRS for partial context reuse
// (§7.1). The reused prefix is fixed while the stored context (= index size)
// grows, dropping the reuse ratio from 100% to 20%. Reported: recall of the
// filtered search against an exact filtered scan, and per-query latency.
#include <cstdio>

#include "bench/bench_util.h"
#include "src/common/timer.h"
#include "src/index/flat_index.h"
#include "src/index/roargraph.h"
#include "src/query/diprs.h"

namespace alaya {
namespace {

void Run() {
  bench::Header("Figure 12", "filter-based DIPRS: recall & latency vs reuse ratio");
  ModelConfig model{1, 2, 1, 64, 2};
  const size_t kPrefix = 4000;  // Paper: 40K; scaled 1/10.
  std::printf("prefix fixed at %zu tokens (paper: 40K)\n", kPrefix);
  std::printf("%-12s %-12s %10s %14s\n", "index_size", "reuse", "recall",
              "latency(ms)");

  for (double ratio : {1.0, 0.8, 0.6, 0.4, 0.2}) {
    const size_t stored = static_cast<size_t>(kPrefix / ratio);
    WorkloadSpec spec = FindTask(InfinityBenchSuite(1.0), "En.QA");
    spec.context_tokens = stored;
    spec.decode_steps = 8;
    SyntheticContext ctx = bench::MakeContext(spec, model);

    RoarGraphOptions ropts;
    RoarGraph graph(ctx.kv().Keys(0, 0), ropts);
    auto training = ctx.MakeTrainingQueries(stored * 2 / 10);
    if (!graph.BuildFromQueries(training->View(0, 0)).ok()) std::abort();

    FlatIndex flat(ctx.kv().Keys(0, 0));
    IdFilter filter;
    filter.prefix_len = static_cast<uint32_t>(kPrefix);
    DiprParams params;
    params.beta = static_cast<float>(SuggestedDiprBeta(spec, model.head_dim));
    params.l0 = 128;

    double recall_sum = 0;
    size_t recall_n = 0;
    AccumTimer latency;
    std::vector<float> q(model.head_dim);
    for (size_t step = 0; step < spec.decode_steps; ++step) {
      ctx.MakeDecodeQuery(step, 0, 0, q.data());
      // Exact filtered DIPR (oracle).
      SearchResult oracle;
      if (!flat.SearchDipr(q.data(), params, filter, &oracle).ok()) {
        std::abort();
      }
      latency.Start();
      SearchResult got = DiprsSearch(graph.graph(), graph.vectors(),
                                     graph.entry_point(), q.data(), params, filter);
      latency.Stop();
      if (oracle.hits.empty()) continue;
      std::vector<bool> found(stored, false);
      for (const auto& h : got.hits) found[h.id] = true;
      size_t inter = 0;
      for (const auto& h : oracle.hits) {
        if (found[h.id]) ++inter;
      }
      recall_sum += static_cast<double>(inter) / oracle.hits.size();
      ++recall_n;
    }
    std::printf("%-12zu %10.0f%% %10.3f %14.3f\n", stored, ratio * 100,
                recall_sum / std::max<size_t>(1, recall_n),
                latency.TotalMillis() / spec.decode_steps);
  }
  bench::Rule(78);
  std::printf(
      "expected shape (paper): recall stays high at every reuse ratio; latency\n"
      "grows only slightly as the index outgrows the reused prefix (the 2-hop\n"
      "expansion keeps the search scope, paper: +1.13 ms from 40K to 200K).\n");
}

}  // namespace
}  // namespace alaya

int main() {
  alaya::Run();
  return 0;
}
