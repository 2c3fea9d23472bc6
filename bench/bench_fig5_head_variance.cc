// Figure 5: the number of critical tokens varies by orders of magnitude
// across heads. Red series: tokens needed per head to reach a 90% recovery
// ratio (exact, by sorting attention scores). Blue series: tokens selected by
// a DIPR query with one fixed beta — tracking the per-head requirement
// without per-head tuning.
#include <algorithm>
#include <cstdio>

#include "bench/bench_util.h"
#include "src/attention/attention_engine.h"
#include "src/index/flat_index.h"

namespace alaya {
namespace {

using bench::BenchModel;

size_t TokensForRecovery(const float* q, VectorSetView keys, double target) {
  std::vector<float> scores(keys.n);
  ExactAttentionScores(q, keys, keys.n, scores.data());
  std::sort(scores.begin(), scores.end(), std::greater<float>());
  double mass = 0;
  for (size_t i = 0; i < scores.size(); ++i) {
    mass += scores[i];
    if (mass >= target) return i + 1;
  }
  return scores.size();
}

void Run() {
  // KV-retrieval-style workload (the paper's Fig. 5 uses the ∞-Bench KV
  // retrieval dataset) on a 4-layer bench model to expose the layer trend.
  ModelConfig model{4, 8, 2, 64, 2};
  WorkloadSpec spec = FindTask(InfinityBenchSuite(bench::kContextScale), "Retr.KV");
  spec.decode_steps = 2;
  SyntheticContext ctx = bench::MakeContext(spec, model);
  const float beta = static_cast<float>(SuggestedDiprBeta(spec, model.head_dim));

  bench::Header("Figure 5", "critical tokens per head: 90% recovery vs DIPR(beta)");
  std::printf("model: %u layers x %u q-heads, d=%u | context=%zu | beta=%.0f\n",
              model.num_layers, model.num_q_heads, model.head_dim,
              ctx.num_tokens(), beta);
  std::printf("%-6s %-6s %12s %12s %12s\n", "layer", "head", "recov90", "dipr_sel",
              "head_factor");

  std::vector<float> q(model.head_dim);
  size_t min_recov = SIZE_MAX, max_recov = 0;
  double sum_recov = 0, sum_dipr = 0;
  size_t rows = 0;
  for (uint32_t layer = 0; layer < model.num_layers; ++layer) {
    for (uint32_t h = 0; h < model.num_q_heads; h += 2) {  // Sample heads.
      const uint32_t kvh = model.KvHeadForQuery(h);
      ctx.MakeDecodeQuery(0, layer, h, q.data());
      VectorSetView keys = ctx.kv().Keys(layer, kvh);
      const size_t recov = TokensForRecovery(q.data(), keys, 0.90);

      FlatIndex flat(keys);
      SearchResult res;
      DiprParams params;
      params.beta = beta;
      Status st = flat.SearchDipr(q.data(), params, IdFilter{}, &res);
      if (!st.ok()) std::abort();

      std::printf("%-6u %-6u %12zu %12zu %12.2f\n", layer, h, recov,
                  res.hits.size(), ctx.HeadFactor(layer, kvh));
      min_recov = std::min(min_recov, recov);
      max_recov = std::max(max_recov, recov);
      sum_recov += static_cast<double>(recov);
      sum_dipr += static_cast<double>(res.hits.size());
      ++rows;
    }
  }
  bench::Rule(78);
  std::printf("per-head 90%%-recovery spread: min=%zu max=%zu (%.0fx)\n", min_recov,
              max_recov, static_cast<double>(max_recov) / std::max<size_t>(1, min_recov));
  std::printf("mean recovery-90 tokens=%.1f | mean DIPR-selected=%.1f\n",
              sum_recov / rows, sum_dipr / rows);
  std::printf("expected shape (paper): spread of orders of magnitude across heads;\n"
              "DIPR's one beta tracks the per-head requirement.\n");
}

}  // namespace
}  // namespace alaya

int main() {
  alaya::Run();
  return 0;
}
