// Table 4: measured characteristics of the three index types — device memory
// consumption, and retrieval latency at small and large k.
#include <cstdio>

#include "bench/bench_util.h"
#include "src/common/timer.h"
#include "src/index/coarse_index.h"
#include "src/index/flat_index.h"
#include "src/index/roargraph.h"

namespace alaya {
namespace {

double MeasureTopK(const VectorIndex& index, const SyntheticContext& ctx, size_t k,
                   size_t queries) {
  std::vector<float> q(ctx.model().head_dim);
  SearchResult res;
  AccumTimer timer;
  for (size_t step = 0; step < queries; ++step) {
    ctx.MakeDecodeQuery(step, 0, 0, q.data());
    timer.Start();
    TopKParams params{k, std::max<size_t>(k, 64)};
    if (!index.SearchTopK(q.data(), params, IdFilter{}, &res).ok()) std::abort();
    timer.Stop();
  }
  return timer.TotalMillis() / static_cast<double>(queries);
}

void Run() {
  bench::Header("Table 4", "index-type characteristics (measured)");
  ModelConfig model{1, 2, 1, 64, 2};
  WorkloadSpec spec = FindTask(InfinityBenchSuite(1.0), "En.QA");
  spec.context_tokens = 16000;
  SyntheticContext ctx = bench::MakeContext(spec, model);
  VectorSetView keys = ctx.kv().Keys(0, 0);

  SimEnvironment env;
  CoarseIndexOptions copts;
  copts.block_size = 128;
  copts.gpu_memory = &env.gpu_memory();
  copts.bytes_per_token_kv = static_cast<uint32_t>(model.KvBytesPerTokenLayer());
  CoarseIndex coarse(keys, copts);

  RoarGraph fine(keys, RoarGraphOptions{});
  auto training = ctx.MakeTrainingQueries(spec.context_tokens * 2 / 10);
  if (!fine.BuildFromQueries(training->View(0, 0)).ok()) std::abort();

  FlatIndex flat(keys);

  const size_t kSmall = 64, kLarge = 4096, kQueries = 12;
  std::printf("context=%zu tokens, d=%u\n\n", spec.context_tokens, model.head_dim);
  std::printf("%-8s %14s %16s %16s %8s\n", "index", "GPU memory", "lat k=64 (ms)",
              "lat k=4096 (ms)", "DIPR?");

  const double c_small = MeasureTopK(coarse, ctx, kSmall, kQueries);
  const double c_large = MeasureTopK(coarse, ctx, kLarge, kQueries);
  std::printf("%-8s %14s %16.3f %16.3f %8s\n", "coarse",
              HumanBytes(env.gpu_memory().current()).c_str(), c_small, c_large, "no");

  const double f_small = MeasureTopK(fine, ctx, kSmall, kQueries);
  const double f_large = MeasureTopK(fine, ctx, kLarge, kQueries);
  std::printf("%-8s %14s %16.3f %16.3f %8s\n", "fine", "0 B (CPU)", f_small, f_large,
              "yes");

  const double s_small = MeasureTopK(flat, ctx, kSmall, kQueries);
  const double s_large = MeasureTopK(flat, ctx, kLarge, kQueries);
  std::printf("%-8s %14s %16.3f %16.3f %8s\n", "flat", "0 B (CPU)", s_small, s_large,
              "yes");

  bench::Rule(78);
  std::printf(
      "expected shape (paper Table 4): coarse = large GPU memory, low latency\n"
      "at both k; fine = low latency at small k, degrades at large k (random\n"
      "access); flat = medium at both (sequential scan), winning at large k.\n"
      "fine k=64 vs flat k=64: %.2fx; flat k=4096 vs fine k=4096: %.2fx\n",
      s_small / std::max(f_small, 1e-9), f_large / std::max(s_large, 1e-9));
}

}  // namespace
}  // namespace alaya

int main() {
  alaya::Run();
  return 0;
}
