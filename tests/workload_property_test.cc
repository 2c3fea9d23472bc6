// Cross-task property sweep (TEST_P over all 8 ∞-Bench profiles): invariants
// the whole evaluation pipeline rests on must hold for every task profile,
// not just the ones the focused tests use.
#include <gtest/gtest.h>

#include <cmath>

#include "src/index/flat_index.h"
#include "src/llm/qkv_generator.h"
#include "src/llm/workloads.h"

namespace alaya {
namespace {

class TaskSweep : public ::testing::TestWithParam<std::string> {
 protected:
  SyntheticContextOptions MakeOptions() {
    SyntheticContextOptions opts;
    opts.model = ModelConfig{2, 4, 2, 64, 2};
    opts.spec = FindTask(InfinityBenchSuite(0.02), GetParam());
    if (opts.spec.context_tokens < 600) opts.spec.context_tokens = 600;
    return opts;
  }
};

TEST_P(TaskSweep, FlatDiprRecallsPlantedSetAtSuggestedBeta) {
  auto opts = MakeOptions();
  SyntheticContext ctx(opts);
  ASSERT_TRUE(ctx.Generate().ok());
  const float beta = static_cast<float>(SuggestedDiprBeta(opts.spec, 64));

  double recall_sum = 0;
  size_t cases = 0;
  std::vector<float> q(64);
  for (uint32_t layer = 0; layer < 2; ++layer) {
    for (uint32_t h = 0; h < 4; ++h) {
      ctx.MakeDecodeQuery(0, layer, h, q.data());
      const uint32_t kvh = opts.model.KvHeadForQuery(h);
      FlatIndex flat(ctx.kv().Keys(layer, kvh));
      SearchResult res;
      DiprParams params;
      params.beta = beta;
      ASSERT_TRUE(flat.SearchDipr(q.data(), params, IdFilter{}, &res).ok());
      const auto& critical = ctx.CriticalSet(0, layer, h);
      if (critical.empty()) continue;
      std::vector<bool> got(ctx.num_tokens(), false);
      for (const auto& hit : res.hits) got[hit.id] = true;
      size_t found = 0;
      for (uint32_t id : critical) {
        if (got[id]) ++found;
      }
      recall_sum += static_cast<double>(found) / critical.size();
      ++cases;
    }
  }
  ASSERT_GT(cases, 0u);
  // The exact (flat) DIPR at the suggested beta must capture the planted set
  // on every task profile; jitter can shave a small tail.
  EXPECT_GE(recall_sum / cases, 0.85) << GetParam();
}

TEST_P(TaskSweep, DiprCountGrowsMonotonicallyWithBeta) {
  auto opts = MakeOptions();
  SyntheticContext ctx(opts);
  ASSERT_TRUE(ctx.Generate().ok());
  std::vector<float> q(64);
  ctx.MakeDecodeQuery(1, 1, 1, q.data());
  FlatIndex flat(ctx.kv().Keys(1, opts.model.KvHeadForQuery(1)));
  size_t prev = 0;
  const double base = SuggestedDiprBeta(opts.spec, 64);
  for (double f : {0.25, 0.5, 0.75, 1.0, 1.5}) {
    SearchResult res;
    DiprParams params;
    params.beta = static_cast<float>(base * f);
    ASSERT_TRUE(flat.SearchDipr(q.data(), params, IdFilter{}, &res).ok());
    EXPECT_GE(res.hits.size(), prev) << GetParam() << " f=" << f;
    prev = res.hits.size();
  }
}

TEST_P(TaskSweep, BackgroundLogitsStayBelowCriticalBand) {
  auto opts = MakeOptions();
  SyntheticContext ctx(opts);
  ASSERT_TRUE(ctx.Generate().ok());
  std::vector<float> q(64);
  ctx.MakeDecodeQuery(0, 0, 0, q.data());
  VectorSetView keys = ctx.kv().Keys(0, 0);

  std::vector<bool> is_planted(ctx.num_tokens(), false);
  for (uint32_t s = 0; s < ctx.num_sinks(); ++s) is_planted[s] = true;
  for (uint32_t t = 0; t < 8; ++t) {
    for (uint32_t id : ctx.TopicMembers(0, 0, t)) is_planted[id] = true;
  }
  const double sqrt_d = std::sqrt(64.0);
  double max_bg = -1e30;
  for (uint32_t i = 0; i < keys.n; ++i) {
    if (is_planted[i]) continue;
    max_bg = std::max(max_bg, static_cast<double>(Dot(q.data(), keys.Vec(i), 64)) /
                                  sqrt_d);
  }
  // Background never reaches the critical band floor: sparse retrieval of the
  // planted set is well-posed for every task.
  EXPECT_LT(max_bg, opts.spec.crit_z_min) << GetParam();
}

TEST_P(TaskSweep, SinkDominatesWindowPrior) {
  auto opts = MakeOptions();
  SyntheticContext ctx(opts);
  ASSERT_TRUE(ctx.Generate().ok());
  std::vector<float> q(64);
  ctx.MakeDecodeQuery(0, 1, 2, q.data());
  const uint32_t kvh = opts.model.KvHeadForQuery(2);
  VectorSetView keys = ctx.kv().Keys(1, kvh);
  float sink_best = -1e30f;
  for (uint32_t s = 0; s < ctx.num_sinks(); ++s) {
    sink_best = std::max(sink_best, Dot(q.data(), keys.Vec(s), 64));
  }
  // The sink inner product sits above the critical band's ceiling (the §7.1
  // window observation the DIPRS prior relies on).
  const double band_top = opts.spec.crit_z_max * std::sqrt(64.0);
  EXPECT_GT(sink_best, band_top) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(InfinityBench, TaskSweep,
                         ::testing::Values("Retr.KV", "Retr.P", "Retr.N", "Code.D",
                                           "En.MC", "En.QA", "En.Sum", "Math.F"),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
                           }
                           return name;
                         });

}  // namespace
}  // namespace alaya
