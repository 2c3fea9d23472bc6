#include "src/index/index_builder.h"

#include <gtest/gtest.h>

#include "src/common/timer.h"
#include "src/core/alaya_db.h"
#include "tests/test_util.h"

namespace alaya {
namespace {

using testutil::ExpectGraphsIdentical;

struct LayerFixture {
  std::vector<VectorSet> keys;     // Per KV head.
  std::vector<VectorSet> queries;  // Per query head.
  std::vector<VectorSetView> key_views;
  std::vector<VectorSetView> query_views;

  LayerFixture(uint32_t h_kv, uint32_t group, size_t n, size_t d, uint64_t seed) {
    Rng rng(seed);
    std::vector<float> v(d);
    for (uint32_t h = 0; h < h_kv; ++h) {
      keys.emplace_back(d);
      for (size_t i = 0; i < n; ++i) {
        rng.FillGaussian(v.data(), d);
        keys.back().Append(v.data());
      }
    }
    for (uint32_t g = 0; g < h_kv * group; ++g) {
      queries.emplace_back(d);
      for (size_t i = 0; i < n / 2; ++i) {
        rng.FillGaussian(v.data(), d);
        queries.back().Append(v.data());
      }
    }
    for (auto& k : keys) key_views.push_back(k.View());
    for (auto& q : queries) query_views.push_back(q.View());
  }
};

TEST(IndexBuilderTest, SharedBuildsOneIndexPerKvHead) {
  LayerFixture fx(2, 4, 600, 16, 1);
  IndexBuildOptions opts;
  opts.share_gqa_group = true;
  std::vector<std::unique_ptr<RoarGraph>> out;
  IndexBuildStats stats;
  ASSERT_TRUE(BuildLayerIndices(fx.key_views, fx.query_views, 4, opts, &out, &stats).ok());
  EXPECT_EQ(out.size(), 2u);
  EXPECT_EQ(stats.num_indices, 2u);
  for (auto& g : out) {
    EXPECT_TRUE(g->built());
    EXPECT_EQ(g->size(), 600u);
  }
}

TEST(IndexBuilderTest, UnsharedBuildsOneIndexPerQueryHead) {
  LayerFixture fx(2, 4, 400, 16, 2);
  IndexBuildOptions opts;
  opts.share_gqa_group = false;
  std::vector<std::unique_ptr<RoarGraph>> out;
  IndexBuildStats stats;
  ASSERT_TRUE(BuildLayerIndices(fx.key_views, fx.query_views, 4, opts, &out, &stats).ok());
  EXPECT_EQ(out.size(), 8u);
}

TEST(IndexBuilderTest, SharingReducesIndexBytes) {
  LayerFixture fx(2, 4, 500, 16, 3);
  std::vector<std::unique_ptr<RoarGraph>> shared, unshared;
  IndexBuildStats s1, s2;
  IndexBuildOptions opts;
  opts.share_gqa_group = true;
  ASSERT_TRUE(BuildLayerIndices(fx.key_views, fx.query_views, 4, opts, &shared, &s1).ok());
  opts.share_gqa_group = false;
  ASSERT_TRUE(
      BuildLayerIndices(fx.key_views, fx.query_views, 4, opts, &unshared, &s2).ok());
  // 4x fewer indices -> ~4x less index memory (Fig. 11b).
  EXPECT_LT(s1.index_bytes * 3, s2.index_bytes);
}

TEST(IndexBuilderTest, GpuPathReportsPipelinedTime) {
  LayerFixture fx(2, 2, 400, 16, 4);
  IndexBuildOptions opts;
  opts.use_sim_gpu_knn = true;
  std::vector<std::unique_ptr<RoarGraph>> out;
  IndexBuildStats stats;
  ASSERT_TRUE(BuildLayerIndices(fx.key_views, fx.query_views, 2, opts, &out, &stats).ok());
  EXPECT_GT(stats.modeled_gpu_seconds, 0.0);
  EXPECT_GT(stats.modeled_transfer_seconds, 0.0);
  EXPECT_GT(stats.reported_seconds, 0.0);
  EXPECT_GT(stats.training_queries, 0u);
}

TEST(IndexBuilderTest, CpuBaselineSlowerThanReportedGpu) {
  LayerFixture fx(2, 2, 1500, 32, 5);
  std::vector<std::unique_ptr<RoarGraph>> out;
  IndexBuildStats gpu_stats, cpu_stats;
  IndexBuildOptions gpu_opts;
  gpu_opts.use_sim_gpu_knn = true;
  ASSERT_TRUE(
      BuildLayerIndices(fx.key_views, fx.query_views, 2, gpu_opts, &out, &gpu_stats).ok());
  IndexBuildOptions cpu_opts;
  cpu_opts.use_sim_gpu_knn = false;
  cpu_opts.sequential_cpu_baseline = true;
  cpu_opts.share_gqa_group = false;
  ASSERT_TRUE(
      BuildLayerIndices(fx.key_views, fx.query_views, 2, cpu_opts, &out, &cpu_stats).ok());
  EXPECT_GT(cpu_stats.reported_seconds, gpu_stats.modeled_gpu_seconds);
}

TEST(IndexBuilderTest, MismatchedHeadCountsRejected) {
  LayerFixture fx(2, 4, 100, 8, 6);
  IndexBuildOptions opts;
  std::vector<std::unique_ptr<RoarGraph>> out;
  // Claim group size 2 while 8 query heads / 2 kv heads = 4.
  EXPECT_TRUE(BuildLayerIndices(fx.key_views, fx.query_views, 2, opts, &out, nullptr)
                  .IsInvalidArgument());
  EXPECT_TRUE(
      BuildLayerIndices(fx.key_views, fx.query_views, 0, opts, &out, nullptr)
          .IsInvalidArgument());
}

TEST(IndexBuilderTest, ConcurrentUnitsMatchSequentialBaseline) {
  LayerFixture fx(2, 4, 500, 16, 9);
  ThreadPool pool(4);
  for (const bool share : {true, false}) {
    IndexBuildOptions concurrent;
    concurrent.share_gqa_group = share;
    concurrent.pool = &pool;
    IndexBuildOptions sequential = concurrent;
    sequential.sequential_cpu_baseline = true;
    std::vector<std::unique_ptr<RoarGraph>> a, b;
    IndexBuildStats sa, sb;
    ASSERT_TRUE(BuildLayerIndices(fx.key_views, fx.query_views, 4, concurrent, &a, &sa).ok());
    ASSERT_TRUE(BuildLayerIndices(fx.key_views, fx.query_views, 4, sequential, &b, &sb).ok());
    ASSERT_EQ(a.size(), b.size());
    for (size_t u = 0; u < a.size(); ++u) {
      SCOPED_TRACE(testing::Message() << "share " << share << " unit " << u);
      ExpectGraphsIdentical(*a[u], *b[u]);
    }
    EXPECT_EQ(sa.index_bytes, sb.index_bytes);
    EXPECT_EQ(sa.training_queries, sb.training_queries);
  }
}

// --- Whole-context builds through AlayaDB: Import (scratch build, layers and
// --- units concurrent) and StoreAsync materialization (extend-from-base).

/// One DB over the 2-layer GQA Tiny model whose index build either runs on an
/// explicit 4-worker pool or is the fully sequential CPU baseline.
struct ContextBuildFixture {
  ModelConfig model = ModelConfig::Tiny();
  static constexpr size_t kTokens = 600;
  ThreadPool pool{4};
  SimEnvironment env;
  std::unique_ptr<AlayaDB> db;
  uint64_t context_id = 0;

  explicit ContextBuildFixture(bool sequential) {
    DbOptions o;
    o.model = model;
    o.session.optimizer.short_context_threshold = 64;
    o.session.window = WindowConfig{8, 16};
    o.materialize_pool = &pool;
    o.index_build.pool = &pool;
    o.index_build.sequential_cpu_baseline = sequential;
    db = std::make_unique<AlayaDB>(o, &env);
  }

  std::vector<int32_t> Tokens() const {
    std::vector<int32_t> t(kTokens);
    for (size_t i = 0; i < kTokens; ++i) t[i] = 100 + static_cast<int32_t>(i);
    return t;
  }

  /// Imports the fixed-seed context with prefill query samples to train on.
  void Import() {
    auto kv = std::make_unique<KvCache>(model);
    Rng rng(31);
    const size_t stride = static_cast<size_t>(model.num_kv_heads) * model.head_dim;
    std::vector<float> k(stride), v(stride);
    QuerySamples queries(model);
    std::vector<float> q(static_cast<size_t>(model.num_q_heads) * model.head_dim);
    for (uint32_t layer = 0; layer < model.num_layers; ++layer) {
      for (size_t t = 0; t < kTokens; ++t) {
        rng.FillGaussian(k.data(), stride);
        rng.FillGaussian(v.data(), stride);
        kv->AppendToken(layer, k.data(), v.data());
        if (t % 2 == 0) {
          rng.FillGaussian(q.data(), q.size());
          queries.Record(layer, q.data());
        }
      }
    }
    auto id = db->Import(Tokens(), std::move(kv), &queries);
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    context_id = id.value();
  }

  const Context& Find(uint64_t id) const {
    const Context* ctx = db->contexts().FindUnsafeForTest(id);
    EXPECT_NE(ctx, nullptr);
    return *ctx;
  }
};

/// Every (layer, KV-head) graph of `a` and `b` is node-for-node identical.
void ExpectContextGraphsIdentical(const ModelConfig& model, const Context& a,
                                  const Context& b) {
  for (uint32_t layer = 0; layer < model.num_layers; ++layer) {
    for (uint32_t kv = 0; kv < model.num_kv_heads; ++kv) {
      SCOPED_TRACE(testing::Message() << "layer " << layer << " kv head " << kv);
      const RoarGraph* ga = a.FineIndex(layer, kv * model.GroupSize());
      const RoarGraph* gb = b.FineIndex(layer, kv * model.GroupSize());
      ASSERT_NE(ga, nullptr);
      ASSERT_NE(gb, nullptr);
      ExpectGraphsIdentical(*ga, *gb);
    }
  }
}

TEST(IndexBuilderTest, ConcurrentImportMatchesSequentialGraphs) {
  ContextBuildFixture concurrent(false), sequential(true);
  concurrent.Import();
  sequential.Import();
  const Context& a = concurrent.Find(concurrent.context_id);
  const Context& b = sequential.Find(sequential.context_id);
  EXPECT_EQ(a.build_stats().num_indices, 4u);
  EXPECT_EQ(a.build_stats().training_queries, b.build_stats().training_queries);
  ExpectContextGraphsIdentical(concurrent.model, a, b);
}

TEST(IndexBuilderTest, ConcurrentExtendMatchesSequentialGraphs) {
  constexpr size_t kSteps = 6;
  ContextBuildFixture concurrent(false), sequential(true);
  std::vector<std::vector<float>> outputs;
  std::vector<uint64_t> stored_ids;
  for (ContextBuildFixture* fx : {&concurrent, &sequential}) {
    fx->Import();
    const ModelConfig& m = fx->model;
    auto created = fx->db->CreateSession(fx->Tokens());
    ASSERT_TRUE(created.ok()) << created.status().ToString();
    ASSERT_EQ(created.value().reused_prefix, ContextBuildFixture::kTokens);
    Session* session = created.value().session.get();
    std::vector<float> q(static_cast<size_t>(m.num_q_heads) * m.head_dim);
    std::vector<float> k(static_cast<size_t>(m.num_kv_heads) * m.head_dim), v(k.size());
    std::vector<float> out(q.size()), all_out;
    std::vector<int32_t> new_tokens;
    for (size_t step = 0; step < kSteps; ++step) {
      for (uint32_t layer = 0; layer < m.num_layers; ++layer) {
        Rng rng(1000 + step * 131 + layer);
        rng.FillGaussian(q.data(), q.size());
        rng.FillGaussian(k.data(), k.size());
        rng.FillGaussian(v.data(), v.size());
        ASSERT_TRUE(session->Update(layer, q.data(), k.data(), v.data()).ok());
        ASSERT_TRUE(session->Attention(layer, q.data(), out.data()).ok());
        all_out.insert(all_out.end(), out.begin(), out.end());
      }
      new_tokens.push_back(5000 + static_cast<int32_t>(step));
    }
    outputs.push_back(std::move(all_out));
    auto stored = fx->db->StoreAsync(session, new_tokens, created.value().context_ref);
    ASSERT_TRUE(stored.ok()) << stored.status().ToString();
    ASSERT_TRUE(fx->db->Drain().ok());
    stored_ids.push_back(stored.value());
  }
  // Decoding searched graphs built both ways: the outputs are bit-identical.
  EXPECT_EQ(outputs[0], outputs[1]);

  const Context& a = concurrent.Find(stored_ids[0]);
  const Context& b = sequential.Find(stored_ids[1]);
  const size_t units = static_cast<size_t>(concurrent.model.num_layers) *
                       concurrent.model.num_kv_heads;
  // Both took the extend path (suffix inserted into the base's graphs).
  EXPECT_EQ(a.build_stats().extended_indices, units);
  EXPECT_EQ(b.build_stats().extended_indices, units);
  EXPECT_EQ(a.length(), ContextBuildFixture::kTokens + kSteps);
  ExpectContextGraphsIdentical(concurrent.model, a, b);
}

TEST(IndexBuilderTest, ImportStageWallTimesFitInsideImportWall) {
  // Layers and units overlap, so per-layer stage times summed would exceed
  // the wall time; build_stats() reports each stage once across the build.
  ContextBuildFixture fx(false);
  WallTimer timer;
  fx.Import();
  const double import_wall = timer.ElapsedSeconds();
  const IndexBuildStats& stats = fx.Find(fx.context_id).build_stats();
  EXPECT_GT(stats.knn_wall_seconds, 0.0);
  EXPECT_GT(stats.project_wall_seconds, 0.0);
  EXPECT_LE(stats.knn_wall_seconds + stats.project_wall_seconds, import_wall);
}

TEST(IndexBuilderTest, SampleQueriesRespectsCount) {
  Rng rng(7);
  VectorSet queries(8);
  std::vector<float> v(8);
  for (int i = 0; i < 100; ++i) {
    rng.FillGaussian(v.data(), 8);
    queries.Append(v.data());
  }
  Rng sample_rng(8);
  VectorSet s = SampleQueries(queries.View(), 30, &sample_rng);
  EXPECT_EQ(s.size(), 30u);
  VectorSet all = SampleQueries(queries.View(), 1000, &sample_rng);
  EXPECT_EQ(all.size(), 100u);  // Capped at available.
}

}  // namespace
}  // namespace alaya
