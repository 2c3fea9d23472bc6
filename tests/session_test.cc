#include "src/core/session.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "src/attention/attention_engine.h"
#include "src/common/rng.h"
#include "src/index/flat_index.h"

namespace alaya {
namespace {

struct SessionFixture {
  ModelConfig model = ModelConfig::Tiny();
  SimEnvironment env;
  Rng rng{1234};

  std::unique_ptr<KvCache> MakeKv(size_t tokens, uint64_t seed) {
    auto kv = std::make_unique<KvCache>(model);
    Rng r(seed);
    const size_t stride = model.num_kv_heads * model.head_dim;
    std::vector<float> k(stride), v(stride);
    for (uint32_t layer = 0; layer < model.num_layers; ++layer) {
      for (size_t t = 0; t < tokens; ++t) {
        r.FillGaussian(k.data(), stride);
        r.FillGaussian(v.data(), stride);
        kv->AppendToken(layer, k.data(), v.data());
      }
    }
    return kv;
  }

  /// Reference output: exact attention over context prefix + session local.
  void Reference(const Context* ctx, size_t prefix, const KvCache& local,
                 uint32_t layer, const float* q, float* out) {
    const size_t d = model.head_dim;
    const float scale = 1.0f / std::sqrt(static_cast<float>(d));
    for (uint32_t h = 0; h < model.num_q_heads; ++h) {
      const uint32_t kvh = model.KvHeadForQuery(h);
      PartialAttention state(d);
      if (ctx != nullptr && prefix > 0) {
        KvPartition part{ctx->kv().Keys(layer, kvh), ctx->kv().Values(layer, kvh),
                         {}, 0, static_cast<uint32_t>(prefix)};
        AccumulatePartition(q + h * d, part, scale, &state);
      }
      if (local.NumTokens(layer) > 0) {
        KvPartition part{local.Keys(layer, kvh), local.Values(layer, kvh),
                         {}, 0, static_cast<uint32_t>(local.NumTokens(layer))};
        AccumulatePartition(q + h * d, part, scale, &state);
      }
      state.Finalize(out + h * d);
    }
  }
};

TEST(SessionTest, UpdateGrowsLocalCache) {
  SessionFixture fx;
  Session session(fx.model, SessionOptions{}, nullptr, 0, &fx.env);
  const size_t stride = fx.model.num_kv_heads * fx.model.head_dim;
  const size_t qstride = fx.model.num_q_heads * fx.model.head_dim;
  std::vector<float> q(qstride), k(stride), v(stride);
  for (uint32_t layer = 0; layer < fx.model.num_layers; ++layer) {
    fx.rng.FillGaussian(k.data(), stride);
    fx.rng.FillGaussian(v.data(), stride);
    fx.rng.FillGaussian(q.data(), qstride);
    ASSERT_TRUE(session.Update(layer, q.data(), k.data(), v.data()).ok());
  }
  EXPECT_EQ(session.LocalTokens(0), 1u);
  EXPECT_EQ(session.TotalTokens(0), 1u);
  EXPECT_NE(session.recorded_queries(), nullptr);
  EXPECT_EQ(session.recorded_queries()->NumSamples(0), 1u);
  EXPECT_GT(session.GpuResidentBytes(), 0u);
}

TEST(SessionTest, ShortContextAttentionMatchesReference) {
  // The optimizer picks full attention for short contexts; the session output
  // must equal exact attention over the whole sequence.
  SessionFixture fx;
  SessionOptions opts;
  Session session(fx.model, opts, nullptr, 0, &fx.env);
  const size_t stride = fx.model.num_kv_heads * fx.model.head_dim;
  const size_t qstride = fx.model.num_q_heads * fx.model.head_dim;
  std::vector<float> q(qstride), k(stride), v(stride);
  for (int t = 0; t < 30; ++t) {
    for (uint32_t layer = 0; layer < fx.model.num_layers; ++layer) {
      fx.rng.FillGaussian(k.data(), stride);
      fx.rng.FillGaussian(v.data(), stride);
      fx.rng.FillGaussian(q.data(), qstride);
      ASSERT_TRUE(session.Update(layer, q.data(), k.data(), v.data()).ok());
    }
  }
  std::vector<float> out(qstride), ref(qstride);
  fx.rng.FillGaussian(q.data(), qstride);
  AttentionCallStats stats;
  ASSERT_TRUE(session.Attention(1, q.data(), out.data(), &stats).ok());
  fx.Reference(nullptr, 0, session.local_kv(), 1, q.data(), ref.data());
  for (size_t i = 0; i < qstride; ++i) EXPECT_NEAR(out[i], ref[i], 1e-4);
  EXPECT_EQ(stats.plan_explain, "full_attention");
  EXPECT_EQ(stats.attended_tokens, 30u * fx.model.num_q_heads);
}

TEST(SessionTest, ReusedContextFullAttentionMatchesReference) {
  SessionFixture fx;
  Context ctx(1, std::vector<int32_t>(50, 3), fx.MakeKv(50, 77));
  SessionOptions opts;  // Short-context threshold keeps this on full attention.
  Session session(fx.model, opts, &ctx, 50, &fx.env);
  const size_t qstride = fx.model.num_q_heads * fx.model.head_dim;
  std::vector<float> q(qstride), out(qstride), ref(qstride);
  fx.rng.FillGaussian(q.data(), qstride);
  ASSERT_TRUE(session.Attention(0, q.data(), out.data()).ok());
  fx.Reference(&ctx, 50, session.local_kv(), 0, q.data(), ref.data());
  for (size_t i = 0; i < qstride; ++i) EXPECT_NEAR(out[i], ref[i], 1e-4);
}

TEST(SessionTest, SparsePathRunsWithFineIndices) {
  SessionFixture fx;
  const size_t n = 600;
  Context ctx(1, std::vector<int32_t>(n, 3), fx.MakeKv(n, 88));
  IndexBuildOptions build;
  ASSERT_TRUE(ctx.BuildFineIndices(build, nullptr, nullptr).ok());

  SessionOptions opts;
  opts.optimizer.short_context_threshold = 128;  // Force the sparse path.
  opts.window = WindowConfig{16, 32};
  Session session(fx.model, opts, &ctx, n, &fx.env);
  const size_t qstride = fx.model.num_q_heads * fx.model.head_dim;
  std::vector<float> q(qstride), out(qstride);
  fx.rng.FillGaussian(q.data(), qstride);
  AttentionCallStats stats;
  // Layer 0 -> flat DIPR; layer 1 -> fine DIPR.
  ASSERT_TRUE(session.Attention(0, q.data(), out.data(), &stats).ok());
  EXPECT_NE(stats.plan_explain.find("flat"), std::string::npos);
  EXPECT_GT(stats.retrieved_tokens, 0u);
  ASSERT_TRUE(session.Attention(1, q.data(), out.data(), &stats).ok());
  EXPECT_NE(stats.plan_explain.find("fine"), std::string::npos);
  EXPECT_GT(stats.attended_tokens, 0u);
  EXPECT_GT(stats.search_seconds + stats.attention_seconds, 0.0);
}

TEST(SessionTest, PartialReuseNeverAttendsBeyondPrefix) {
  // Poison the stored context beyond the prefix with huge value vectors; if
  // the session ever attends them the output explodes.
  SessionFixture fx;
  const size_t n = 500, prefix = 300;
  auto kv = fx.MakeKv(n, 99);
  for (uint32_t layer = 0; layer < fx.model.num_layers; ++layer) {
    for (uint32_t h = 0; h < fx.model.num_kv_heads; ++h) {
      for (size_t t = prefix; t < n; ++t) {
        float* v = kv->Head(layer, h).values.MutableVec(static_cast<uint32_t>(t));
        for (uint32_t j = 0; j < fx.model.head_dim; ++j) v[j] = 1e6f;
        // Also make their keys attractive.
        float* key = kv->Head(layer, h).keys.MutableVec(static_cast<uint32_t>(t));
        for (uint32_t j = 0; j < fx.model.head_dim; ++j) key[j] *= 10.f;
      }
    }
  }
  Context ctx(1, std::vector<int32_t>(n, 3), std::move(kv));
  ASSERT_TRUE(ctx.BuildFineIndices(IndexBuildOptions{}, nullptr, nullptr).ok());

  SessionOptions opts;
  opts.optimizer.short_context_threshold = 64;
  opts.window = WindowConfig{8, 16};
  Session session(fx.model, opts, &ctx, prefix, &fx.env);
  EXPECT_TRUE(session.partial_reuse());
  const size_t qstride = fx.model.num_q_heads * fx.model.head_dim;
  std::vector<float> q(qstride), out(qstride);
  fx.rng.FillGaussian(q.data(), qstride);
  for (uint32_t layer = 0; layer < fx.model.num_layers; ++layer) {
    ASSERT_TRUE(session.Attention(layer, q.data(), out.data()).ok());
    for (size_t i = 0; i < qstride; ++i) {
      EXPECT_LT(std::abs(out[i]), 1e4f) << "layer " << layer << " i " << i;
    }
  }
}

// Every retrieval plan AttendHead can reach — the optimizer's three sparse
// plans plus each fallback taken when the planned index was not built — with
// and without the partial-reuse prefix filter. Each row names the index the
// plan must reach; the expected counters are that index searched directly
// (same params, filter and window prior) plus the window's inner products,
// and the output must equal exact attention over the window, the local tail
// and the retrieved tokens. Flat rows also pin their counts as literals
// (a full scan's counts do not depend on the kernel's rounding).
enum class Reached { kCoarse, kFine, kFlat };

struct DispatchCase {
  const char* name;
  bool topk;         ///< Budget admits the coarse top-k plan (else DIPR).
  bool coarse;       ///< Context builds coarse indices.
  bool fine;         ///< Context builds fine (RoarGraph) indices.
  uint32_t layer;
  bool filtered;     ///< Partial reuse: prefix 400 of 600 stored tokens.
  Reached reached;
  size_t retrieved;  ///< Flat rows only (0 elsewhere).
  uint64_t dist_comps;
};

TEST(SessionTest, RetrievalDispatchCoversEveryPlanAndFallback) {
  using R = Reached;
  const DispatchCase kCases[] = {
      // name, topk, coarse, fine, layer, filtered, reached -> flat retrieved,
      // flat dist_comps
      {"coarse_topk",          true,  true,  true,  1, false, R::kCoarse, 0, 0},
      {"coarse_topk_filtered", true,  true,  true,  1, true,  R::kCoarse, 0, 0},
      {"topk_falls_to_fine",   true,  false, true,  1, false, R::kFine,   0, 0},
      {"topk_falls_to_fine_f", true,  false, true,  1, true,  R::kFine,   0, 0},
      {"topk_falls_to_flat",   true,  false, false, 1, false, R::kFlat, 768, 2592},
      {"topk_falls_to_flat_f", true,  false, false, 1, true,  R::kFlat, 768, 1792},
      {"flat_dipr_layer0",     false, false, true,  0, false, R::kFlat, 947, 2592},
      {"flat_dipr_layer0_f",   false, false, true,  0, true,  R::kFlat, 637, 1792},
      {"fine_dipr_layer1",     false, false, true,  1, false, R::kFine,   0, 0},
      {"fine_dipr_layer1_f",   false, false, true,  1, true,  R::kFine,   0, 0},
      {"dipr_falls_to_flat",   false, false, false, 1, false, R::kFlat, 956, 2592},
      {"dipr_falls_to_flat_f", false, false, false, 1, true,  R::kFlat, 743, 1792},
  };
  const size_t n = 600;
  const TopKParams topk{192, 0};
  const DiprOptions dipr{8.0f, 32, 0};
  const WindowConfig window{16, 32};
  for (const DispatchCase& c : kCases) {
    SCOPED_TRACE(c.name);
    SessionFixture fx;
    Context ctx(1, std::vector<int32_t>(n, 3), fx.MakeKv(n, 4242));
    if (c.fine) {
      ASSERT_TRUE(ctx.BuildFineIndices(IndexBuildOptions{}, nullptr, nullptr).ok());
    }
    if (c.coarse) ASSERT_TRUE(ctx.BuildCoarseIndices(CoarseIndexOptions{}).ok());

    const uint32_t prefix = c.filtered ? 400 : n;
    SessionOptions opts;
    opts.optimizer.short_context_threshold = 128;
    opts.optimizer.coarse_topk = topk;
    opts.optimizer.dipr = dipr;
    opts.window = window;
    opts.gpu_budget_bytes = c.topk ? (1ull << 30) : 0;
    Session session(fx.model, opts, &ctx, prefix, &fx.env);
    ASSERT_EQ(session.partial_reuse(), c.filtered);

    // Two local tokens, so the window prior also sees the session tail.
    const size_t n_local = 2;
    const size_t stride = fx.model.num_kv_heads * fx.model.head_dim;
    const size_t qstride = fx.model.num_q_heads * fx.model.head_dim;
    std::vector<float> q(qstride), k(stride), v(stride), out(qstride);
    for (size_t t = 0; t < n_local; ++t) {
      for (uint32_t layer = 0; layer < fx.model.num_layers; ++layer) {
        fx.rng.FillGaussian(k.data(), stride);
        fx.rng.FillGaussian(v.data(), stride);
        ASSERT_TRUE(session.Update(layer, nullptr, k.data(), v.data()).ok());
      }
    }
    fx.rng.FillGaussian(q.data(), qstride);
    AttentionCallStats stats;
    ASSERT_TRUE(session.Attention(c.layer, q.data(), out.data(), &stats).ok());

    // The device window: the first 16 tokens and the 30 recent tokens that
    // reach back into the prefix (32 recent minus the 2 local ones).
    std::vector<uint32_t> window_ids;
    for (uint32_t i = 0; i < window.initial_tokens; ++i) window_ids.push_back(i);
    for (uint32_t i = prefix - (window.recent_tokens - n_local); i < prefix; ++i) {
      window_ids.push_back(i);
    }
    const IdFilter filter{c.filtered ? prefix : UINT32_MAX};
    const size_t d = fx.model.head_dim;
    const float scale = 1.0f / std::sqrt(static_cast<float>(d));
    size_t retrieved = 0;
    SearchStats search;
    for (uint32_t h = 0; h < fx.model.num_q_heads; ++h) {
      SCOPED_TRACE(h);
      const uint32_t kvh = fx.model.KvHeadForQuery(h);
      const float* qh = q.data() + h * d;
      const VectorSetView keys = ctx.kv().Keys(c.layer, kvh);
      const VectorSetView values = ctx.kv().Values(c.layer, kvh);
      const VectorSetView local_keys = session.local_kv().Keys(c.layer, kvh);
      const VectorSetView local_values = session.local_kv().Values(c.layer, kvh);
      DiprParams params{dipr, -1e30f};
      for (uint32_t id : window_ids) {
        params.prior_best_ip = std::max(params.prior_best_ip, Dot(qh, keys.Vec(id), d));
      }
      for (uint32_t i = 0; i < n_local; ++i) {
        params.prior_best_ip = std::max(params.prior_best_ip, Dot(qh, local_keys.Vec(i), d));
      }
      search.dist_comps += window_ids.size() + n_local;

      const FlatIndex flat(keys);
      const VectorIndex* index = &flat;
      if (c.reached == Reached::kCoarse) index = ctx.CoarseIdx(c.layer, kvh);
      if (c.reached == Reached::kFine) index = ctx.FineIndex(c.layer, h);
      ASSERT_NE(index, nullptr);
      SearchResult hits;
      if (c.topk) {
        ASSERT_TRUE(index->SearchTopK(qh, topk, filter, &hits).ok());
      } else {
        ASSERT_TRUE(index->SearchDipr(qh, params, filter, &hits).ok());
      }
      retrieved += hits.hits.size();
      search += hits.stats;

      // Exact attention over window + retrieved (deduplicated) + local tail.
      std::vector<uint32_t> ids = window_ids;
      for (const ScoredId& hit : hits.hits) ids.push_back(hit.id);
      std::sort(ids.begin(), ids.end());
      ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
      PartialAttention state(d);
      AccumulatePartition(qh, KvPartition{keys, values, ids, 0, 0}, scale, &state);
      AccumulatePartition(qh, KvPartition{local_keys, local_values, {}, 0,
                                          static_cast<uint32_t>(n_local)},
                          scale, &state);
      std::vector<float> ref(d);
      state.Finalize(ref.data());
      for (size_t j = 0; j < d; ++j) EXPECT_NEAR(out[h * d + j], ref[j], 1e-4f);
    }
    EXPECT_EQ(stats.retrieved_tokens, retrieved);
    EXPECT_EQ(stats.search.dist_comps, search.dist_comps);
    EXPECT_EQ(stats.search.hops, search.hops);
    EXPECT_EQ(stats.search.appended, search.appended);
    if (c.reached == Reached::kFlat) {
      EXPECT_EQ(stats.retrieved_tokens, c.retrieved);
      EXPECT_EQ(stats.search.dist_comps, c.dist_comps);
      EXPECT_EQ(stats.search.hops, 0u);
      EXPECT_EQ(stats.search.appended, 0u);
    }
  }
}

TEST(SessionTest, GpuReservationTracksWindowAndLocal) {
  SessionFixture fx;
  SessionOptions opts;
  opts.window = WindowConfig{4, 8};
  Session session(fx.model, opts, nullptr, 0, &fx.env);
  const uint64_t before = fx.env.gpu_memory().current();
  const size_t stride = fx.model.num_kv_heads * fx.model.head_dim;
  std::vector<float> k(stride, 1.f), v(stride, 1.f);
  for (int t = 0; t < 5; ++t) {
    for (uint32_t layer = 0; layer < fx.model.num_layers; ++layer) {
      ASSERT_TRUE(session.Update(layer, nullptr, k.data(), v.data()).ok());
    }
  }
  EXPECT_GT(fx.env.gpu_memory().current(), before);
  EXPECT_EQ(fx.env.gpu_memory().current() - before,
            5u * fx.model.KvBytesPerToken());
}

TEST(SessionTest, ErrorsOnBadArguments) {
  SessionFixture fx;
  Session session(fx.model, SessionOptions{}, nullptr, 0, &fx.env);
  std::vector<float> buf(fx.model.num_q_heads * fx.model.head_dim);
  EXPECT_TRUE(session.Update(99, nullptr, buf.data(), buf.data()).code() ==
              StatusCode::kOutOfRange);
  EXPECT_TRUE(session.Update(0, nullptr, nullptr, buf.data()).IsInvalidArgument());
  EXPECT_TRUE(session.Attention(99, buf.data(), buf.data()).code() ==
              StatusCode::kOutOfRange);
  EXPECT_TRUE(session.Attention(0, nullptr, buf.data()).IsInvalidArgument());
}

TEST(SessionTest, RecordingCapsAtMaxTokens) {
  SessionFixture fx;
  SessionOptions opts;
  opts.max_recorded_tokens = 3;
  Session session(fx.model, opts, nullptr, 0, &fx.env);
  const size_t stride = fx.model.num_kv_heads * fx.model.head_dim;
  const size_t qstride = fx.model.num_q_heads * fx.model.head_dim;
  std::vector<float> q(qstride, 1.f), k(stride, 1.f), v(stride, 1.f);
  for (int t = 0; t < 10; ++t) {
    ASSERT_TRUE(session.Update(0, q.data(), k.data(), v.data()).ok());
  }
  EXPECT_EQ(session.recorded_queries()->NumSamples(0), 3u);
}

}  // namespace
}  // namespace alaya
