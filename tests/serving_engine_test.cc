#include "src/server/serving_engine.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/common/rng.h"

namespace alaya {
namespace {

// Shared geometry: small enough that the DIPRS sparse path engages (context
// longer than the short-context threshold) while builds stay fast.
struct ServingFixture {
  ModelConfig model = ModelConfig::Tiny();
  size_t context_tokens = 160;
  SimEnvironment env;
  DbOptions options;
  std::unique_ptr<AlayaDB> db;
  uint64_t context_id = 0;
  /// Explicit pool: the global pool may have one worker on small CI machines,
  /// and the engine's pool shape is part of what a test pins.
  ThreadPool pool;

  ServingEngineOptions EngineOptions(size_t max_concurrent) {
    ServingEngineOptions o;
    o.scheduler.max_concurrent_sessions = max_concurrent;
    o.pool = &pool;
    return o;
  }

  explicit ServingFixture(size_t pool_workers = 4) : pool(pool_workers) {
    options.model = model;
    options.session.optimizer.short_context_threshold = 64;
    options.session.window = WindowConfig{8, 16};
    db = std::make_unique<AlayaDB>(options, &env);
    auto imported = db->Import(ContextTokens(), MakeKv(context_tokens, /*seed=*/1));
    EXPECT_TRUE(imported.ok()) << imported.status().ToString();
    context_id = imported.ValueOr(0);
  }

  std::vector<int32_t> ContextTokens() const {
    std::vector<int32_t> t(context_tokens);
    for (size_t i = 0; i < context_tokens; ++i) t[i] = 100 + static_cast<int32_t>(i);
    return t;
  }

  std::unique_ptr<KvCache> MakeKv(size_t tokens, uint64_t seed) const {
    auto kv = std::make_unique<KvCache>(model);
    Rng rng(seed);
    const size_t stride = model.num_kv_heads * model.head_dim;
    std::vector<float> k(stride), v(stride);
    for (uint32_t layer = 0; layer < model.num_layers; ++layer) {
      for (size_t t = 0; t < tokens; ++t) {
        rng.FillGaussian(k.data(), stride);
        rng.FillGaussian(v.data(), stride);
        kv->AppendToken(layer, k.data(), v.data());
      }
    }
    return kv;
  }

  /// A request whose step inputs depend only on (seed, step, layer) — the
  /// determinism contract the engine's concurrent-vs-sequential guarantee
  /// rests on.
  ServingRequest MakeRequest(uint64_t seed, size_t steps) const {
    ServingRequest r;
    r.prompt = ContextTokens();
    r.max_new_tokens = steps;
    r.record_outputs = true;
    const ModelConfig m = model;
    r.fill_step = [m, seed](size_t step, uint32_t layer, float* q, float* k,
                            float* v) {
      Rng rng(seed * 1000003ull + step * 131ull + layer);
      rng.FillGaussian(q, static_cast<size_t>(m.num_q_heads) * m.head_dim);
      rng.FillGaussian(k, static_cast<size_t>(m.num_kv_heads) * m.head_dim);
      rng.FillGaussian(v, static_cast<size_t>(m.num_kv_heads) * m.head_dim);
    };
    r.token_at = [seed](size_t step) {
      return static_cast<int32_t>(10000 + seed * 100 + step);
    };
    return r;
  }
};

// Runs the same requests concurrently, on an engine pool of `pool_workers`,
// and sequentially (one session at a time), and expects bit-identical outputs.
void ExpectConcurrentMatchesSequential(size_t pool_workers) {
  constexpr int kRequests = 3;
  constexpr size_t kSteps = 4;

  // Concurrent run: all sessions admitted and stepped together.
  ServingFixture concurrent_fx(pool_workers);
  ServingEngine concurrent(concurrent_fx.db.get(),
                           concurrent_fx.EngineOptions(kRequests));
  std::vector<uint64_t> cids;
  for (int i = 0; i < kRequests; ++i) {
    auto id = concurrent.Submit(concurrent_fx.MakeRequest(11 + i, kSteps));
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    cids.push_back(id.value().id());
  }
  ASSERT_TRUE(concurrent.RunToCompletion().ok());
  EXPECT_EQ(concurrent.snapshot().peak_concurrent_sessions,
            static_cast<size_t>(kRequests));

  // Sequential run: identical DB state, one session at a time.
  ServingFixture sequential_fx;
  ServingEngine sequential(sequential_fx.db.get(),
                           sequential_fx.EngineOptions(1));
  std::vector<uint64_t> sids;
  for (int i = 0; i < kRequests; ++i) {
    auto id = sequential.Submit(sequential_fx.MakeRequest(11 + i, kSteps));
    ASSERT_TRUE(id.ok());
    sids.push_back(id.value().id());
  }
  ASSERT_TRUE(sequential.RunToCompletion().ok());
  EXPECT_EQ(sequential.snapshot().peak_concurrent_sessions, 1u);

  for (int i = 0; i < kRequests; ++i) {
    const RequestResult* c = concurrent.result(cids[i]);
    const RequestResult* s = sequential.result(sids[i]);
    ASSERT_NE(c, nullptr);
    ASSERT_NE(s, nullptr);
    ASSERT_TRUE(c->status.ok()) << c->status.ToString();
    ASSERT_TRUE(s->status.ok()) << s->status.ToString();
    EXPECT_EQ(c->steps_completed, kSteps);
    ASSERT_EQ(c->outputs.size(), s->outputs.size());
    // Bit-identical: concurrency changes scheduling, never math.
    EXPECT_EQ(c->outputs, s->outputs) << "request " << i;
    // The per-head stats fold is schedule-independent too, and the sparse
    // retrieval path is engaged.
    EXPECT_GT(c->stats.retrieved_tokens, 0u) << "request " << i;
    EXPECT_EQ(c->stats.retrieved_tokens, s->stats.retrieved_tokens) << "request " << i;
    EXPECT_EQ(c->stats.attended_tokens, s->stats.attended_tokens) << "request " << i;
    EXPECT_EQ(c->stats.search.dist_comps, s->stats.search.dist_comps) << "request " << i;
    EXPECT_EQ(c->stats.search.hops, s->stats.search.hops) << "request " << i;
    EXPECT_EQ(c->stats.search.appended, s->stats.search.appended) << "request " << i;
    EXPECT_EQ(c->stats.modeled_gpu_seconds, s->stats.modeled_gpu_seconds)
        << "request " << i;
  }
}

TEST(ServingEngineTest, ConcurrentMatchesSequential) {
  ExpectConcurrentMatchesSequential(4);
}

TEST(ServingEngineTest, ConcurrentMatchesSequentialOnOneWorkerPool) {
  // The serving benchmark's pool shape: each layer's head jobs split between
  // the driver thread and the sole worker.
  ExpectConcurrentMatchesSequential(1);
}

TEST(ServingEngineTest, MemoryBudgetSerializesAdmission) {
  ServingFixture fx;
  ServingEngineOptions opts = fx.EngineOptions(4);
  ServingEngine sized(fx.db.get(), opts);
  const AdmissionEstimate one =
      sized.scheduler().Preflight(fx.MakeRequest(1, 3)).estimate;
  ASSERT_GT(one.gpu_bytes, 0u);
  ASSERT_GT(one.step_gpu_seconds, 0.0);

  // Budget fits exactly one projected session: the others queue behind it.
  opts.scheduler.gpu_budget_bytes = one.gpu_bytes;
  ServingEngine engine(fx.db.get(), opts);
  std::vector<uint64_t> ids;
  for (int i = 0; i < 3; ++i) {
    auto id = engine.Submit(fx.MakeRequest(21 + i, 3));
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    ids.push_back(id.value().id());
  }
  ASSERT_TRUE(engine.RunToCompletion().ok());
  const ServingSnapshot snap = engine.snapshot();
  EXPECT_EQ(snap.completed, 3u);
  EXPECT_EQ(snap.peak_concurrent_sessions, 1u);
  for (uint64_t id : ids) {
    ASSERT_NE(engine.result(id), nullptr);
    EXPECT_TRUE(engine.result(id)->status.ok());
  }
}

TEST(ServingEngineTest, OversizedRequestRejected) {
  ServingFixture fx;
  ServingEngineOptions opts = fx.EngineOptions(1);
  ServingEngine sized(fx.db.get(), opts);
  const AdmissionEstimate one =
      sized.scheduler().Preflight(fx.MakeRequest(1, 3)).estimate;

  opts.scheduler.gpu_budget_bytes = one.gpu_bytes - 1;  // Can never fit.
  ServingEngine engine(fx.db.get(), opts);
  auto id = engine.Submit(fx.MakeRequest(31, 3));
  ASSERT_FALSE(id.ok());
  // Typed as permanent: retrying can never succeed (vs kBacklogFull).
  EXPECT_EQ(id.status().code(), StatusCode::kNeverFits);
  EXPECT_EQ(engine.snapshot().rejected, 1u);
  ASSERT_TRUE(engine.RunToCompletion().ok());  // Nothing queued; no-op.
  EXPECT_EQ(engine.snapshot().completed, 0u);
}

TEST(ServingEngineTest, QueueDepthLimitRejects) {
  ServingFixture fx;
  ServingEngineOptions opts = fx.EngineOptions(1);
  opts.scheduler.max_queue_depth = 1;
  ServingEngine engine(fx.db.get(), opts);
  ASSERT_TRUE(engine.Submit(fx.MakeRequest(41, 2)).ok());
  auto second = engine.Submit(fx.MakeRequest(42, 2));
  ASSERT_FALSE(second.ok());
  // Typed as retryable backpressure: the queue drains as sessions finish.
  EXPECT_EQ(second.status().code(), StatusCode::kBacklogFull);
  ASSERT_TRUE(engine.RunToCompletion().ok());
  EXPECT_EQ(engine.snapshot().completed, 1u);
}

TEST(ServingEngineTest, ConcurrentSessionsShareReusedPrefix) {
  ServingFixture fx;
  ServingEngineOptions opts = fx.EngineOptions(3);
  ServingEngine engine(fx.db.get(), opts);
  std::vector<uint64_t> ids;
  for (int i = 0; i < 3; ++i) {
    auto id = engine.Submit(fx.MakeRequest(51 + i, 2));
    ASSERT_TRUE(id.ok());
    ids.push_back(id.value().id());
  }
  ASSERT_TRUE(engine.RunToCompletion().ok());
  for (uint64_t id : ids) {
    const RequestResult* r = engine.result(id);
    ASSERT_NE(r, nullptr);
    ASSERT_TRUE(r->status.ok()) << r->status.ToString();
    // Every concurrent session reuses the same stored context, fully.
    EXPECT_EQ(r->reused_prefix, fx.context_tokens);
    EXPECT_EQ(r->reused_context_id, fx.context_id);
  }
}

TEST(ServingEngineTest, StoreOnFinishMaterializesContext) {
  ServingFixture fx;
  ServingEngineOptions opts = fx.EngineOptions(1);
  ServingEngine engine(fx.db.get(), opts);
  ServingRequest req = fx.MakeRequest(61, 3);
  req.store_on_finish = true;
  auto id = engine.Submit(std::move(req));
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(engine.RunToCompletion().ok());

  const RequestResult* r = engine.result(id.value().id());
  ASSERT_NE(r, nullptr);
  ASSERT_TRUE(r->status.ok()) << r->status.ToString();
  ASSERT_NE(r->stored_context_id, 0u);
  EXPECT_EQ(fx.db->contexts().size(), 2u);
  const Context* stored = fx.db->contexts().FindUnsafeForTest(r->stored_context_id);
  ASSERT_NE(stored, nullptr);
  // Reused prefix + 3 decoded tokens, with the request's token ids appended.
  EXPECT_EQ(stored->length(), fx.context_tokens + 3);
  EXPECT_EQ(stored->tokens().back(), 10000 + 61 * 100 + 2);

  // A follow-up prompt over the materialized context reuses it fully.
  auto again = fx.db->CreateSession(stored->tokens());
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.value().reused_prefix, fx.context_tokens + 3);
}

TEST(ServingEngineTest, UnprefillablePromptFailsThatRequestOnly) {
  ServingFixture fx;
  ServingEngineOptions opts = fx.EngineOptions(2);
  ServingEngine engine(fx.db.get(), opts);

  // One healthy request, one whose prompt extends past every stored context
  // but carries no fill_prompt callback — the engine cannot prefill the
  // suffix, so it must fail honestly, not serve garbage. (With fill_prompt
  // set, the same prompt serves through the prefill phase; see
  // serving_prefill_test.cc.)
  auto good = engine.Submit(fx.MakeRequest(81, 2));
  ASSERT_TRUE(good.ok());
  ServingRequest bad_req = fx.MakeRequest(82, 2);
  bad_req.prompt.push_back(-42);  // Unmatched suffix -> needs prefill.
  ASSERT_EQ(bad_req.fill_prompt, nullptr);
  auto bad = engine.Submit(std::move(bad_req));
  ASSERT_TRUE(bad.ok());

  ASSERT_TRUE(engine.RunToCompletion().ok());
  const RequestResult* g = engine.result(good.value().id());
  const RequestResult* b = engine.result(bad.value().id());
  ASSERT_NE(g, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_TRUE(g->status.ok()) << g->status.ToString();
  EXPECT_EQ(g->steps_completed, 2u);
  EXPECT_EQ(b->status.code(), StatusCode::kNotSupported);
  EXPECT_EQ(b->steps_completed, 0u);
  // The failed request released its reservation; nothing leaks.
  EXPECT_EQ(engine.scheduler().active(), 0u);
  EXPECT_EQ(engine.snapshot().completed, 2u);
}

TEST(ServingEngineTest, ThroughputSnapshotReported) {
  ServingFixture fx;
  ServingEngineOptions opts = fx.EngineOptions(2);
  ServingEngine engine(fx.db.get(), opts);
  ASSERT_TRUE(engine.Submit(fx.MakeRequest(71, 2)).ok());
  ASSERT_TRUE(engine.Submit(fx.MakeRequest(72, 3)).ok());
  ASSERT_TRUE(engine.RunToCompletion().ok());
  const ServingSnapshot snap = engine.snapshot();
  EXPECT_EQ(snap.tokens_decoded, 5u);
  EXPECT_GT(snap.tokens_per_second, 0.0);
  EXPECT_GT(snap.serve_wall_seconds, 0.0);
  EXPECT_EQ(snap.peak_concurrent_sessions, 2u);
  EXPECT_GT(snap.peak_gpu_bytes, 0u);
}

}  // namespace
}  // namespace alaya
