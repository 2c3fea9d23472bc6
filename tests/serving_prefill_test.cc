// The prefill/decode equivalence suite: the serving engine's prefill phase
// must be indistinguishable — bit for bit — from having decoded the same
// prompt from scratch. The golden test pins that contract under full
// attention, where exactness is mathematically required (the sparse DIPRS
// path is approximate by design, so equivalence there is covered by the
// concurrent-vs-sequential schedule tests instead, which hold bit-exactly on
// every path).
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "src/common/rng.h"
#include "src/query/batched_prefill.h"
#include "src/server/serving_engine.h"

namespace alaya {
namespace {

constexpr uint64_t kDocSeed = 7;

/// Deterministic QKV for prompt token `token` of the (single) synthetic
/// document — the one source of truth shared by the imported context KV, the
/// engine's fill_prompt callback, and the fresh-session golden run.
void FillPromptToken(const ModelConfig& m, size_t token, uint32_t layer, float* q,
                     float* k, float* v) {
  Rng rng(kDocSeed * 2654435761ull + token * 9176ull + layer * 97ull);
  rng.FillGaussian(q, static_cast<size_t>(m.num_q_heads) * m.head_dim);
  rng.FillGaussian(k, static_cast<size_t>(m.num_kv_heads) * m.head_dim);
  rng.FillGaussian(v, static_cast<size_t>(m.num_kv_heads) * m.head_dim);
}

/// Token id at prompt position `i` (arbitrary, but stable so prefix matching
/// engages).
int32_t PromptTokenId(size_t i) { return 500 + static_cast<int32_t>(i); }

struct PrefillFixture {
  ModelConfig model = ModelConfig::Tiny();
  size_t stored_tokens;  ///< Prompt prefix held by the imported context.
  SimEnvironment env;
  DbOptions options;
  std::unique_ptr<AlayaDB> db;
  uint64_t context_id = 0;
  ThreadPool pool{4};

  /// `import_tokens` == 0 leaves the store empty (every prompt fully
  /// prefills). `short_context_threshold` picks full attention (large) or the
  /// sparse DIPRS path (small).
  explicit PrefillFixture(size_t import_tokens, size_t short_context_threshold = 4096)
      : stored_tokens(import_tokens) {
    options.model = model;
    options.session.optimizer.short_context_threshold = short_context_threshold;
    options.session.window = WindowConfig{8, 16};
    db = std::make_unique<AlayaDB>(options, &env);
    if (import_tokens > 0) {
      auto kv = std::make_unique<KvCache>(model);
      const size_t qdim = static_cast<size_t>(model.num_q_heads) * model.head_dim;
      const size_t kvdim = static_cast<size_t>(model.num_kv_heads) * model.head_dim;
      std::vector<float> q(qdim), k(kvdim), v(kvdim);
      for (uint32_t layer = 0; layer < model.num_layers; ++layer) {
        for (size_t t = 0; t < import_tokens; ++t) {
          FillPromptToken(model, t, layer, q.data(), k.data(), v.data());
          kv->AppendToken(layer, k.data(), v.data());
        }
      }
      std::vector<int32_t> tokens(import_tokens);
      for (size_t i = 0; i < import_tokens; ++i) tokens[i] = PromptTokenId(i);
      auto imported = db->Import(std::move(tokens), std::move(kv));
      EXPECT_TRUE(imported.ok()) << imported.status().ToString();
      context_id = imported.ValueOr(0);
    }
  }

  ServingEngineOptions EngineOptions(size_t max_concurrent) {
    ServingEngineOptions o;
    o.scheduler.max_concurrent_sessions = max_concurrent;
    o.pool = &pool;
    return o;
  }

  /// A request over the first `prompt_tokens` positions of the synthetic
  /// document: tokens the store covers are reused, the rest prefill through
  /// fill_prompt. Decode inputs depend only on (seed, step, layer).
  ServingRequest MakeRequest(size_t prompt_tokens, size_t steps,
                             uint64_t decode_seed) const {
    ServingRequest r;
    r.prompt.resize(prompt_tokens);
    for (size_t i = 0; i < prompt_tokens; ++i) r.prompt[i] = PromptTokenId(i);
    r.max_new_tokens = steps;
    r.record_outputs = true;
    const ModelConfig m = model;
    r.fill_prompt = [m](size_t token, uint32_t layer, float* q, float* k, float* v) {
      FillPromptToken(m, token, layer, q, k, v);
    };
    r.fill_step = [m, decode_seed](size_t step, uint32_t layer, float* q, float* k,
                                   float* v) {
      Rng rng(decode_seed * 1000003ull + step * 131ull + layer);
      rng.FillGaussian(q, static_cast<size_t>(m.num_q_heads) * m.head_dim);
      rng.FillGaussian(k, static_cast<size_t>(m.num_kv_heads) * m.head_dim);
      rng.FillGaussian(v, static_cast<size_t>(m.num_kv_heads) * m.head_dim);
    };
    r.token_at = [decode_seed](size_t step) {
      return static_cast<int32_t>(40000 + decode_seed * 100 + step);
    };
    return r;
  }
};

/// Runs one request to completion on `fx` and returns a copy of its result.
RequestResult RunOne(PrefillFixture& fx, ServingRequest req) {
  ServingEngine engine(fx.db.get(), fx.EngineOptions(1));
  auto id = engine.Submit(std::move(req));
  EXPECT_TRUE(id.ok()) << id.status().ToString();
  EXPECT_TRUE(engine.RunToCompletion().ok());
  const RequestResult* r = engine.result(id.ValueOr(RequestHandle{}).id());
  EXPECT_NE(r, nullptr);
  return r != nullptr ? *r : RequestResult{};
}

// --- Tentpole acceptance: partial-prefix prompts now serve end to end. ---

TEST(ServingPrefillTest, PromptPastStoredContextCompletesThroughPrefill) {
  constexpr size_t kStored = 96, kSuffix = 32, kSteps = 4;
  PrefillFixture fx(kStored);
  ServingEngine engine(fx.db.get(), fx.EngineOptions(1));
  auto id = engine.Submit(fx.MakeRequest(kStored + kSuffix, kSteps, /*seed=*/11));
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  ASSERT_TRUE(engine.RunToCompletion().ok());

  const RequestResult* r = engine.result(id.value().id());
  ASSERT_NE(r, nullptr);
  ASSERT_TRUE(r->status.ok()) << r->status.ToString();
  EXPECT_EQ(r->reused_prefix, kStored);
  EXPECT_EQ(r->reused_context_id, fx.context_id);
  EXPECT_EQ(r->prefilled_tokens, kSuffix);
  EXPECT_EQ(r->steps_completed, kSteps);
  EXPECT_EQ(r->outputs.size(),
            kSteps * static_cast<size_t>(fx.model.num_q_heads) * fx.model.head_dim);

  const ServingSnapshot snap = engine.snapshot();
  EXPECT_EQ(snap.tokens_prefilled, kSuffix);
  EXPECT_EQ(snap.tokens_decoded, kSteps);
  // Peak residency is sampled during the prefill phase too: the prefilled
  // suffix lands in session-local (device-resident) KV, so the observed peak
  // must cover it alongside the window and decoded tail.
  EXPECT_GE(snap.peak_gpu_bytes,
            (kSuffix + kSteps) * fx.model.KvBytesPerToken());
  // Throughput stays finite even when the run completes faster than the wall
  // clock resolves.
  EXPECT_GT(snap.tokens_per_second, 0.0);
  EXPECT_TRUE(std::isfinite(snap.tokens_per_second));
}

TEST(ServingPrefillTest, NoMatchPromptPrefillsEntirePrompt) {
  constexpr size_t kPrompt = 48, kSteps = 3;
  PrefillFixture fx(/*import_tokens=*/0);
  ServingEngine engine(fx.db.get(), fx.EngineOptions(1));
  auto id = engine.Submit(fx.MakeRequest(kPrompt, kSteps, /*seed=*/12));
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(engine.RunToCompletion().ok());

  const RequestResult* r = engine.result(id.value().id());
  ASSERT_NE(r, nullptr);
  ASSERT_TRUE(r->status.ok()) << r->status.ToString();
  EXPECT_EQ(r->reused_prefix, 0u);
  EXPECT_EQ(r->reused_context_id, 0u);
  EXPECT_EQ(r->prefilled_tokens, kPrompt);
  EXPECT_EQ(r->steps_completed, kSteps);
}

// --- The equivalence golden: prefill into a reused context == decoding the
// --- same prompt in a fresh session from scratch, bit for bit.

TEST(ServingPrefillTest, PrefillDecodeEquivalenceGolden) {
  constexpr size_t kStored = 96, kSuffix = 32, kSteps = 4;
  constexpr uint64_t kSeed = 21;

  // Run A: the prompt's first 96 tokens are a stored context; the engine
  // reuses them and prefills only the 32-token suffix.
  PrefillFixture reused_fx(kStored);
  const RequestResult a =
      RunOne(reused_fx, reused_fx.MakeRequest(kStored + kSuffix, kSteps, kSeed));
  ASSERT_TRUE(a.status.ok()) << a.status.ToString();
  ASSERT_EQ(a.reused_prefix, kStored);
  ASSERT_EQ(a.prefilled_tokens, kSuffix);

  // Run B: empty store — the same prompt decodes in a fresh session from
  // scratch (every token prefilled locally).
  PrefillFixture fresh_fx(/*import_tokens=*/0);
  const RequestResult b =
      RunOne(fresh_fx, fresh_fx.MakeRequest(kStored + kSuffix, kSteps, kSeed));
  ASSERT_TRUE(b.status.ok()) << b.status.ToString();
  ASSERT_EQ(b.reused_prefix, 0u);
  ASSERT_EQ(b.prefilled_tokens, kStored + kSuffix);

  // Bit-identical: reuse + prefill changes where KV lives, never the math.
  ASSERT_EQ(a.outputs.size(), b.outputs.size());
  EXPECT_EQ(a.outputs, b.outputs);
}

TEST(ServingPrefillTest, EquivalenceHoldsUnderConcurrentSchedule) {
  constexpr size_t kStored = 96, kSuffix = 24, kSteps = 3;

  // Three request classes: full reuse, partial prefix (prefill), no match
  // (prompt of fresh ids, full local prefill).
  auto make_requests = [&](PrefillFixture& fx) {
    std::vector<ServingRequest> reqs;
    reqs.push_back(fx.MakeRequest(kStored, kSteps, 31));            // Full reuse.
    reqs.push_back(fx.MakeRequest(kStored + kSuffix, kSteps, 32));  // Partial.
    ServingRequest fresh = fx.MakeRequest(40, kSteps, 33);          // No match.
    for (auto& t : fresh.prompt) t += 1'000'000;
    reqs.push_back(std::move(fresh));
    return reqs;
  };

  // Concurrent schedule: all three admitted and stepped together.
  PrefillFixture conc_fx(kStored);
  ServingEngine concurrent(conc_fx.db.get(), conc_fx.EngineOptions(3));
  std::vector<uint64_t> cids;
  for (auto& r : make_requests(conc_fx)) {
    auto id = concurrent.Submit(std::move(r));
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    cids.push_back(id.value().id());
  }
  ASSERT_TRUE(concurrent.RunToCompletion().ok());
  EXPECT_EQ(concurrent.snapshot().peak_concurrent_sessions, 3u);

  // Sequential schedule: identical DB state, one session at a time.
  PrefillFixture seq_fx(kStored);
  ServingEngine sequential(seq_fx.db.get(), seq_fx.EngineOptions(1));
  std::vector<uint64_t> sids;
  for (auto& r : make_requests(seq_fx)) {
    auto id = sequential.Submit(std::move(r));
    ASSERT_TRUE(id.ok());
    sids.push_back(id.value().id());
  }
  ASSERT_TRUE(sequential.RunToCompletion().ok());
  EXPECT_EQ(sequential.snapshot().peak_concurrent_sessions, 1u);

  for (size_t i = 0; i < cids.size(); ++i) {
    const RequestResult* c = concurrent.result(cids[i]);
    const RequestResult* s = sequential.result(sids[i]);
    ASSERT_NE(c, nullptr);
    ASSERT_NE(s, nullptr);
    ASSERT_TRUE(c->status.ok()) << c->status.ToString();
    ASSERT_TRUE(s->status.ok()) << s->status.ToString();
    EXPECT_EQ(c->prefilled_tokens, s->prefilled_tokens);
    ASSERT_EQ(c->outputs.size(), s->outputs.size());
    EXPECT_EQ(c->outputs, s->outputs) << "request " << i;
  }
  // The partially-matched request prefilled exactly the suffix; the fresh one
  // its entire prompt.
  EXPECT_EQ(concurrent.result(cids[0])->prefilled_tokens, 0u);
  EXPECT_EQ(concurrent.result(cids[1])->prefilled_tokens, kSuffix);
  EXPECT_EQ(concurrent.result(cids[2])->prefilled_tokens, 40u);
}

TEST(ServingPrefillTest, ChunkSizeNeverChangesOutputs) {
  constexpr size_t kStored = 64, kSuffix = 37, kSteps = 3;  // Odd: ragged chunks.
  std::vector<float> golden;
  for (size_t chunk : {size_t{4}, size_t{16}, size_t{64}}) {
    PrefillFixture fx(kStored);
    ServingEngineOptions opts = fx.EngineOptions(1);
    opts.scheduler.prefill_chunk_tokens = chunk;
    ServingEngine engine(fx.db.get(), opts);
    auto id = engine.Submit(fx.MakeRequest(kStored + kSuffix, kSteps, /*seed=*/41));
    ASSERT_TRUE(id.ok());
    ASSERT_TRUE(engine.RunToCompletion().ok());
    const RequestResult* r = engine.result(id.value().id());
    ASSERT_NE(r, nullptr);
    ASSERT_TRUE(r->status.ok()) << r->status.ToString();
    EXPECT_EQ(r->prefilled_tokens, kSuffix);
    if (golden.empty()) {
      golden = r->outputs;
    } else {
      EXPECT_EQ(r->outputs, golden) << "chunk " << chunk;
    }
  }
}

// --- Prefill composes with the rest of the engine. ---

TEST(ServingPrefillTest, StoreAfterPrefillMaterializesFullPrompt) {
  constexpr size_t kStored = 64, kSuffix = 16, kSteps = 3;
  PrefillFixture fx(kStored);
  ServingEngine engine(fx.db.get(), fx.EngineOptions(1));
  ServingRequest req = fx.MakeRequest(kStored + kSuffix, kSteps, /*seed=*/51);
  req.store_on_finish = true;
  auto id = engine.Submit(std::move(req));
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(engine.RunToCompletion().ok());

  const RequestResult* r = engine.result(id.value().id());
  ASSERT_NE(r, nullptr);
  ASSERT_TRUE(r->status.ok()) << r->status.ToString();
  ASSERT_NE(r->stored_context_id, 0u);

  // The materialized context covers the full prompt (reused prefix + the
  // prefilled suffix, with the prompt's own ids) plus the decoded tail.
  const Context* stored = fx.db->contexts().FindUnsafeForTest(r->stored_context_id);
  ASSERT_NE(stored, nullptr);
  ASSERT_EQ(stored->length(), kStored + kSuffix + kSteps);
  for (size_t i = 0; i < kStored + kSuffix; ++i) {
    ASSERT_EQ(stored->tokens()[i], PromptTokenId(i)) << "position " << i;
  }
  EXPECT_EQ(stored->tokens().back(), 40000 + 51 * 100 + kSteps - 1);

  // A follow-up prompt over the materialized context reuses it fully — the
  // prefilled suffix is now served from the store.
  auto again = fx.db->CreateSession(stored->tokens());
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.value().reused_prefix, kStored + kSuffix + kSteps);
  EXPECT_TRUE(again.value().truncated_prompt.empty());
}

TEST(ServingPrefillTest, PrefillChargesModeledGpuTimeAndWallTime) {
  constexpr size_t kStored = 64, kSuffix = 32;
  PrefillFixture fx(kStored);
  ServingEngine engine(fx.db.get(), fx.EngineOptions(1));
  const double clock_before = fx.env.gpu_clock().Seconds();
  auto id = engine.Submit(fx.MakeRequest(kStored + kSuffix, /*steps=*/1, 61));
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(engine.RunToCompletion().ok());
  const RequestResult* r = engine.result(id.value().id());
  ASSERT_NE(r, nullptr);
  ASSERT_TRUE(r->status.ok());
  EXPECT_GT(r->stats.modeled_gpu_seconds, 0.0);
  EXPECT_GT(r->prefill_wall_seconds, 0.0);
  EXPECT_GT(fx.env.gpu_clock().Seconds(), clock_before);
}

// --- The batched prefill helper itself (src/query/batched_prefill.h). ---

TEST(BatchedPrefillTest, BatchAppendsKvAndRecordsQueriesPerSession) {
  const ModelConfig model = ModelConfig::Tiny();
  SessionOptions sopts;
  sopts.window = WindowConfig{8, 16};
  Session s1(model, sopts, nullptr, 0);
  Session s2(model, sopts, nullptr, 0);

  const size_t qdim = static_cast<size_t>(model.num_q_heads) * model.head_dim;
  const size_t kvdim = static_cast<size_t>(model.num_kv_heads) * model.head_dim;
  constexpr size_t kCount1 = 12, kCount2 = 7;
  std::vector<float> q1(kCount1 * qdim), k1(kCount1 * kvdim), v1(kCount1 * kvdim);
  std::vector<float> q2(kCount2 * qdim), k2(kCount2 * kvdim), v2(kCount2 * kvdim);
  auto fill = [model](size_t token, uint32_t layer, float* q, float* k, float* v) {
    FillPromptToken(model, token, layer, q, k, v);
  };

  ThreadPool pool(2);
  std::vector<Status> per_job(2, Status::Internal("not run"));
  {
    PrefillWave wave;
    wave.Launch({&s1, /*first_token=*/0, kCount1, fill, q1.data(), k1.data(), v1.data()},
                &per_job[0], &pool);
    wave.Launch({&s2, /*first_token=*/100, kCount2, fill, q2.data(), k2.data(), v2.data()},
                &per_job[1], &pool);
    wave.Wait();
  }
  EXPECT_TRUE(per_job[0].ok()) << per_job[0].ToString();
  EXPECT_TRUE(per_job[1].ok()) << per_job[1].ToString();

  for (uint32_t layer = 0; layer < model.num_layers; ++layer) {
    EXPECT_EQ(s1.LocalTokens(layer), kCount1);
    EXPECT_EQ(s2.LocalTokens(layer), kCount2);
    // Queries recorded for index training — one sample per prefilled token.
    ASSERT_NE(s1.recorded_queries(), nullptr);
    EXPECT_EQ(s1.recorded_queries()->NumSamples(layer), kCount1);
    EXPECT_EQ(s2.recorded_queries()->NumSamples(layer), kCount2);
  }

  // The appended KV matches the fill source exactly (token-major layout
  // sliced into per-head rows).
  std::vector<float> q(qdim), k(kvdim), v(kvdim);
  FillPromptToken(model, 100, /*layer=*/1, q.data(), k.data(), v.data());
  VectorSetView keys = s2.local_kv().Keys(/*layer=*/1, /*kv_head=*/1);
  const float* expected = k.data() + static_cast<size_t>(1) * model.head_dim;
  for (uint32_t j = 0; j < model.head_dim; ++j) {
    ASSERT_EQ(keys.Vec(0)[j], expected[j]);
  }
}

TEST(BatchedPrefillTest, JobFailureIsIsolatedPerSession) {
  const ModelConfig model = ModelConfig::Tiny();
  SessionOptions sopts;
  Session good(model, sopts, nullptr, 0);
  Session bad(model, sopts, nullptr, 0);

  const size_t qdim = static_cast<size_t>(model.num_q_heads) * model.head_dim;
  const size_t kvdim = static_cast<size_t>(model.num_kv_heads) * model.head_dim;
  std::vector<float> q(4 * qdim), k(4 * kvdim), v(4 * kvdim);
  auto fill = [model](size_t token, uint32_t layer, float* qq, float* kk, float* vv) {
    FillPromptToken(model, token, layer, qq, kk, vv);
  };

  std::vector<Status> per_job(2, Status::Internal("not run"));
  {
    PrefillWave wave;
    wave.Launch({&good, 0, 4, fill, q.data(), k.data(), v.data()}, &per_job[0]);
    wave.Launch({&bad, 0, 4, fill, nullptr, nullptr, nullptr},  // Missing scratch.
                &per_job[1]);
    wave.Wait();
  }
  EXPECT_TRUE(per_job[0].ok());
  EXPECT_EQ(per_job[1].code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(good.LocalTokens(), 4u);
  EXPECT_EQ(bad.LocalTokens(), 0u);
}

}  // namespace
}  // namespace alaya
