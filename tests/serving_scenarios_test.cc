// End-to-end serving scenarios that take seconds or bound wall time: the
// quantized-residency comparison at an equal host budget, the priority-burst
// preemption scenario (with its TTFT bound), and serving over a tiered
// context store that spills and pages contexts in under load. Kept out of the
// TSan job; it runs in the regular and ASan+UBSan suites.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <thread>
#include <vector>

#include "src/common/rng.h"
#include "src/llm/qkv_generator.h"
#include "src/llm/workloads.h"
#include "src/server/serving_engine.h"

namespace alaya {
namespace {

/// Wall-clock bounds are asserted in optimized, uninstrumented builds only.
/// Debug and sanitizer builds (CI's ASan+UBSan job) slow every decode step
/// several-fold, so there a scenario runs all its other checks and prints
/// the wall times it measured.
#if defined(NDEBUG) && !defined(__SANITIZE_ADDRESS__)
constexpr bool kAssertWallClockBounds = true;
#else
constexpr bool kAssertWallClockBounds = false;
#endif

/// Geometry of the paper-figure benches: 2 layers, 4 query heads, 2 KV heads
/// (GQA 2:1), head dim 64.
constexpr ModelConfig kBenchModel{2, 4, 2, 64, 2};

/// Synthetic ∞-Bench documents at 4% of the paper's context lengths. Suite
/// seeds are sequential per task, so each document's seed is spaced by 1000.
std::vector<std::unique_ptr<SyntheticContext>> MakeDocs(size_t count,
                                                        ThreadPool* pool) {
  const std::vector<WorkloadSpec> suite = InfinityBenchSuite(0.04);
  const char* tasks[] = {"En.QA", "En.MC", "Code.D", "Math.F"};
  std::vector<std::unique_ptr<SyntheticContext>> docs;
  for (size_t i = 0; i < count; ++i) {
    SyntheticContextOptions copts;
    copts.model = kBenchModel;
    copts.spec = FindTask(suite, tasks[i % 4]);
    copts.spec.seed += i * 1000;
    copts.pool = pool;
    auto doc = std::make_unique<SyntheticContext>(copts);
    EXPECT_TRUE(doc->Generate().ok());
    docs.push_back(std::move(doc));
  }
  return docs;
}

/// Imports `doc` in full, with its training queries (so the fine index is
/// built exactly as a stored context's would be).
void ImportDoc(AlayaDB* db, const SyntheticContext& doc) {
  auto kv = std::make_unique<KvCache>(kBenchModel);
  ASSERT_TRUE(kv->AppendPrefixFrom(doc.kv(), doc.num_tokens()).ok());
  auto training = doc.MakeTrainingQueries(128);
  ASSERT_TRUE(db->Import(doc.tokens(), std::move(kv), training.get()).ok());
}

/// A request over `doc`'s full token sequence: decode queries come from the
/// document, decoded K/V are derived deterministically from (step, layer).
ServingRequest MakeDocRequest(const SyntheticContext* doc, size_t steps) {
  ServingRequest r;
  r.prompt = doc->tokens();
  r.max_new_tokens = steps;
  r.fill_step = [doc](size_t step, uint32_t layer, float* q, float* k, float* v) {
    doc->MakeDecodeQueryLayer(step, layer, q);
    const size_t kv_width =
        static_cast<size_t>(kBenchModel.num_kv_heads) * kBenchModel.head_dim;
    Rng rng(0xC0FFEE ^ (step * 1315423911ull + layer));
    rng.FillGaussian(k, kv_width);
    rng.FillGaussian(v, kv_width);
  };
  return r;
}

/// Nearest-rank percentile (q in [0, 1]) of an unsorted sample.
double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t rank = std::min(
      v.size() - 1, static_cast<size_t>(q * static_cast<double>(v.size() - 1) + 0.5));
  return v[rank];
}

// --- Quantized residency: at an equal host budget, int8 KV keeps strictly
// --- more contexts resident than fp32.

/// Imports every document into a fresh store under `budget_bytes` and
/// `codec`, and reports the residency split the eviction policy settles on.
/// The workload is identical across calls, so any difference is the codec's.
TieredContextStore::Stats ImportUnderBudget(
    const std::vector<std::unique_ptr<SyntheticContext>>& docs, VectorCodec codec,
    uint64_t budget_bytes, ThreadPool* pool) {
  SimEnvironment env;
  DbOptions options;
  options.model = kBenchModel;
  options.materialize_pool = pool;
  options.tier.host_budget_bytes = budget_bytes;
  options.quant.kv_codec = codec;
  AlayaDB db(options, &env);
  for (const auto& doc : docs) ImportDoc(&db, *doc);
  EXPECT_NE(db.tiers(), nullptr);
  return db.tiers() != nullptr ? db.tiers()->stats() : TieredContextStore::Stats{};
}

TEST(ServingScenariosTest, Int8KeepsMoreContextsResidentThanFp32AtEqualBudget) {
  constexpr size_t kContexts = 8;
  constexpr uint64_t kBudget = 8ull << 20;
  ThreadPool pool(4);
  const auto docs = MakeDocs(kContexts, &pool);

  const TieredContextStore::Stats fp32 =
      ImportUnderBudget(docs, VectorCodec::kFp32, kBudget, &pool);
  const TieredContextStore::Stats int8 =
      ImportUnderBudget(docs, VectorCodec::kInt8, kBudget, &pool);
  std::printf("[ measured ] at %llu MiB: fp32 %zu resident / %zu spilled, "
              "int8 %zu resident / %zu spilled\n",
              static_cast<unsigned long long>(kBudget >> 20), fp32.resident_contexts,
              fp32.spilled_contexts, int8.resident_contexts, int8.spilled_contexts);

  for (const TieredContextStore::Stats& stats : {fp32, int8}) {
    EXPECT_EQ(stats.resident_contexts + stats.spilled_contexts, kContexts);
    EXPECT_LE(stats.resident_kv_bytes, kBudget);
  }
  // The budget binds on fp32 (otherwise the comparison is vacuous), and int8
  // then fits strictly more contexts resident.
  EXPECT_GT(fp32.spilled_contexts, 0u);
  EXPECT_GT(int8.resident_contexts, fp32.resident_contexts);
}

// --- Priority burst: long low-priority decodes fill every slot, then a burst
// --- of short high-priority requests lands mid-decode. The highs preempt,
// --- every low resumes and finishes intact, no tenant starves, and the burst
// --- p99 TTFT stays within max(2x the idle baseline, 50 ms).

TEST(ServingScenariosTest, PriorityBurstPreemptsWithinTtftBound) {
  constexpr size_t kSlots = 4;
  constexpr size_t kLows = 4;
  constexpr size_t kHighs = 6;
  constexpr size_t kLowSteps = 96;
  constexpr size_t kHighSteps = 4;
  constexpr size_t kTenants = 3;
  // Microsecond-scale idle baselines would make a pure 2x bound flaky on a
  // loaded host; the bound is max(2x idle p99, this floor).
  constexpr double kTtftFloorSeconds = 0.050;

  ThreadPool pool(4);
  const auto docs = MakeDocs(4, &pool);
  SimEnvironment env;
  DbOptions options;
  options.model = kBenchModel;
  options.session.optimizer.short_context_threshold = 512;
  options.session.window = WindowConfig{32, 128};
  options.materialize_pool = &pool;
  AlayaDB db(options, &env);
  // Prompts are fully covered, so TTFT isolates admission + preemption from
  // prefill length.
  for (const auto& doc : docs) ImportDoc(&db, *doc);

  ServingEngineOptions eopts;
  eopts.scheduler.max_concurrent_sessions = kSlots;
  eopts.scheduler.step_token_budget = 64;
  // Tenant 0 weighs double: the ledger exercises weighted fair share.
  eopts.scheduler.tenant_weights[0] = 2.0;
  eopts.pool = &pool;
  ServingEngine engine(&db, eopts);
  ASSERT_TRUE(engine.Start().ok());

  auto make = [&](size_t i, size_t steps, int priority) {
    ServingRequest r = MakeDocRequest(docs[i % docs.size()].get(), steps);
    r.priority = priority;
    r.tenant_id = i % kTenants;
    return r;
  };

  // Phase A: one high-priority request at a time on an otherwise idle engine;
  // its TTFT is pure admission + first step.
  std::vector<double> idle_ttft;
  for (size_t i = 0; i < kHighs; ++i) {
    auto h = engine.Submit(make(i, kHighSteps, /*priority=*/1));
    ASSERT_TRUE(h.ok()) << h.status().ToString();
    const RequestResult* r = h.value().Wait();
    ASSERT_NE(r, nullptr);
    ASSERT_TRUE(r->status.ok()) << r->status.ToString();
    idle_ttft.push_back(r->ttft_seconds);
  }

  // Phase B: fill every slot with a long low-priority decode, wait until all
  // of them have streamed their first token, then fire the high burst.
  std::atomic<size_t> lows_started{0};
  std::vector<RequestHandle> lows, highs;
  for (size_t i = 0; i < kLows; ++i) {
    ServingRequest r = make(i, kLowSteps, /*priority=*/0);
    r.on_token = [&lows_started](size_t step, std::span<const float>) {
      if (step == 0) lows_started.fetch_add(1);
    };
    auto h = engine.Submit(std::move(r));
    ASSERT_TRUE(h.ok()) << h.status().ToString();
    lows.push_back(h.value());
  }
  while (lows_started.load() < kLows) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  for (size_t i = 0; i < kHighs; ++i) {
    auto h = engine.Submit(make(i, kHighSteps, /*priority=*/1));
    ASSERT_TRUE(h.ok()) << h.status().ToString();
    highs.push_back(h.value());
  }

  std::vector<double> burst_ttft;
  for (RequestHandle& h : highs) {
    const RequestResult* r = h.Wait();
    ASSERT_NE(r, nullptr);
    ASSERT_TRUE(r->status.ok()) << r->status.ToString();
    EXPECT_EQ(r->steps_completed, kHighSteps);
    burst_ttft.push_back(r->ttft_seconds);
  }
  size_t low_preemptions = 0;
  for (size_t i = 0; i < lows.size(); ++i) {
    const RequestResult* r = lows[i].Wait();
    ASSERT_NE(r, nullptr);
    ASSERT_TRUE(r->status.ok()) << "low " << i << ": " << r->status.ToString();
    // A resumed low losing decode steps would be silent recompute or loss.
    EXPECT_EQ(r->steps_completed, kLowSteps) << "low " << i;
    EXPECT_EQ(r->resumes, r->preemptions) << "low " << i;
    low_preemptions += r->preemptions;
  }
  engine.WaitIdle();
  ASSERT_TRUE(engine.Shutdown().ok());
  const ServingSnapshot snap = engine.snapshot();

  EXPECT_GT(snap.preemptions, 0u);
  EXPECT_GT(snap.resumes, 0u);
  EXPECT_GT(low_preemptions, 0u);
  EXPECT_EQ(snap.tenants.size(), kTenants);
  for (const TenantServingStats& ts : snap.tenants) {
    EXPECT_GT(ts.admitted, 0u) << "tenant " << ts.tenant_id << " starved";
    EXPECT_GT(ts.completed, 0u) << "tenant " << ts.tenant_id << " starved";
  }

  const double idle_p99 = Percentile(idle_ttft, 0.99);
  const double burst_p99 = Percentile(burst_ttft, 0.99);
  const double bound = std::max(2.0 * idle_p99, kTtftFloorSeconds);
  std::printf("[ measured ] idle high p99 TTFT %.2f ms, burst high p99 %.2f ms, "
              "bound %.2f ms%s\n",
              idle_p99 * 1e3, burst_p99 * 1e3, bound * 1e3,
              kAssertWallClockBounds ? "" : " (not asserted in this build)");
  if (kAssertWallClockBounds) {
    EXPECT_LE(burst_p99, bound);
  }
}

// --- Serving over a tiered store: a host budget smaller than the stored
// --- contexts forces spills and page-ins while requests run, and every
// --- output matches the same codec's unbudgeted run bit for bit.

struct TieredServingRun {
  std::vector<std::vector<float>> outputs;  ///< Per request, submission order.
  ServingSnapshot snap;
  uint64_t resident_kv_bytes = 0;  ///< Store-resident KV after the imports.
};

constexpr size_t kTierTenants = 4;
constexpr size_t kTierContextTokens = 160;
constexpr size_t kTierSuffixTokens = 16;  ///< Prompt tokens past the context.
constexpr size_t kTierRequests = 8;
constexpr size_t kTierSteps = 4;

std::vector<int32_t> TierContextTokens(size_t tenant) {
  std::vector<int32_t> t(kTierContextTokens);
  for (size_t i = 0; i < t.size(); ++i) {
    t[i] = static_cast<int32_t>(1000 * (tenant + 1) + i);  // Prefix-disjoint.
  }
  return t;
}

/// Imports one context per tenant, then serves `kTierRequests` requests
/// round-robin over the tenants: each prompt extends its tenant's context by
/// a prefilled suffix, so every request both reuses (and, under a budget,
/// pages in) a stored context and runs the prefill path.
TieredServingRun ServeTiered(VectorCodec codec, uint64_t host_budget_bytes,
                             size_t devices) {
  const ModelConfig model = ModelConfig::Tiny();
  ThreadPool pool(4);
  SimEnvironment env;
  DbOptions options;
  options.model = model;
  options.session.optimizer.short_context_threshold = 64;
  options.session.window = WindowConfig{8, 16};
  options.materialize_pool = &pool;
  options.tier.host_budget_bytes = host_budget_bytes;
  options.quant.kv_codec = codec;
  AlayaDB db(options, &env);

  const size_t stride = static_cast<size_t>(model.num_kv_heads) * model.head_dim;
  TieredServingRun run;
  for (size_t t = 0; t < kTierTenants; ++t) {
    auto kv = std::make_unique<KvCache>(model);
    Rng rng(1 + t);
    std::vector<float> k(stride), v(stride);
    for (uint32_t layer = 0; layer < model.num_layers; ++layer) {
      for (size_t i = 0; i < kTierContextTokens; ++i) {
        rng.FillGaussian(k.data(), stride);
        rng.FillGaussian(v.data(), stride);
        kv->AppendToken(layer, k.data(), v.data());
      }
    }
    auto imported = db.Import(TierContextTokens(t), std::move(kv));
    EXPECT_TRUE(imported.ok()) << imported.status().ToString();
    // Spread the still-resident contexts over the fleet (as a sharded store
    // would leave them) so placement affinity uses every device.
    if (std::shared_ptr<Context> ctx = db.contexts().FindShared(imported.ValueOr(0))) {
      ctx->set_resident_device(static_cast<int>(t % devices));
    }
  }
  run.resident_kv_bytes = db.contexts().TotalKvBytes();

  ServingEngineOptions eopts;
  eopts.scheduler.max_concurrent_sessions = 2;
  eopts.scheduler.devices = devices;
  eopts.pool = &pool;
  ServingEngine engine(&db, eopts);
  std::vector<RequestHandle> handles;
  for (size_t i = 0; i < kTierRequests; ++i) {
    const size_t tenant = i % kTierTenants;
    ServingRequest r;
    r.prompt = TierContextTokens(tenant);
    for (size_t s = 0; s < kTierSuffixTokens; ++s) {
      r.prompt.push_back(static_cast<int32_t>(900000 + 100 * i + s));
    }
    r.max_new_tokens = kTierSteps;
    r.record_outputs = true;
    const uint64_t seed = 100 + i;
    r.fill_prompt = [model, seed](size_t token, uint32_t layer, float* q, float* k,
                                  float* v) {
      Rng rng(seed * 7919ull + token * 131ull + layer);
      rng.FillGaussian(q, static_cast<size_t>(model.num_q_heads) * model.head_dim);
      rng.FillGaussian(k, static_cast<size_t>(model.num_kv_heads) * model.head_dim);
      rng.FillGaussian(v, static_cast<size_t>(model.num_kv_heads) * model.head_dim);
    };
    r.fill_step = [model, seed](size_t step, uint32_t layer, float* q, float* k,
                                float* v) {
      Rng rng(seed * 1000003ull + step * 131ull + layer);
      rng.FillGaussian(q, static_cast<size_t>(model.num_q_heads) * model.head_dim);
      rng.FillGaussian(k, static_cast<size_t>(model.num_kv_heads) * model.head_dim);
      rng.FillGaussian(v, static_cast<size_t>(model.num_kv_heads) * model.head_dim);
    };
    auto h = engine.Submit(std::move(r));
    EXPECT_TRUE(h.ok()) << h.status().ToString();
    if (h.ok()) handles.push_back(h.value());
  }
  EXPECT_TRUE(engine.RunToCompletion().ok());
  for (size_t i = 0; i < handles.size(); ++i) {
    const RequestResult* r = handles[i].Wait();
    EXPECT_NE(r, nullptr);
    if (r == nullptr) continue;
    EXPECT_TRUE(r->status.ok()) << "request " << i << ": " << r->status.ToString();
    EXPECT_EQ(r->steps_completed, kTierSteps) << "request " << i;
    run.outputs.push_back(r->outputs);
  }
  run.snap = engine.snapshot();
  return run;
}

TEST(ServingScenariosTest, TieredServingMatchesUnbudgetedGolden) {
  for (const VectorCodec codec : {VectorCodec::kFp32, VectorCodec::kInt8}) {
    SCOPED_TRACE(VectorCodecName(codec));
    const TieredServingRun golden = ServeTiered(codec, /*host_budget_bytes=*/0, 1);
    ASSERT_EQ(golden.outputs.size(), kTierRequests);
    ASSERT_FALSE(golden.outputs[0].empty());
    // Room for two and a half of the four contexts: requests cycling over all
    // four tenants must page spilled contexts back in while others spill.
    const uint64_t budget = golden.resident_kv_bytes / kTierTenants * 5 / 2;
    for (const size_t devices : {size_t{1}, size_t{2}}) {
      SCOPED_TRACE(testing::Message() << devices << " device(s)");
      const TieredServingRun run = ServeTiered(codec, budget, devices);
      EXPECT_EQ(run.snap.completed, kTierRequests);
      EXPECT_EQ(run.snap.tokens_decoded, kTierRequests * kTierSteps);
      EXPECT_EQ(run.snap.tokens_prefilled, kTierRequests * kTierSuffixTokens);
      EXPECT_GT(run.snap.tier_spills, 0u);
      EXPECT_GT(run.snap.tier_page_ins, 0u);
      ASSERT_EQ(run.outputs.size(), golden.outputs.size());
      for (size_t i = 0; i < run.outputs.size(); ++i) {
        EXPECT_EQ(run.outputs[i], golden.outputs[i]) << "request " << i;
      }
    }
  }
}

}  // namespace
}  // namespace alaya
