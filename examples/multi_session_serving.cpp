// MaaS-style serving through the live serving engine: Start() brings up the
// always-on driver, several tenants submit prompt requests to one AlayaDB
// front door and get back RequestHandles; the RequestScheduler admits them
// under a GPU memory budget at step boundaries, the ServingEngine decodes all
// admitted sessions concurrently (per-step DIPRS retrieval batched across
// sessions on the shared pool), and finished sessions materialize their
// extended contexts back into the store for future reuse (late
// materialization, §7.2). Tenant 0 streams its decoded output blocks through
// on_token; the fourth tenant's prompt extends past its stored context, so
// the engine prefills the unmatched suffix (batched UpdateBatch chunks,
// §7.1's partial prefix reuse) before it joins lockstep decode. Shutdown()
// drains gracefully.
#include <atomic>
#include <cstdio>
#include <memory>
#include <span>
#include <vector>

#include "src/common/string_util.h"
#include "src/core/alaya_db.h"
#include "src/llm/qkv_generator.h"
#include "src/server/serving_engine.h"

using namespace alaya;

int main() {
  ModelConfig model{2, 4, 2, 64, 2};
  DbOptions options;
  options.model = model;
  options.session.optimizer.short_context_threshold = 512;
  options.session.window = WindowConfig{32, 128};
  SimEnvironment env;
  AlayaDB db(options, &env);
  ThreadPool pool(4);

  // Three tenants import three different documents.
  std::vector<std::unique_ptr<SyntheticContext>> docs;
  const char* tasks[] = {"En.QA", "En.MC", "Code.D"};
  for (int i = 0; i < 3; ++i) {
    SyntheticContextOptions copts;
    copts.model = model;
    copts.spec = FindTask(InfinityBenchSuite(0.04), tasks[i]);
    // Widely-spaced per-tenant seeds: suite seeds are sequential, so a bare
    // `+= i` can collide two tasks onto one seed.
    copts.spec.seed += static_cast<uint64_t>(i) * 1000;
    copts.pool = &pool;
    auto doc = std::make_unique<SyntheticContext>(copts);
    if (!doc->Generate().ok()) return 1;
    auto kv = std::make_unique<KvCache>(model);
    if (!kv->AppendAllFrom(doc->kv()).ok()) return 1;
    auto training = doc->MakeTrainingQueries(128);
    if (!db.Import(doc->tokens(), std::move(kv), training.get()).ok()) return 1;
    std::printf("tenant %d imported %zu-token context (%s profile)\n", i,
                doc->num_tokens(), tasks[i]);
    docs.push_back(std::move(doc));
  }

  // The tenants' contexts are sharded across a two-GPU fleet (tenant i's
  // document is warm on device i % 2): placement-aware admission routes each
  // request to its warm device, and a request landing elsewhere would pay a
  // modeled cross-device window transfer.
  const std::vector<uint64_t> stored_ids = db.contexts().Ids();
  for (size_t i = 0; i < stored_ids.size(); ++i) {
    // FindShared pins the context; the borrowed Find() is test-only now that
    // the tiered store can evict concurrently with serving.
    db.contexts().FindShared(stored_ids[i])->set_resident_device(
        static_cast<int>(i % 2));
  }

  // The front door: all four tenants decode concurrently under per-device
  // budgets on the sharded fleet. Live lifecycle — Start() first, then submit
  // into the running engine; requests are admitted at step boundaries as they
  // arrive.
  ServingEngineOptions eopts;
  eopts.scheduler.max_concurrent_sessions = 4;
  eopts.scheduler.gpu_budget_bytes = 64ull << 20;  // Per device.
  eopts.scheduler.devices = 2;
  eopts.pool = &pool;
  ServingEngine engine(&db, eopts);
  if (!engine.Start().ok()) return 1;

  constexpr size_t kPrefillSuffix = 24;
  std::atomic<size_t> streamed{0};
  std::vector<RequestHandle> handles;
  std::vector<uint64_t> ids;
  for (int i = 0; i < 4; ++i) {
    // Tenant 3 asks about tenant 0's document *plus* a fresh follow-up: only
    // the stored prefix is reused, the suffix goes through batched prefill.
    const SyntheticContext* doc = docs[i == 3 ? 0 : i].get();
    ServingRequest req;
    req.prompt = doc->tokens();
    if (i == 3) {
      for (size_t t = 0; t < kPrefillSuffix; ++t) {
        req.prompt.push_back(static_cast<int32_t>(5'000'000 + t));
      }
      req.fill_prompt = [model](size_t token, uint32_t layer, float* q, float* k,
                                float* v) {
        Rng rng(0xF111 ^ (token * 2654435761ull + layer));
        rng.FillGaussian(q, static_cast<size_t>(model.num_q_heads) * model.head_dim);
        rng.FillGaussian(k, static_cast<size_t>(model.num_kv_heads) * model.head_dim);
        rng.FillGaussian(v, static_cast<size_t>(model.num_kv_heads) * model.head_dim);
      };
    }
    req.max_new_tokens = 8;
    req.fill_step = [doc, model](size_t step, uint32_t layer, float* q, float* k,
                                 float* v) {
      doc->MakeDecodeQueryLayer(step, layer, q);
      Rng rng(0xA11CE ^ (step * 2654435761ull + layer));
      rng.FillGaussian(k, static_cast<size_t>(model.num_kv_heads) * model.head_dim);
      rng.FillGaussian(v, static_cast<size_t>(model.num_kv_heads) * model.head_dim);
    };
    // The third tenant saves its extended context for future prefix reuse.
    req.store_on_finish = (i == 2);
    // The first tenant streams: each decoded output block is delivered from
    // the step loop as it completes, instead of waiting for the full result.
    if (i == 0) {
      req.on_token = [&streamed](size_t, std::span<const float>) {
        streamed.fetch_add(1);
      };
    }
    auto id = engine.Submit(std::move(req));
    if (!id.ok()) {
      std::printf("submit failed: %s\n", id.status().ToString().c_str());
      return 1;
    }
    handles.push_back(id.value());
    ids.push_back(id.value().id());
  }

  // Live API: the engine is already running (Start above), so every request
  // was admitted at a step boundary as it arrived; Wait() blocks per handle.
  for (const RequestHandle& h : handles) {
    const RequestResult* r = h.Wait();
    if (r == nullptr) return 1;
  }
  std::printf("tenant 0 streamed %zu token blocks (first at ttft %.0f us)\n",
              streamed.load(),
              engine.result(ids[0])->ttft_seconds * 1e6);
  if (Status s = engine.Shutdown(); !s.ok()) {
    std::printf("serving failed: %s\n", s.ToString().c_str());
    return 1;
  }

  for (int i = 0; i < 4; ++i) {
    const RequestResult* r = engine.result(ids[i]);
    if (r == nullptr || !r->status.ok()) {
      std::printf("tenant %d failed\n", i);
      return 1;
    }
    std::printf("tenant %d: reused %zu-token prefix of context %llu, prefilled "
                "%zu, decoded %zu tokens, mean retrieved/step %.1f%s\n",
                i, r->reused_prefix,
                static_cast<unsigned long long>(r->reused_context_id),
                r->prefilled_tokens, r->steps_completed,
                static_cast<double>(r->stats.retrieved_tokens) /
                    static_cast<double>(r->steps_completed),
                r->stored_context_id != 0 ? " (context stored)" : "");
  }
  if (engine.result(ids[3])->prefilled_tokens != kPrefillSuffix) {
    std::printf("FAIL: tenant 3 should have prefilled %zu tokens\n", kPrefillSuffix);
    return 1;
  }
  if (streamed.load() != engine.result(ids[0])->steps_completed) {
    std::printf("FAIL: tenant 0 streamed %zu blocks, decoded %zu\n",
                streamed.load(), engine.result(ids[0])->steps_completed);
    return 1;
  }

  const ServingSnapshot snap = engine.snapshot();
  std::printf("aggregate: %zu prefilled + %zu decoded tokens at %.1f tok/s, peak "
              "%zu concurrent sessions, peak GPU %s | host (offloaded KV + "
              "indices): %s\n",
              snap.tokens_prefilled, snap.tokens_decoded, snap.tokens_per_second,
              snap.peak_concurrent_sessions, HumanBytes(snap.peak_gpu_bytes).c_str(),
              HumanBytes(env.host_memory().current()).c_str());
  std::printf("contexts in store after serving: %zu\n", db.contexts().size());

  // Per-device residency + placement (the sharded-serving observability).
  size_t devices_used = 0;
  for (const DeviceServingStats& ds : snap.devices) {
    if (ds.placements > 0) ++devices_used;
    std::printf("device %d: %zu placements (%zu cross-device reuses, %s "
                "transferred), %zu tokens, peak %s, modeled busy %.4fs\n",
                ds.device, ds.placements, ds.cross_device_reuses,
                HumanBytes(ds.transfer_bytes).c_str(),
                ds.tokens_decoded + ds.tokens_prefilled,
                HumanBytes(ds.peak_gpu_bytes).c_str(), ds.modeled_busy_seconds);
  }
  if (devices_used < 2) {
    std::printf("FAIL: expected the sharded store to spread tenants over both "
                "devices, got %zu\n", devices_used);
    return 1;
  }
  std::printf("multi_session_serving OK\n");
  return 0;
}
