// The benchmark's workloads: a fixed document corpus per workload, traffic
// drawn from the seed, and the single client thread that drives it against a
// live ServingEngine + AlayaDB. The program sees only the generated inputs,
// delivered through the request callbacks (fill_prompt, fill_step, on_token),
// which is also where the benchmark takes its timestamps.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "metrics.h"
#include "src/core/alaya_db.h"
#include "src/llm/qkv_generator.h"
#include "src/server/serving_engine.h"

namespace servebench {

enum class Arrivals {
  kClosed,         ///< Each client sends its next request after its reply.
  kOpen,           ///< Requests arrive on a seeded Poisson schedule.
  kConversations,  ///< Conversations arrive open-loop; turns follow replies.
};

struct WorkloadConfig {
  std::string name;
  Arrivals arrivals = Arrivals::kOpen;
  // Corpus: fixed per workload; the seed draws only the traffic.
  size_t docs = 4;
  size_t doc_tokens = 2048;
  size_t import_tokens = 0;  ///< Imported prefix of each doc (0 = the whole doc).
  uint64_t corpus_seed = 1;
  // Traffic.
  size_t clients = 4;   ///< Closed loop: concurrent clients.
  double rate = 0;      ///< Open: requests/s. Conversations: conversations/s.
  size_t suffix_min = 0;  ///< Open: uncovered prompt tokens, uniform in [min, max].
  size_t suffix_max = 0;
  size_t new_tokens = 16;
  size_t turns = 1;
  double think_s = 0;
  size_t user_tokens = 0;  ///< Conversations: new prompt tokens per turn.
  double zipf_s = 0;       ///< Doc popularity skew (0 = uniform).
  size_t tenants = 1;
  double warmup_s = 0;          ///< Closed loop: unmeasured lead-in.
  size_t probe_per_client = 0;  ///< Closed loop: fixed probe requests per client.
  // Engine.
  size_t slots = 4;
  size_t step_budget = 0;
  size_t chunk = 32;
  double host_budget_docs = 0;  ///< Tier host budget in docs' KV bytes (0 = off).
  SloLimits slo;
};

const WorkloadConfig* FindWorkload(const std::string& name);
std::vector<std::string> WorkloadNames();

/// Deterministic inputs of one request.
struct RequestSpec {
  uint64_t key = 0;  ///< K/V stream identity; one per conversation.
  size_t doc = 0;
  size_t prompt_len = 0;
  size_t step_offset = 0;  ///< Decode queries start at this query index.
  size_t new_tokens = 0;
  uint64_t tenant = 0;
  size_t client = 0;  ///< Closed-loop client or conversation.
  size_t turn = 0;
  size_t index = 0;    ///< Sequence number within its client.
  bool probe = false;  ///< In the fixed probe set: outputs recorded.
  bool store = false;
  double due_s = 0;    ///< Seconds after the run's start.
};

/// Everything a run serves from: pool, simulated devices, corpus and DB.
struct Fixture {
  const WorkloadConfig* cfg = nullptr;
  std::unique_ptr<alaya::ThreadPool> pool;  ///< The engine's batches and prefill waves.
  /// Background materialization and tier prefetches. A worker of their own:
  /// with one engine worker, a shared pool would queue every prefill chunk
  /// behind whole index builds, and TTFT would flip between two modes with
  /// the build backlog rather than measure the engine.
  std::unique_ptr<alaya::ThreadPool> writer_pool;
  std::unique_ptr<alaya::SimEnvironment> env;
  std::vector<std::unique_ptr<alaya::SyntheticContext>> docs;
  std::unique_ptr<alaya::AlayaDB> db;  ///< Declared last: destroyed first.
  std::string spill_dir;

  ~Fixture();
};

alaya::ModelConfig BenchModel();
alaya::DbOptions MakeDbOptions(alaya::ThreadPool* pool, const std::string& spill_dir,
                               uint64_t host_budget);

/// Generates the corpus and imports it (the timed set-up). `spill_dir`
/// backs the tier store when the workload sets a host budget.
alaya::Result<std::unique_ptr<Fixture>> BuildFixture(const WorkloadConfig& cfg,
                                                     size_t workers,
                                                     const std::string& spill_dir);

// Pure input generators (shared by the engine run, references and harness).
std::vector<int32_t> PromptTokens(const Fixture& fx, const RequestSpec& spec);
void FillPrompt(const Fixture& fx, const RequestSpec& spec, size_t token,
                uint32_t layer, float* q, float* k, float* v);
void FillDecode(const Fixture& fx, const RequestSpec& spec, size_t step,
                uint32_t layer, float* q, float* k, float* v);
int32_t ConversationToken(uint64_t key, size_t pos);

/// Requests due at the start of a run (closed: each client's first; open:
/// the whole schedule; conversations: every first turn).
std::vector<RequestSpec> InitialRequests(const WorkloadConfig& cfg, uint64_t seed,
                                         double seconds);

/// One callback-recorded span (trace mode).
struct CallbackSpan {
  enum Kind : uint8_t { kFillStep, kFillPrompt } kind = kFillStep;
  uint32_t layer = 0;
  size_t index = 0;  ///< Step (fill_step) or last token filled (fill_prompt).
  double start_s = 0;
  double end_s = 0;
};

/// One sent request and everything recorded about it.
struct Rec {
  RequestSpec spec;
  double submit_s = 0;
  alaya::RequestHandle handle;
  bool rejected = false;
  alaya::Status submit_status;
  // Written by the engine's callbacks; read after the result is published.
  std::vector<double> token_s;
  bool finite = true;
  double first_callback_s = -1;
  std::vector<CallbackSpan> callbacks;
  std::atomic<bool> last_token{false};  ///< The last token has streamed.
  // Client side: the result is copied out so no handle outlives the engine.
  alaya::RequestResult result;
  double done_s = 0;
};

struct TrafficRun {
  std::deque<Rec> recs;
  alaya::ServingSnapshot snap;
  double window_start_s = 0;
  double window_end_s = 0;
  double modeled_busy_s = 0;  ///< Fleet modeled seconds charged during the run.
  std::vector<double> rss_mb;  ///< Resident memory sampled every 50 ms while serving.
  /// Tier page-ins that failed (CreateSession then cold-starts silently).
  uint64_t page_in_failures = 0;
  alaya::Status status;
};

/// Drives one workload run against a fresh engine over `fx`: one client
/// thread, `seconds` of measured traffic, then a drain. `trace` records
/// callback spans.
TrafficRun RunTraffic(Fixture& fx, uint64_t seed, double seconds, bool trace);

/// The single-session reference: runs `spec` alone through a fresh engine on
/// the same DB and returns its recorded outputs.
alaya::Result<std::vector<float>> RunReference(Fixture& fx, const RequestSpec& spec);

uint64_t Digest(const std::vector<float>& values);

}  // namespace servebench
