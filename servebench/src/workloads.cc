#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstring>
#include <filesystem>
#include <mutex>
#include <queue>

#include <unistd.h>  // getpagesize

#include "src/common/rng.h"
#include "src/llm/workloads.h"
#include "trace.h"

namespace servebench {

using namespace alaya;

namespace {

// Latency limits are fixed here, never derived at run time. They sit above
// what the seed engine reaches on a 4-core host (2x its worst tail over 30
// runs), so that SLO attainment moves on regressions, not on host noise.
// The open-loop rates sit below the knee even when the host loses a good part
// of its CPU time to neighbours.
const WorkloadConfig kWorkloads[] = {
    {
        .name = "decode_long",
        .arrivals = Arrivals::kClosed,
        .docs = 4,
        .doc_tokens = 4096,
        .import_tokens = 0,
        .corpus_seed = 11,
        .clients = 4,
        .new_tokens = 256,
        .warmup_s = 0.5,
        .probe_per_client = 10,
        .slots = 4,
        .slo = {0.100, 0.010},
    },
    {
        .name = "prefill_poisson",
        .arrivals = Arrivals::kOpen,
        .docs = 4,
        .doc_tokens = 3584,
        .import_tokens = 1024,
        .corpus_seed = 12,
        .rate = 10,
        .suffix_min = 1536,
        .suffix_max = 2560,
        .new_tokens = 16,
        .tenants = 4,
        .slots = 8,
        .step_budget = 1024,
        .chunk = 512,
        .slo = {0.100, 0.010},
    },
    {
        .name = "multiturn_tiered",
        .arrivals = Arrivals::kConversations,
        .docs = 12,
        .doc_tokens = 512,
        .import_tokens = 0,
        .corpus_seed = 13,
        .rate = 2,
        .new_tokens = 32,
        .turns = 3,
        .think_s = 0.500,
        .user_tokens = 64,
        .zipf_s = 1.0,
        .tenants = 4,
        .slots = 4,
        .step_budget = 256,
        .chunk = 64,
        .host_budget_docs = 6,
        .slo = {0.400, 0.025},
    },
};

uint64_t Mix(uint64_t a, uint64_t b = 0, uint64_t c = 0, uint64_t d = 0) {
  uint64_t h = 0x9E3779B97F4A7C15ull;
  for (uint64_t x : {a, b, c, d}) {
    h ^= x + 0x9E3779B97F4A7C15ull + (h << 6) + (h >> 2);
    h ^= h >> 30;
    h *= 0xBF58476D1CE4E5B9ull;
    h ^= h >> 27;
    h *= 0x94D049BB133111EBull;
    h ^= h >> 31;
  }
  return h;
}

const SyntheticContext& DocOf(const Fixture& fx, const RequestSpec& spec) {
  return *fx.docs[spec.doc];
}

// K/V of a token the corpus does not hold (a decoded token or a conversation
// token): a row of the same doc picked by hashing (key, position, layer), so
// it follows the corpus distribution and a re-prefill reproduces it exactly.
void SyntheticKv(const SyntheticContext& doc, uint64_t key, size_t pos,
                 uint32_t layer, float* k, float* v) {
  const ModelConfig& m = doc.model();
  const uint32_t row =
      static_cast<uint32_t>(Mix(key, pos, layer) % doc.num_tokens());
  for (uint32_t h = 0; h < m.num_kv_heads; ++h) {
    std::memcpy(k + static_cast<size_t>(h) * m.head_dim,
                doc.kv().Keys(layer, h).Vec(row), m.head_dim * sizeof(float));
    std::memcpy(v + static_cast<size_t>(h) * m.head_dim,
                doc.kv().Values(layer, h).Vec(row), m.head_dim * sizeof(float));
  }
}

std::vector<double> SortedUniform(Rng* rng, size_t n, double span) {
  std::vector<double> t(n);
  for (double& x : t) x = rng->Uniform() * span;
  std::sort(t.begin(), t.end());
  return t;
}

// Deterministic traffic: every request is a pure function of (seed, client,
// index) or (seed, conversation, turn), so the same seed gives the same inputs
// whatever the host's speed.
class Traffic {
 public:
  Traffic(const WorkloadConfig& cfg, uint64_t seed, double seconds)
      : cfg_(cfg), seed_(seed), seconds_(seconds) {}

  std::vector<RequestSpec> Initial() const {
    std::vector<RequestSpec> out;
    switch (cfg_.arrivals) {
      case Arrivals::kClosed:
        for (size_t c = 0; c < cfg_.clients; ++c) out.push_back(Closed(c, 0, 0));
        break;
      case Arrivals::kOpen: {
        Rng rng(Mix(seed_, 2));
        const size_t n = static_cast<size_t>(std::llround(cfg_.rate * seconds_));
        for (double due : SortedUniform(&rng, n, seconds_)) {
          RequestSpec s;
          s.index = out.size();
          s.key = Mix(seed_, 3, s.index);
          s.doc = rng.UniformInt(cfg_.docs);
          const size_t suffix =
              cfg_.suffix_min + rng.UniformInt(cfg_.suffix_max - cfg_.suffix_min + 1);
          s.prompt_len = std::min(cfg_.doc_tokens, cfg_.import_tokens + suffix);
          s.step_offset = rng.UniformInt(1u << 20);
          s.new_tokens = cfg_.new_tokens;
          s.tenant = rng.UniformInt(std::max<size_t>(1, cfg_.tenants));
          s.probe = true;
          s.due_s = due;
          out.push_back(s);
        }
        break;
      }
      case Arrivals::kConversations: {
        Rng rng(Mix(seed_, 4));
        const size_t n = static_cast<size_t>(std::llround(cfg_.rate * seconds_));
        std::vector<double> cdf;
        double total = 0;
        for (size_t d = 0; d < cfg_.docs; ++d) {
          total += std::pow(static_cast<double>(d + 1), -cfg_.zipf_s);
          cdf.push_back(total);
        }
        size_t conv = 0;
        for (double due : SortedUniform(&rng, n, seconds_)) {
          const double u = rng.Uniform() * total;
          const size_t doc = static_cast<size_t>(
              std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
          out.push_back(Turn(conv++, std::min(doc, cfg_.docs - 1), 0, due));
        }
        break;
      }
    }
    return out;
  }

  /// Follow-ups once `rec` finished (observed at `now_s`).
  void OnDone(const Rec& rec, double now_s, std::vector<RequestSpec>* out) const {
    const RequestSpec& s = rec.spec;
    if (cfg_.arrivals == Arrivals::kClosed) {
      const double end = cfg_.warmup_s + seconds_;
      if (now_s < end || s.index + 1 < cfg_.probe_per_client) {
        out->push_back(Closed(s.client, s.index + 1, now_s));
      }
    } else if (cfg_.arrivals == Arrivals::kConversations) {
      if (s.turn + 1 < cfg_.turns && rec.result.status.ok() && !rec.token_s.empty()) {
        out->push_back(
            Turn(s.client, s.doc, s.turn + 1, rec.token_s.back() + cfg_.think_s));
      }
    }
  }

 private:
  RequestSpec Closed(size_t client, size_t index, double due) const {
    Rng rng(Mix(seed_, 1, client, index));
    RequestSpec s;
    s.client = client;
    s.index = index;
    s.key = Mix(seed_, 5, client, index);
    // Each client opens on its own doc, so the first requests cover the corpus.
    s.doc = index == 0 ? client % cfg_.docs : rng.UniformInt(cfg_.docs);
    s.prompt_len = cfg_.import_tokens == 0 ? cfg_.doc_tokens : cfg_.import_tokens;
    s.step_offset = rng.UniformInt(1u << 20);
    // Lengths spread over [n/2, 3n/2]: clients drift apart instead of
    // finishing (and re-admitting) in the same step forever.
    s.new_tokens = cfg_.new_tokens / 2 + rng.UniformInt(cfg_.new_tokens + 1);
    s.tenant = client % std::max<size_t>(1, cfg_.tenants);
    s.probe = index < cfg_.probe_per_client;
    s.due_s = due;
    return s;
  }

  RequestSpec Turn(size_t conv, size_t doc, size_t turn, double due) const {
    RequestSpec s;
    s.client = conv;
    s.turn = turn;
    s.index = turn;
    s.key = Mix(seed_, 6, conv);
    s.doc = doc;
    s.prompt_len =
        cfg_.doc_tokens + (turn + 1) * cfg_.user_tokens + turn * cfg_.new_tokens;
    s.step_offset = Mix(s.key, turn) % (1u << 20);
    s.new_tokens = cfg_.new_tokens;
    s.tenant = conv % std::max<size_t>(1, cfg_.tenants);
    s.probe = true;
    s.store = turn + 1 < cfg_.turns;  // The last turn has no follow-up to serve.
    s.due_s = due;
    return s;
  }

  const WorkloadConfig& cfg_;
  uint64_t seed_;
  double seconds_;
};

ServingEngineOptions MakeEngineOptions(const WorkloadConfig& cfg, ThreadPool* pool) {
  ServingEngineOptions o;
  o.pool = pool;
  o.scheduler.max_concurrent_sessions = cfg.slots;
  o.scheduler.step_token_budget = cfg.step_budget;
  o.scheduler.prefill_chunk_tokens = cfg.chunk;
  o.result_retention = 0;
  return o;
}

/// Wakes the client thread when a request streamed its last token.
struct Wake {
  std::mutex mu;
  std::condition_variable cv;
  uint64_t seq = 0;

  void Notify() {
    {
      std::lock_guard<std::mutex> lk(mu);
      ++seq;
    }
    cv.notify_one();
  }
};

/// Resident set size of this process, from /proc/self/statm (0 if unreadable).
double ResidentMb() {
  FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  unsigned long size = 0, resident = 0;
  const int n = std::fscanf(f, "%lu %lu", &size, &resident);
  std::fclose(f);
  return n == 2 ? static_cast<double>(resident) * static_cast<double>(getpagesize()) /
                      (1024.0 * 1024.0)
                : 0;
}

uint64_t PageInFailures(AlayaDB& db) {
  return db.tiers() != nullptr ? db.tiers()->stats().page_in_failures : 0;
}

double FleetBusySeconds(const SimEnvironment& env) {
  double s = 0;
  for (size_t d = 0; d < env.num_devices(); ++d) s += env.device(d).clock().Seconds();
  return s;
}

// Builds the engine request for `rec`. Callbacks record into `rec`, whose
// address is stable (a deque element) and which outlives the engine's use of
// it: the run collects every result before the engine is destroyed.
ServingRequest MakeServingRequest(const Fixture& fx, Rec* rec, bool trace,
                                  double t0_us, Wake* wake) {
  const RequestSpec& spec = rec->spec;
  ServingRequest r;
  r.prompt = PromptTokens(fx, spec);
  r.max_new_tokens = spec.new_tokens;
  r.record_outputs = spec.probe;
  r.store_on_finish = spec.store;
  r.tenant_id = spec.tenant;
  if (spec.store) {
    r.token_at = [rec](size_t step) {
      return ConversationToken(rec->spec.key, rec->spec.prompt_len + step);
    };
  }
  rec->token_s.reserve(spec.new_tokens);
  const Fixture* f = &fx;
  auto now_s = [t0_us]() { return (NowUs() - t0_us) * 1e-6; };
  if (!trace) {
    r.fill_step = [f, rec](size_t step, uint32_t layer, float* q, float* k, float* v) {
      FillDecode(*f, rec->spec, step, layer, q, k, v);
    };
    r.fill_prompt = [f, rec](size_t token, uint32_t layer, float* q, float* k,
                             float* v) { FillPrompt(*f, rec->spec, token, layer, q, k, v); };
  } else {
    // One request's callbacks never run concurrently (the engine joins each
    // layer's batch and each prefill wave before the next), so plain fields
    // suffice.
    r.fill_step = [f, rec, now_s](size_t step, uint32_t layer, float* q, float* k,
                                  float* v) {
      const double a = now_s();
      FillDecode(*f, rec->spec, step, layer, q, k, v);
      if (rec->first_callback_s < 0) rec->first_callback_s = a;
      rec->callbacks.push_back({CallbackSpan::kFillStep, layer, step, a, now_s()});
    };
    r.fill_prompt = [f, rec, now_s](size_t token, uint32_t layer, float* q, float* k,
                                    float* v) {
      const double a = now_s();
      FillPrompt(*f, rec->spec, token, layer, q, k, v);
      const double b = now_s();
      if (rec->first_callback_s < 0) rec->first_callback_s = a;
      // Consecutive tokens of one layer merge into one chunk span.
      if (!rec->callbacks.empty()) {
        CallbackSpan& last = rec->callbacks.back();
        if (last.kind == CallbackSpan::kFillPrompt && last.layer == layer &&
            last.index + 1 == token) {
          last.index = token;
          last.end_s = b;
          return;
        }
      }
      rec->callbacks.push_back({CallbackSpan::kFillPrompt, layer, token, a, b});
    };
  }
  r.on_token = [rec, wake, now_s](size_t step, std::span<const float> out) {
    rec->token_s.push_back(now_s());
    for (float x : out) {
      if (!std::isfinite(x)) {
        rec->finite = false;
        break;
      }
    }
    if (step + 1 == rec->spec.new_tokens) {
      rec->last_token.store(true);
      if (wake != nullptr) wake->Notify();
    }
  };
  return r;
}

}  // namespace

const WorkloadConfig* FindWorkload(const std::string& name) {
  for (const WorkloadConfig& w : kWorkloads) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

std::vector<std::string> WorkloadNames() {
  std::vector<std::string> names;
  for (const WorkloadConfig& w : kWorkloads) names.push_back(w.name);
  return names;
}

Fixture::~Fixture() {
  db.reset();
  if (!spill_dir.empty()) {
    std::error_code ec;
    std::filesystem::remove_all(spill_dir, ec);
  }
}

ModelConfig BenchModel() { return ModelConfig{2, 4, 2, 64, 2}; }

DbOptions MakeDbOptions(ThreadPool* pool, const std::string& spill_dir,
                        uint64_t host_budget) {
  DbOptions o;
  o.model = BenchModel();
  o.session.optimizer.short_context_threshold = 512;
  o.session.window = WindowConfig{32, 128};
  o.materialize_pool = pool;
  o.tier.host_budget_bytes = host_budget;
  o.tier.spill_dir = spill_dir;
  return o;
}

Result<std::unique_ptr<Fixture>> BuildFixture(const WorkloadConfig& cfg,
                                              size_t workers,
                                              const std::string& spill_dir) {
  auto fx = std::make_unique<Fixture>();
  fx->cfg = &cfg;
  fx->pool = std::make_unique<ThreadPool>(workers);
  fx->writer_pool = std::make_unique<ThreadPool>(1);
  fx->env = std::make_unique<SimEnvironment>();
  const auto suite = InfinityBenchSuite(0.04);
  const char* tasks[] = {"En.QA", "En.MC", "Code.D", "Math.F"};
  for (size_t i = 0; i < cfg.docs; ++i) {
    SyntheticContextOptions o;
    o.model = BenchModel();
    o.spec = FindTask(suite, tasks[i % 4]);
    o.spec.context_tokens = cfg.doc_tokens;
    o.spec.seed = cfg.corpus_seed * 1000003ull + i * 7919ull;
    o.pool = fx->pool.get();
    auto doc = std::make_unique<SyntheticContext>(o);
    ALAYA_RETURN_IF_ERROR(doc->Generate());
    fx->docs.push_back(std::move(doc));
  }
  uint64_t host_budget = 0;
  if (cfg.host_budget_docs > 0) {
    host_budget = static_cast<uint64_t>(cfg.host_budget_docs *
                                        static_cast<double>(cfg.doc_tokens) *
                                        static_cast<double>(BenchModel().KvBytesPerToken()));
    fx->spill_dir = spill_dir;
    std::error_code ec;
    std::filesystem::remove_all(spill_dir, ec);
    std::filesystem::create_directories(spill_dir, ec);
    if (ec) return Status::Internal("cannot create spill dir " + spill_dir);
  }
  fx->db = std::make_unique<AlayaDB>(
      MakeDbOptions(fx->writer_pool.get(), fx->spill_dir, host_budget), fx->env.get());
  const size_t n = cfg.import_tokens == 0 ? cfg.doc_tokens : cfg.import_tokens;
  for (const auto& doc : fx->docs) {
    auto kv = std::make_unique<KvCache>(BenchModel());
    ALAYA_RETURN_IF_ERROR(kv->AppendPrefixFrom(doc->kv(), n));
    std::vector<int32_t> tokens(doc->tokens().begin(),
                                doc->tokens().begin() + static_cast<long>(n));
    auto training = doc->MakeTrainingQueries(128);
    auto id = fx->db->Import(std::move(tokens), std::move(kv), training.get());
    if (!id.ok()) return id.status();
  }
  return fx;
}

int32_t ConversationToken(uint64_t key, size_t pos) {
  // The corpus generator's id range (below 2^21): vocabulary-sized ids, which
  // the context serializer's float token rows hold exactly.
  return static_cast<int32_t>(1 + Mix(key, pos, 7) % (1u << 20));
}

std::vector<int32_t> PromptTokens(const Fixture& fx, const RequestSpec& spec) {
  const auto& doc_tokens = DocOf(fx, spec).tokens();
  std::vector<int32_t> prompt;
  prompt.reserve(spec.prompt_len);
  for (size_t p = 0; p < spec.prompt_len; ++p) {
    prompt.push_back(p < doc_tokens.size() ? doc_tokens[p]
                                           : ConversationToken(spec.key, p));
  }
  return prompt;
}

void FillPrompt(const Fixture& fx, const RequestSpec& spec, size_t token,
                uint32_t layer, float* q, float* k, float* v) {
  const SyntheticContext& doc = DocOf(fx, spec);
  const ModelConfig& m = doc.model();
  if (token < doc.num_tokens()) {
    // Corpus tokens prefill with the doc's own K/V, so a prefilled session
    // sees exactly the document.
    for (uint32_t h = 0; h < m.num_kv_heads; ++h) {
      std::memcpy(k + static_cast<size_t>(h) * m.head_dim,
                  doc.kv().Keys(layer, h).Vec(static_cast<uint32_t>(token)),
                  m.head_dim * sizeof(float));
      std::memcpy(v + static_cast<size_t>(h) * m.head_dim,
                  doc.kv().Values(layer, h).Vec(static_cast<uint32_t>(token)),
                  m.head_dim * sizeof(float));
    }
  } else {
    SyntheticKv(doc, spec.key, token, layer, k, v);
  }
  // A prompt token's query is its own key (per KV group): recorded for index
  // training, cheap, and deterministic.
  for (uint32_t h = 0; h < m.num_q_heads; ++h) {
    std::memcpy(q + static_cast<size_t>(h) * m.head_dim,
                k + static_cast<size_t>(m.KvHeadForQuery(h)) * m.head_dim,
                m.head_dim * sizeof(float));
  }
}

void FillDecode(const Fixture& fx, const RequestSpec& spec, size_t step,
                uint32_t layer, float* q, float* k, float* v) {
  const SyntheticContext& doc = DocOf(fx, spec);
  doc.MakeDecodeQueryLayer(spec.step_offset + step, layer, q);
  SyntheticKv(doc, spec.key, spec.prompt_len + step, layer, k, v);
}

std::vector<RequestSpec> InitialRequests(const WorkloadConfig& cfg, uint64_t seed,
                                         double seconds) {
  return Traffic(cfg, seed, seconds).Initial();
}

uint64_t Digest(const std::vector<float>& values) {
  uint64_t h = 0xcbf29ce484222325ull;  // FNV-1a over the raw float bits.
  for (float x : values) {
    uint32_t bits = 0;
    std::memcpy(&bits, &x, sizeof(bits));
    for (int i = 0; i < 4; ++i) {
      h ^= (bits >> (8 * i)) & 0xFFu;
      h *= 0x100000001b3ull;
    }
  }
  return h;
}

TrafficRun RunTraffic(Fixture& fx, uint64_t seed, double seconds, bool trace) {
  TrafficRun run;
  const WorkloadConfig& cfg = *fx.cfg;
  const Traffic traffic(cfg, seed, seconds);
  auto engine = std::make_unique<ServingEngine>(fx.db.get(),
                                                MakeEngineOptions(cfg, fx.pool.get()));
  const double busy0 = FleetBusySeconds(*fx.env);
  const uint64_t failures0 = PageInFailures(*fx.db);

  auto later = [](const RequestSpec& a, const RequestSpec& b) { return a.due_s > b.due_s; };
  std::priority_queue<RequestSpec, std::vector<RequestSpec>, decltype(later)> pending(
      later);
  for (const RequestSpec& s : traffic.Initial()) pending.push(s);

  Wake wake;
  uint64_t seen_seq = 0;
  std::vector<Rec*> outstanding;
  std::vector<RequestSpec> follow;
  run.window_start_s = cfg.arrivals == Arrivals::kClosed ? cfg.warmup_s : 0;
  run.window_end_s = run.window_start_s + seconds;

  run.status = engine->Start();
  if (!run.status.ok()) return run;
  const double t0_us = NowUs();
  auto now_s = [t0_us]() { return (NowUs() - t0_us) * 1e-6; };

  double next_rss_s = 0;
  while (!pending.empty() || !outstanding.empty()) {
    if (now_s() >= next_rss_s) {
      run.rss_mb.push_back(ResidentMb());
      next_rss_s = now_s() + 0.05;
    }
    // Collect finished requests (and schedule their follow-ups).
    for (size_t i = 0; i < outstanding.size();) {
      Rec* r = outstanding[i];
      const RequestResult* res = r->handle.TryWait();
      if (res == nullptr) {
        ++i;
        continue;
      }
      r->done_s = now_s();
      r->result = *res;
      r->handle = RequestHandle();
      follow.clear();
      traffic.OnDone(*r, r->done_s, &follow);
      for (const RequestSpec& s : follow) pending.push(s);
      outstanding[i] = outstanding.back();
      outstanding.pop_back();
    }
    // Send everything that is due.
    while (!pending.empty() && pending.top().due_s <= now_s()) {
      Rec& rec = run.recs.emplace_back();
      rec.spec = pending.top();
      pending.pop();
      ServingRequest req = MakeServingRequest(fx, &rec, trace, t0_us, &wake);
      rec.submit_s = now_s();
      auto h = engine->Submit(std::move(req));
      if (!h.ok()) {
        rec.rejected = true;
        rec.submit_status = h.status();
        rec.done_s = rec.submit_s;
        continue;
      }
      rec.handle = h.value();
      outstanding.push_back(&rec);
    }
    if (pending.empty() && outstanding.empty()) break;
    // A request whose last token streamed publishes its result when the
    // engine retires it, moments later: poll closely until then.
    const bool awaiting = std::any_of(outstanding.begin(), outstanding.end(),
                                      [](const Rec* r) { return r->last_token.load(); });
    double wait_s = awaiting ? 50e-6 : 2e-3;
    if (!pending.empty()) wait_s = std::min(wait_s, pending.top().due_s - now_s());
    if (wait_s > 0) {
      std::unique_lock<std::mutex> lk(wake.mu);
      wake.cv.wait_for(lk, std::chrono::duration<double>(wait_s),
                       [&] { return wake.seq != seen_seq; });
      seen_seq = wake.seq;
    }
  }
  Status st = engine->Shutdown();
  run.snap = engine->snapshot();
  engine.reset();
  run.modeled_busy_s = FleetBusySeconds(*fx.env) - busy0;
  run.page_in_failures = PageInFailures(*fx.db) - failures0;
  if (!st.ok()) run.status = st;
  return run;
}

Result<std::vector<float>> RunReference(Fixture& fx, const RequestSpec& spec) {
  Rec rec;  // Declared first: the engine's callbacks point at it.
  ServingEngineOptions o = MakeEngineOptions(*fx.cfg, fx.pool.get());
  o.scheduler.max_concurrent_sessions = 1;
  ServingEngine engine(fx.db.get(), o);
  rec.spec = spec;
  rec.spec.probe = true;
  rec.spec.store = false;
  auto h = engine.Submit(MakeServingRequest(fx, &rec, false, NowUs(), nullptr));
  if (!h.ok()) return h.status();
  ALAYA_RETURN_IF_ERROR(engine.RunToCompletion());
  const RequestResult* r = h.value().Wait();
  if (r == nullptr) return Status::Internal("reference produced no result");
  if (!r->status.ok()) return r->status;
  return r->outputs;
}

}  // namespace servebench
