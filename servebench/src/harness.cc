#include "harness.h"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <map>

#include "trace.h"

namespace servebench {

using namespace alaya;

namespace {

double MedianDurationMs(const std::vector<Span>& spans, const std::string& name) {
  std::vector<double> d;
  for (const Span& s : spans) {
    if (s.name == name) d.push_back((s.end_us - s.start_us) * 1e-3);
  }
  return Percentile(d, 0.5);
}

uint64_t PageIns(AlayaDB& db) {
  return db.tiers() != nullptr ? db.tiers()->stats().page_ins : 0;
}

}  // namespace

HarnessResult RunHarness(const Fixture& corpus, uint64_t seed, double seconds,
                         const std::string& spill_dir, size_t decode_steps) {
  HarnessResult out;
  const WorkloadConfig& cfg = *corpus.cfg;
  const ModelConfig m = BenchModel();
  const size_t d = m.head_dim;
  const size_t qdim = static_cast<size_t>(m.num_q_heads) * d;
  const size_t kvdim = static_cast<size_t>(m.num_kv_heads) * d;
  const size_t imported = cfg.import_tokens == 0 ? cfg.doc_tokens : cfg.import_tokens;
  SpanLog log;

  std::error_code ec;
  std::filesystem::remove_all(spill_dir, ec);
  std::filesystem::create_directories(spill_dir, ec);
  if (ec) {
    out.status = Status::Internal("cannot create spill dir " + spill_dir);
    return out;
  }
  SimEnvironment env;
  const uint64_t budget = static_cast<uint64_t>(
      1.5 * static_cast<double>(imported) * static_cast<double>(m.KvBytesPerToken()));
  auto fail = [&](const Status& s) {
    out.status = s;
    out.spans = log.spans();
    return out;
  };
  {
    AlayaDB db(MakeDbOptions(corpus.writer_pool.get(), spill_dir, budget), &env);
    for (const auto& doc : corpus.docs) {
      auto kv = std::make_unique<KvCache>(m);
      if (Status s = kv->AppendPrefixFrom(doc->kv(), imported); !s.ok()) return fail(s);
      std::vector<int32_t> tokens(doc->tokens().begin(),
                                  doc->tokens().begin() + static_cast<long>(imported));
      auto training = doc->MakeTrainingQueries(128);
      Result<uint64_t> id = Status::Internal("unset");
      {
        auto span = log.Open("AlayaDB::Import");
        id = db.Import(std::move(tokens), std::move(kv), training.get());
      }
      if (!id.ok()) return fail(id.status());
    }

    // The first request of each doc, as the workload's traffic draws them.
    std::vector<RequestSpec> replay;
    std::vector<bool> seen(cfg.docs, false);
    for (const RequestSpec& s : InitialRequests(cfg, seed, seconds)) {
      if (seen[s.doc] || replay.size() >= 4) continue;
      seen[s.doc] = true;
      replay.push_back(s);
    }

    std::vector<float> q, k, v, outv(qdim);
    std::vector<AttentionCallStats> head_stats(m.num_q_heads);
    for (const RequestSpec& spec : replay) {
      const std::vector<int32_t> prompt = PromptTokens(corpus, spec);
      // First creation pages the context in when the budget spilled it; the
      // second then finds it resident.
      const uint64_t before = PageIns(db);
      Result<AlayaDB::SessionCreation> first = Status::Internal("unset");
      {
        auto span = log.Open("AlayaDB::CreateSession");
        first = db.CreateSession(prompt);
      }
      if (!first.ok()) return fail(first.status());
      if (PageIns(db) > before) {
        log.RenameLast("tier.page_in(CreateSession)");
        ++out.page_ins;
      }
      Result<AlayaDB::SessionCreation> created = Status::Internal("unset");
      {
        auto span = log.Open("AlayaDB::CreateSession");
        created = db.CreateSession(prompt);
      }
      if (!created.ok()) return fail(created.status());
      first.value().session.reset();
      Session* session = created.value().session.get();

      // Prefill the uncovered suffix in the engine's chunk size.
      const size_t reused = created.value().reused_prefix;
      for (size_t pos = reused; pos < spec.prompt_len; pos += cfg.chunk) {
        const size_t c = std::min(cfg.chunk, spec.prompt_len - pos);
        q.resize(c * qdim);
        k.resize(c * kvdim);
        v.resize(c * kvdim);
        auto chunk = log.Open("prefill_chunk");
        for (uint32_t layer = 0; layer < m.num_layers; ++layer) {
          {
            auto span = log.Open("fill_prompt");
            for (size_t t = 0; t < c; ++t) {
              FillPrompt(corpus, spec, pos + t, layer, q.data() + t * qdim,
                         k.data() + t * kvdim, v.data() + t * kvdim);
            }
          }
          Status s;
          {
            auto span = log.Open("Session::UpdateBatch");
            s = session->UpdateBatch(layer, c, q.data(), k.data(), v.data());
          }
          if (!s.ok()) return fail(s);
        }
      }

      // Decode steps: every call of the step sits in its own span.
      q.resize(qdim);
      k.resize(kvdim);
      v.resize(kvdim);
      const size_t steps = std::min(decode_steps, spec.new_tokens);
      for (size_t step = 0; step < steps; ++step) {
        auto step_span = log.Open("decode_step");
        for (uint32_t layer = 0; layer < m.num_layers; ++layer) {
          {
            auto span = log.Open("fill_step");
            FillDecode(corpus, spec, step, layer, q.data(), k.data(), v.data());
          }
          Status s;
          {
            auto span = log.Open("Session::Update");
            s = session->Update(layer, q.data(), k.data(), v.data());
          }
          if (!s.ok()) return fail(s);
          for (uint32_t h = 0; h < m.num_q_heads; ++h) {
            head_stats[h] = AttentionCallStats{};
            auto span = log.Open("Session::AttendHead");
            s = session->AttendHead(layer, h, q.data() + h * d, outv.data() + h * d,
                                    &head_stats[h]);
            if (!s.ok()) break;
          }
          if (!s.ok()) return fail(s);
          {
            auto span = log.Open("Session::ChargeModeledGpuSeconds");
            double modeled = 0;
            for (const AttentionCallStats& hs : head_stats) modeled += hs.modeled_gpu_seconds;
            session->ChargeModeledGpuSeconds(modeled);
          }
        }
        for (float x : outv) {
          if (!std::isfinite(x)) return fail(Status::Internal("non-finite harness output"));
        }
      }

      // Late materialization of what the session appended.
      std::vector<int32_t> appended(prompt.begin() + static_cast<long>(reused),
                                    prompt.end());
      for (size_t step = 0; step < steps; ++step) {
        appended.push_back(ConversationToken(spec.key, spec.prompt_len + step));
      }
      Status drained;
      {
        auto span = log.Open("materialize");
        Result<uint64_t> id = Status::Internal("unset");
        {
          auto s = log.Open("AlayaDB::StoreAsync");
          id = db.StoreAsync(session, std::move(appended), created.value().context_ref);
        }
        if (!id.ok()) return fail(id.status());
        auto s = log.Open("AlayaDB::Drain");
        drained = db.Drain();
      }
      if (!drained.ok()) return fail(drained);
    }
  }
  std::filesystem::remove_all(spill_dir, ec);

  out.spans = log.spans();
  double covered = 0, total = 0;
  out.min_step_coverage = 1;
  for (const Span& s : out.spans) {
    if (s.name != "decode_step") continue;
    const double c = CoveredByChildren(s, out.spans);
    const double dur = s.end_us - s.start_us;
    covered += c;
    total += dur;
    if (dur > 0) out.min_step_coverage = std::min(out.min_step_coverage, c / dur);
    ++out.steps;
  }
  out.step_coverage = total > 0 ? covered / total : 0;
  out.import_s = MedianDurationMs(out.spans, "AlayaDB::Import") * 1e-3;
  out.create_session_ms = MedianDurationMs(out.spans, "AlayaDB::CreateSession");
  out.page_in_ms = MedianDurationMs(out.spans, "tier.page_in(CreateSession)");
  out.materialize_ms = MedianDurationMs(out.spans, "materialize");
  return out;
}

}  // namespace servebench
