// servebench: the repository's serving benchmark.
//
//   servebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//              [--out-dir <dir>]
//
// Runs one workload (workloads.cc) against a live ServingEngine + AlayaDB and
// checks its outputs. With --trace 0 it prints every end-to-end metric; with
// --trace 1 it runs the workload once untraced and once with callback spans,
// replays the inputs through the layer harness (harness.cc), writes both span
// sets as Chrome trace-event JSON under --out-dir and prints the per-layer
// metrics. The last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// The exit code is non-zero when any output check fails.
#include <sys/resource.h>
#include <unistd.h>  // getpid

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "harness.h"
#include "metrics.h"
#include "src/llm/quality.h"
#include "trace.h"
#include "workloads.h"

using namespace servebench;
using alaya::RequestResult;
using alaya::Status;

namespace {

constexpr size_t kSetupRepeats = 3;
// One engine pool worker: the driver runs each step's batch inline and the
// worker takes the prefill waves. On a shared 4-vCPU VM, more workers made the
// per-layer barrier wait on whichever vCPU the host had descheduled: decode
// throughput swung 2x from run to run, against a few percent with one worker.
// Engine worker + writer worker (Fixture::writer_pool) + driver + client fill
// the 4 cores and no more.
constexpr size_t kPoolWorkers = 1;
constexpr size_t kHarnessDecodeSteps = 64;
constexpr double kMinStepCoverage = 0.9;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = ".bench_build/servebench-out";
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v, nullptr, 10);
    } else if (k == "--seconds") {
      a->seconds = std::atof(v);
    } else if (k == "--trace") {
      a->trace = std::atoi(v) != 0;
    } else if (k == "--out-dir") {
      a->out_dir = v;
    } else {
      return false;
    }
  }
  return (argc % 2) == 1 && !a->workload.empty() && a->seconds > 0;
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux.
}

/// One named metric as printed.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

std::string ResultLine(bool correct, size_t attempted, size_t failed,
                       const std::vector<Metric>& metrics) {
  std::string s = "{\"correct\": ";
  s += correct ? "true" : "false";
  s += ", \"attempted\": " + std::to_string(attempted);
  s += ", \"failed\": " + std::to_string(failed);
  s += ", \"metrics\": {";
  char buf[96];
  for (size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0;
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    s += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " + buf +
         ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  s += "}}";
  return s;
}

// ---------------------------------------------------------------------------
// Output checks

/// Reference digests: doc -> (request identity, digest of its outputs).
struct Reference {
  size_t client = 0;
  size_t index = 0;
  uint64_t digest = 0;
};

/// The request per doc whose outputs the run must reproduce exactly: one
/// single-session run of each, on the DB the workload then serves from.
Status ComputeReferences(Fixture& fx, uint64_t seed, double seconds,
                         std::map<size_t, Reference>* refs) {
  const WorkloadConfig& cfg = *fx.cfg;
  if (cfg.arrivals == Arrivals::kConversations) return Status();
  for (const RequestSpec& s : InitialRequests(cfg, seed, seconds)) {
    if (refs->count(s.doc) != 0) continue;
    auto out = RunReference(fx, s);
    if (!out.ok()) return out.status();
    (*refs)[s.doc] = Reference{s.client, s.index, Digest(out.value())};
  }
  return Status();
}

std::string Phase(const WorkloadConfig& cfg, const TrafficRun& run, const Rec& r) {
  switch (cfg.arrivals) {
    case Arrivals::kClosed:
      if (r.submit_s < run.window_start_s) return "warmup";
      return r.submit_s < run.window_end_s ? "measure" : "drain";
    case Arrivals::kOpen:
      return "measure";
    case Arrivals::kConversations:
      return "turn" + std::to_string(r.spec.turn + 1);
  }
  return "measure";
}

bool RecOk(const Rec& r) {
  return !r.rejected && r.result.status.ok() &&
         r.result.steps_completed == r.spec.new_tokens &&
         r.token_s.size() == r.spec.new_tokens && r.finite;
}

struct CheckSummary {
  size_t attempted = 0;
  size_t failed = 0;
  size_t digest_checked = 0;
  size_t digest_mismatched = 0;
  bool correct = true;
};

CheckSummary CheckRun(const WorkloadConfig& cfg, const TrafficRun& run,
                      const std::map<size_t, Reference>& refs, bool print) {
  CheckSummary c;
  struct Counts {
    size_t sent = 0, ok = 0, failed = 0;
    std::vector<double> ttft_ms;
    double reused = 0, prompt = 0;
  };
  std::map<std::string, Counts> phases;
  size_t reported = 0;
  for (const Rec& r : run.recs) {
    ++c.attempted;
    Counts& p = phases[Phase(cfg, run, r)];
    ++p.sent;
    p.reused += static_cast<double>(r.result.reused_prefix);
    p.prompt += static_cast<double>(r.spec.prompt_len);
    if (RecOk(r)) {
      ++p.ok;
      p.ttft_ms.push_back((r.token_s.front() - r.spec.due_s) * 1e3);
    } else {
      ++p.failed;
      ++c.failed;
      if (reported++ < 5) {
        std::fprintf(stderr,
                     "FAIL request client=%zu index=%zu: %s, %zu/%zu steps, %zu "
                     "tokens streamed, finite=%d\n",
                     r.spec.client, r.spec.index,
                     r.rejected ? r.submit_status.ToString().c_str()
                                : r.result.status.ToString().c_str(),
                     r.result.steps_completed, r.spec.new_tokens, r.token_s.size(),
                     r.finite ? 1 : 0);
      }
    }
    const auto ref = refs.find(r.spec.doc);
    if (ref != refs.end() && ref->second.client == r.spec.client &&
        ref->second.index == r.spec.index && r.spec.turn == 0) {
      ++c.digest_checked;
      if (Digest(r.result.outputs) != ref->second.digest) {
        ++c.digest_mismatched;
        std::fprintf(stderr, "FAIL digest of doc %zu's reference request differs\n",
                     r.spec.doc);
      }
    }
  }
  if (run.snap.materializations_failed > 0) {
    std::fprintf(stderr, "FAIL %zu background materializations failed\n",
                 run.snap.materializations_failed);
    c.failed += run.snap.materializations_failed;
  }
  if (run.page_in_failures > 0) {
    std::fprintf(stderr, "FAIL %llu tier page-ins failed\n",
                 static_cast<unsigned long long>(run.page_in_failures));
    c.failed += run.page_in_failures;
  }
  if (c.digest_checked != refs.size()) {
    std::fprintf(stderr, "FAIL %zu of %zu reference requests were served\n",
                 c.digest_checked, refs.size());
    c.correct = false;
  }
  c.correct = c.correct && run.status.ok() && c.failed == 0 && c.digest_mismatched == 0;
  if (!run.status.ok()) {
    std::fprintf(stderr, "FAIL engine: %s\n", run.status.ToString().c_str());
  }
  if (print) {
    std::printf("%-10s %8s %10s %8s %12s %10s\n", "phase", "sent", "succeeded",
                "failed", "ttft_p50_ms", "reuse");
    for (const auto& [name, p] : phases) {
      std::printf("%-10s %8zu %10zu %8zu %12.3f %10.4f\n", name.c_str(), p.sent, p.ok,
                  p.failed, Percentile(p.ttft_ms, 0.5),
                  p.prompt > 0 ? p.reused / p.prompt : 0);
    }
    std::printf("reference digests: %zu checked, %zu mismatched\n", c.digest_checked,
                c.digest_mismatched);
  }
  return c;
}

// ---------------------------------------------------------------------------
// End-to-end metrics

struct EndToEnd {
  Tail ttft, itl;
  double ttft_p50_ms = 0, itl_p50_ms = 0;
  SloScore slo;
  double goodput_tok_s = 0;
  double decode_tok_s = 0;
  double modeled_ms_per_tok = 0;
  double fidelity = 0;
  std::vector<double> gen_lag_ms;
};

double MeanFidelity(const Fixture& fx, const TrafficRun& run) {
  const alaya::ModelConfig m = BenchModel();
  const size_t d = m.head_dim;
  const uint32_t last = m.num_layers - 1;
  std::vector<float> oracle(d);
  double sum = 0;
  size_t n = 0;
  for (const Rec& r : run.recs) {
    if (!r.spec.probe) continue;
    const std::vector<float>& out = r.result.outputs;
    const size_t steps = out.size() / (m.num_q_heads * d);
    for (size_t s = 0; s < steps; ++s) {
      for (uint32_t h = 0; h < m.num_q_heads; ++h) {
        fx.docs[r.spec.doc]->OracleOutput(r.spec.step_offset + s, last, h, oracle.data());
        sum += alaya::CosineFidelity(out.data() + (s * m.num_q_heads + h) * d,
                                     oracle.data(), d);
        ++n;
      }
    }
  }
  return n == 0 ? 0 : sum / static_cast<double>(n);
}

EndToEnd ComputeEndToEnd(const Fixture& fx, const TrafficRun& run, double seconds) {
  const WorkloadConfig& cfg = *fx.cfg;
  const bool closed = cfg.arrivals == Arrivals::kClosed;
  EndToEnd e;
  std::vector<double> ttft, itl;
  std::vector<RequestOutcome> outcomes;
  std::vector<double> bins(static_cast<size_t>(std::max(1.0, std::floor(seconds))), 0);
  const double bin_s = seconds / static_cast<double>(bins.size());
  double window_tokens = 0, last_token = 0, probe_modeled = 0, probe_steps = 0;
  for (const Rec& r : run.recs) {
    e.gen_lag_ms.push_back((r.submit_s - r.spec.due_s) * 1e3);
    const bool ok = RecOk(r);
    if (!r.token_s.empty()) last_token = std::max(last_token, r.token_s.back());
    if (r.spec.probe && ok) {
      probe_modeled += r.result.stats.modeled_gpu_seconds;
      probe_steps += static_cast<double>(r.result.steps_completed);
    }
    double in_window = 0;
    for (size_t i = 0; i < r.token_s.size(); ++i) {
      const double t = r.token_s[i];
      const bool counted =
          !closed || (t >= run.window_start_s && t < run.window_end_s);
      if (!counted) continue;
      in_window += 1;
      if (closed) {
        const size_t b = static_cast<size_t>((t - run.window_start_s) /
                                             (run.window_end_s - run.window_start_s) *
                                             static_cast<double>(bins.size()));
        bins[std::min(b, bins.size() - 1)] += 1;
      }
      if (i > 0) {
        itl.push_back((t - r.token_s[i - 1]) * 1e3);
      }
    }
    window_tokens += in_window;
    RequestOutcome o;
    o.ok = ok;
    o.tokens = r.token_s.size();
    o.window_tokens = in_window;
    if (!r.token_s.empty()) {
      o.ttft_s = r.token_s.front() - r.spec.due_s;
      // Closed loop: the latency sample is the fixed probe set, so its size
      // (and the tail percentile it supports) does not drift with speed.
      if (ok && (!closed || r.spec.probe)) ttft.push_back(o.ttft_s * 1e3);
    }
    if (r.token_s.size() > 1) {
      o.mean_gap_s = (r.token_s.back() - r.token_s.front()) /
                     static_cast<double>(r.token_s.size() - 1);
    }
    outcomes.push_back(o);
  }
  e.ttft = TailOf(ttft);
  e.itl = TailOf(itl);
  e.ttft_p50_ms = Percentile(ttft, 0.5);
  e.itl_p50_ms = Percentile(itl, 0.5);
  e.slo = ScoreSlo(outcomes, cfg.slo);
  e.goodput_tok_s = e.slo.good_tokens / seconds;
  // Closed loop: the median over one-second bins of the window, so a burst
  // of lost host CPU moves one bin, not the figure. Open loop: the offered
  // load decoded, over the time it took.
  e.decode_tok_s = closed ? Percentile(bins, 0.5) / bin_s
                          : window_tokens / std::max(last_token, 1e-9);
  e.modeled_ms_per_tok = probe_steps > 0 ? probe_modeled * 1e3 / probe_steps : 0;
  e.fidelity = MeanFidelity(fx, run);
  return e;
}

void PrintTail(const char* name, const Tail& t) {
  std::printf("  %-16s %12.4f ms  (p%g of %zu samples)\n", name, t.value,
              t.percentile * 100, t.samples);
}

void PrintEndToEnd(const char* label, const EndToEnd& e) {
  std::printf("%s:\n", label);
  std::printf("  %-16s %12.4f ms  (p50 of %zu samples)\n", "ttft_p50_ms", e.ttft_p50_ms,
              e.ttft.samples);
  PrintTail("ttft_tail_ms", e.ttft);
  std::printf("  %-16s %12.4f ms  (p50 of %zu samples)\n", "itl_p50_ms", e.itl_p50_ms,
              e.itl.samples);
  PrintTail("itl_tail_ms", e.itl);
  std::printf("  %-16s %12.2f tok/s\n", "goodput_tok_s", e.goodput_tok_s);
  std::printf("  %-16s %12.4f       (%zu of %zu requests met both limits)\n",
              "slo_attain", e.slo.attain, e.slo.met, e.slo.sent);
  std::printf("  %-16s %12.2f tok/s\n", "decode_tok_s", e.decode_tok_s);
  std::printf("  %-16s %12.6f ms\n", "modeled_ms_per_tok", e.modeled_ms_per_tok);
  std::printf("  %-16s %12.6f\n", "fidelity", e.fidelity);
  std::printf("  %-16s p50 %.3f ms, p99 %.3f ms, max %.3f ms\n", "gen_lag_ms",
              Percentile(e.gen_lag_ms, 0.5), Percentile(e.gen_lag_ms, 0.99),
              Percentile(e.gen_lag_ms, 1.0));
}

// ---------------------------------------------------------------------------
// Per-layer metrics (traced run)

/// Engine steps seen from outside: the layer-0 fill_step calls of a step all
/// precede its on_token calls, and the next step's fill_steps follow them.
struct StepTrace {
  std::vector<double> step_ms, boundary_gap_ms, batch;
};

StepTrace DetectSteps(const TrafficRun& run) {
  std::vector<std::pair<double, int>> ev;  // (time, 0 = fill_step L0, 1 = token)
  for (const Rec& r : run.recs) {
    for (const CallbackSpan& c : r.callbacks) {
      if (c.kind == CallbackSpan::kFillStep && c.layer == 0) ev.emplace_back(c.start_s, 0);
    }
    for (double t : r.token_s) ev.emplace_back(t, 1);
  }
  std::sort(ev.begin(), ev.end());
  StepTrace st;
  double step_start = -1, last_token = -1;
  size_t tokens = 0;
  for (const auto& [t, kind] : ev) {
    if (kind == 0) {
      if (tokens > 0) {  // A new step begins: close the previous one.
        st.step_ms.push_back((last_token - step_start) * 1e3);
        st.boundary_gap_ms.push_back((t - last_token) * 1e3);
        st.batch.push_back(static_cast<double>(tokens));
        tokens = 0;
        step_start = -1;
      }
      if (step_start < 0) step_start = t;
    } else if (step_start >= 0) {
      ++tokens;
      last_token = t;
    }
  }
  if (tokens > 0) {
    st.step_ms.push_back((last_token - step_start) * 1e3);
    st.batch.push_back(static_cast<double>(tokens));
  }
  return st;
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double s = 0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

std::vector<Metric> LayerMetrics(const TrafficRun& run,
                                 const HarnessResult& h, const EndToEnd& traced,
                                 const EndToEnd& untraced, size_t workers) {
  const alaya::ModelConfig m = BenchModel();
  const double heads_per_step = static_cast<double>(m.num_layers) * m.num_q_heads;
  std::vector<double> queue_wait;
  double probe_calls = 0, all_calls = 0, retrieved = 0, dist = 0, hops = 0,
         attended = 0, search_s = 0, attn_s = 0, all_dist = 0;
  double prefill_s = 0, prefilled = 0, reused = 0, prompt = 0;
  double first_token = 1e300, last_token = 0;
  for (const Rec& r : run.recs) {
    if (r.first_callback_s >= 0) queue_wait.push_back((r.first_callback_s - r.spec.due_s) * 1e3);
    const RequestResult& res = r.result;
    const double calls = static_cast<double>(res.steps_completed) * heads_per_step;
    all_calls += calls;
    search_s += res.stats.search_seconds;
    attn_s += res.stats.attention_seconds;
    all_dist += static_cast<double>(res.stats.search.dist_comps);
    if (r.spec.probe) {
      probe_calls += calls;
      retrieved += static_cast<double>(res.stats.retrieved_tokens);
      attended += static_cast<double>(res.stats.attended_tokens);
      dist += static_cast<double>(res.stats.search.dist_comps);
      hops += static_cast<double>(res.stats.search.hops);
    }
    prefill_s += res.prefill_wall_seconds;
    prefilled += static_cast<double>(res.prefilled_tokens);
    reused += static_cast<double>(res.reused_prefix);
    prompt += static_cast<double>(r.spec.prompt_len);
    if (!r.token_s.empty()) {
      first_token = std::min(first_token, r.token_s.front());
      last_token = std::max(last_token, r.token_s.back());
    }
  }
  auto per = [](double a, double b) { return b > 0 ? a / b : 0; };
  const StepTrace steps = DetectSteps(run);
  const double decode_wall = std::max(last_token - first_token, 1e-9);
  const double mib = 1024.0 * 1024.0;
  return {
      {"server.queue_wait_ms", Percentile(queue_wait, 0.5), "ms"},
      {"server.step_ms", Percentile(steps.step_ms, 0.5), "ms"},
      {"server.boundary_gap_ms", Percentile(steps.boundary_gap_ms, 0.5), "ms"},
      {"server.decode_batch", Mean(steps.batch), "sessions"},
      {"server.midstep_admissions", static_cast<double>(run.snap.midstep_admissions),
       "count"},
      {"core.prefill_ms_per_ktok", per(prefill_s * 1e6, prefilled), "ms/ktok"},
      {"core.reuse_frac", per(reused, prompt), "ratio"},
      {"core.import_s", h.import_s, "s"},
      {"core.create_session_ms", h.create_session_ms, "ms"},
      {"core.materialize_ms", h.materialize_ms, "ms"},
      {"core.materializations_failed",
       static_cast<double>(run.snap.materializations_failed), "count"},
      {"tier.spills", static_cast<double>(run.snap.tier_spills), "count"},
      {"tier.page_ins", static_cast<double>(run.snap.tier_page_ins), "count"},
      {"tier.prefetches", static_cast<double>(run.snap.tier_prefetches), "count"},
      {"tier.page_in_ms", h.page_in_ms, "ms"},
      {"query.retrieved_per_head", per(retrieved, probe_calls), "tokens"},
      {"query.search_us_per_head", per(search_s * 1e6, all_calls), "us"},
      {"index.dist_comps_per_head", per(dist, probe_calls), "count"},
      {"index.hops_per_head", per(hops, probe_calls), "count"},
      {"attn.attended_per_head", per(attended, probe_calls), "tokens"},
      {"attn.us_per_head", per(attn_s * 1e6, all_calls), "us"},
      {"kernel.dist_per_us", per(all_dist, search_s * 1e6), "1/us"},
      {"pool.parallel_eff",
       per(search_s + attn_s, decode_wall * static_cast<double>(workers + 1)), "ratio"},
      {"device.modeled_busy_s", run.modeled_busy_s, "s"},
      {"device.peak_gpu_mb", static_cast<double>(run.snap.peak_gpu_bytes) / mib, "MB"},
      {"gen.lag_p99_ms", Percentile(traced.gen_lag_ms, 0.99), "ms"},
      {"trace.itl_overhead_pct",
       untraced.itl_p50_ms > 0 ? (traced.itl_p50_ms / untraced.itl_p50_ms - 1) * 100 : 0,
       "%"},
      {"harness.step_coverage", h.step_coverage, "ratio"},
  };
}

/// Callback spans of the engine run, one track per request.
std::vector<Span> RunSpans(const TrafficRun& run) {
  SpanLog log;
  uint64_t track = 0;
  for (const Rec& r : run.recs) {
    ++track;
    auto us = [](double s) { return s * 1e6; };
    Span req{0, 0, track, "request", us(r.spec.due_s),
             us(std::max(r.done_s, r.spec.due_s))};
    const uint64_t root = log.Add(req);
    if (r.first_callback_s >= 0) {
      log.Add({0, root, track, "queued", us(r.spec.due_s), us(r.first_callback_s)});
    }
    double step_start = -1;
    size_t step = 0;
    uint64_t step_id = 0;
    for (const CallbackSpan& c : r.callbacks) {
      if (c.kind == CallbackSpan::kFillPrompt) {
        log.Add({0, root, track, "fill_prompt", us(c.start_s), us(c.end_s)});
        continue;
      }
      if (c.layer == 0) {
        step_start = c.start_s;
        step = c.index;
        const double end = step < r.token_s.size() ? r.token_s[step] : c.end_s;
        step_id = log.Add({0, root, track, "decode_step", us(step_start), us(end)});
      }
      log.Add({0, step_id, track, "fill_step", us(c.start_s), us(c.end_s)});
    }
  }
  return log.spans();
}

void PrintSelfTimes(const std::vector<Span>& spans) {
  const auto table = SelfTimes(spans);
  double total_self = 0;
  for (const auto& [name, t] : table) total_self += t.self_us;
  std::printf("%-34s %8s %12s %12s %8s\n", "span", "count", "total_ms", "self_ms",
              "self_%");
  std::vector<std::pair<std::string, SelfTime>> rows(table.begin(), table.end());
  std::sort(rows.begin(), rows.end(),
            [](const auto& a, const auto& b) { return a.second.self_us > b.second.self_us; });
  for (const auto& [name, t] : rows) {
    std::printf("%-34s %8zu %12.3f %12.3f %8.2f\n", name.c_str(), t.count,
                t.total_us * 1e-3, t.self_us * 1e-3,
                total_self > 0 ? 100 * t.self_us / total_self : 0);
  }
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 0.5); }

int Fail(const std::string& what) {
  std::fprintf(stderr, "servebench: %s\n", what.c_str());
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::string names;
    for (const std::string& n : WorkloadNames()) names += " " + n;
    std::fprintf(stderr,
                 "usage: servebench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--out-dir <dir>]\nworkloads:%s\n",
                 names.c_str());
    return 2;
  }
  const WorkloadConfig* cfg = FindWorkload(args.workload);
  if (cfg == nullptr) return Fail("unknown workload " + args.workload);
  std::error_code ec;
  std::filesystem::create_directories(args.out_dir, ec);
  if (ec) return Fail("cannot create " + args.out_dir);
  const size_t workers = kPoolWorkers;
  const std::string stem = args.out_dir + "/" + cfg->name + "-seed" +
                           std::to_string(args.seed);
  auto spill = [&](const std::string& tag) {
    return args.out_dir + "/spill-" + std::to_string(getpid()) + "-" + tag;
  };
  std::printf("servebench %s seed=%llu seconds=%g trace=%d pool_workers=%zu\n",
              cfg->name.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0, workers);

  // Set-up: generate the corpus, import it, build indices. Repeated; the
  // median is the figure (the last fixture serves the run).
  const size_t repeats = args.trace ? 1 : kSetupRepeats;
  std::vector<double> setup_s;
  std::unique_ptr<Fixture> fx;
  for (size_t i = 0; i < repeats; ++i) {
    fx.reset();
    const double a = NowUs();
    auto built = BuildFixture(*cfg, workers, spill("setup" + std::to_string(i)));
    setup_s.push_back((NowUs() - a) * 1e-6);
    if (!built.ok()) return Fail("set-up: " + built.status().ToString());
    fx = std::move(built.value());
  }
  std::map<size_t, Reference> refs;
  if (Status s = ComputeReferences(*fx, args.seed, args.seconds, &refs); !s.ok()) {
    return Fail("reference: " + s.ToString());
  }

  TrafficRun run = RunTraffic(*fx, args.seed, args.seconds, false);
  const CheckSummary check = CheckRun(*cfg, run, refs, !args.trace);
  const EndToEnd e2e = ComputeEndToEnd(*fx, run, args.seconds);
  PrintEndToEnd(args.trace ? "end-to-end (untraced)" : "end-to-end", e2e);

  if (!args.trace) {
    std::printf("  %-16s %12.4f s   (median of %zu set-ups)\n", "setup_s",
                Median(setup_s), setup_s.size());
    const double peak_rss = PeakRssMb();
    const double rss = Median(run.rss_mb);
    // TTFT, the ITL tail and memory are in the report above but not in the
    // result line: on a shared VM their run-to-run spread exceeds the largest
    // bound the benchmark may set (the prefill wave's thread handoffs and the
    // host's scheduling hiccups). TTFT is gated through the SLO limits.
    const std::vector<Metric> metrics = {
        {"itl_p50_ms", e2e.itl_p50_ms, "ms"},
        {"goodput_tok_s", e2e.goodput_tok_s, "tok/s"},
        {"slo_attain", e2e.slo.attain, "ratio"},
        {"decode_tok_s", e2e.decode_tok_s, "tok/s"},
        {"modeled_ms_per_tok", e2e.modeled_ms_per_tok, "ms"},
        {"fidelity", e2e.fidelity, "ratio"},
        {"setup_s", Median(setup_s), "s"},
    };
    // The peak depends on which large sessions happen to overlap; the median
    // of the samples taken while serving is the steadier memory figure.
    std::printf("  %-16s %12.2f MB   (median of %zu samples while serving; peak %.2f MB)\n",
                "rss_mb", rss, run.rss_mb.size(), peak_rss);
    std::printf("  %-16s %12.4f       (%zu failed of %zu sent)\n", "fail_frac",
                check.attempted ? static_cast<double>(check.failed) / check.attempted : 0,
                check.failed, check.attempted);
    std::printf("%s\n", ResultLine(check.correct, check.attempted, check.failed, metrics)
                            .c_str());
    return check.correct ? 0 : 1;
  }

  // Traced run: a fresh fixture so stores from the untraced run do not leak
  // into it, the same seeded inputs, callback spans on.
  fx.reset();
  auto built = BuildFixture(*cfg, workers, spill("traced"));
  if (!built.ok()) return Fail("set-up: " + built.status().ToString());
  fx = std::move(built.value());
  TrafficRun traced = RunTraffic(*fx, args.seed, args.seconds, true);
  const CheckSummary tcheck = CheckRun(*cfg, traced, refs, true);
  const EndToEnd te2e = ComputeEndToEnd(*fx, traced, args.seconds);
  PrintEndToEnd("end-to-end (traced)", te2e);
  std::printf("tracing overhead: itl_p50 %+.2f%%, decode_tok_s %+.2f%%\n",
              e2e.itl_p50_ms > 0 ? (te2e.itl_p50_ms / e2e.itl_p50_ms - 1) * 100 : 0,
              e2e.decode_tok_s > 0 ? (te2e.decode_tok_s / e2e.decode_tok_s - 1) * 100 : 0);
  const std::vector<Span> run_spans = RunSpans(traced);
  if (!WriteChromeTrace(stem + ".trace.json", run_spans, "request ")) {
    return Fail("cannot write " + stem + ".trace.json");
  }

  const HarnessResult h =
      RunHarness(*fx, args.seed, args.seconds, spill("harness"), kHarnessDecodeSteps);
  if (!h.status.ok()) return Fail("harness: " + h.status.ToString());
  if (!WriteChromeTrace(stem + ".harness.json", h.spans, "harness ")) {
    return Fail("cannot write " + stem + ".harness.json");
  }
  std::printf("layer harness self time (%zu spans, %zu page-ins):\n", h.spans.size(),
              h.page_ins);
  PrintSelfTimes(h.spans);
  std::printf("harness decode-step coverage: %.4f overall, %.4f lowest step (%zu steps)\n",
              h.step_coverage, h.min_step_coverage, h.steps);
  std::printf("traces: %s.trace.json, %s.harness.json\n", stem.c_str(), stem.c_str());

  const std::vector<Metric> metrics =
      LayerMetrics(traced, h, te2e, e2e, workers);
  for (const Metric& mtr : metrics) {
    std::printf("  %-28s %14.6f %s\n", mtr.name.c_str(), mtr.value, mtr.unit.c_str());
  }
  const bool covered = h.step_coverage >= kMinStepCoverage;
  if (!covered) {
    std::fprintf(stderr, "FAIL harness spans cover %.3f of decode-step time (< %.2f)\n",
                 h.step_coverage, kMinStepCoverage);
  }
  const bool correct = check.correct && tcheck.correct && covered;
  std::printf("%s\n", ResultLine(correct, check.attempted + tcheck.attempted,
                                 check.failed + tcheck.failed, metrics)
                          .c_str());
  return correct ? 0 : 1;
}
