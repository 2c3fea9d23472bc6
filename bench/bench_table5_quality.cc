// Table 5: generation quality of sparse-attention methods on the 8 ∞-Bench
// tasks, with the TPOT <= 0.24 s SLO check. Scores are anchored so Full
// Attention reproduces the paper's row; other methods scale by measured
// attention fidelity (DESIGN.md §2.2).
#include <cstdio>
#include <map>
#include <set>

#include "bench/bench_util.h"
#include "src/index/flat_index.h"
#include "src/index/roargraph.h"
#include "tests/test_util.h"

namespace alaya {
namespace {

/// Quantization quality gate: an int8-coded RoarGraph with fp32 rerank must
/// lose no more than 1% recall@10 against the exact fp32 oracle, relative to
/// the same graph traversed in fp32. Returns false (and the caller exits
/// non-zero) on violation — quantized traversal is only worth shipping if the
/// rerank pass recovers the ordering.
bool RunQuantRecallGate() {
  bench::Header("Quant gate", "int8 + rerank recall vs fp32 RoarGraph");
  constexpr size_t kN = 20000, kDim = 64, kPlanted = 200, kK = 10, kQueries = 64;
  testutil::PlantedMips data(kN, kDim, kPlanted, 23);
  VectorSet training = testutil::MakeTrainingQueries(data, 2000, 24);
  VectorSet probes = testutil::MakeTrainingQueries(data, kQueries, 25);

  RoarGraphOptions fp32_opts;
  RoarGraphOptions int8_opts;
  int8_opts.codec = VectorCodec::kInt8;
  int8_opts.rerank_k = 32;

  RoarGraph fp32_graph(data.keys.View(), fp32_opts);
  RoarGraph int8_graph(data.keys.View(), int8_opts);
  if (!fp32_graph.BuildFromQueries(training.View()).ok()) std::abort();
  if (!int8_graph.BuildFromQueries(training.View()).ok()) std::abort();
  FlatIndex oracle(data.keys.View());

  const TopKParams params{kK, 64};
  double recall_fp32 = 0, recall_int8 = 0;
  for (uint32_t qi = 0; qi < kQueries; ++qi) {
    const float* q = probes.View().Vec(qi);
    SearchResult exact, got32, got8;
    if (!oracle.SearchTopK(q, params, IdFilter{}, &exact).ok()) std::abort();
    if (!fp32_graph.SearchTopK(q, params, IdFilter{}, &got32).ok()) std::abort();
    if (!int8_graph.SearchTopK(q, params, IdFilter{}, &got8).ok()) std::abort();
    std::set<uint32_t> truth;
    for (const auto& h : exact.hits) truth.insert(h.id);
    size_t hit32 = 0, hit8 = 0;
    for (const auto& h : got32.hits) hit32 += truth.count(h.id);
    for (const auto& h : got8.hits) hit8 += truth.count(h.id);
    recall_fp32 += static_cast<double>(hit32) / truth.size();
    recall_int8 += static_cast<double>(hit8) / truth.size();
  }
  recall_fp32 /= kQueries;
  recall_int8 /= kQueries;
  const double loss = recall_fp32 - recall_int8;
  const bool pass = loss <= 0.01;
  std::printf(
      "recall@%zu over %zu queries: fp32 graph %.4f, int8+rerank graph %.4f\n"
      "recall loss %.4f (gate <= 0.0100): %s\n\n",
      kK, kQueries, recall_fp32, recall_int8, loss, pass ? "PASS" : "FAIL");
  return pass;
}

void Run() {
  bench::Header("Table 5", "quality on ∞-Bench tasks (anchored) + SLO check");
  auto suite = InfinityBenchSuite(bench::kContextScale);
  SimEnvironment env;

  std::vector<std::string> method_names;
  std::map<std::string, std::vector<double>> scores;
  std::map<std::string, bool> slo_ok;
  std::map<std::string, double> worst_tpot;

  std::printf("%-16s", "method");
  for (const auto& spec : suite) std::printf("%9s", spec.name.c_str());
  std::printf("%9s\n", "Avg.");

  for (const auto& task : suite) {
    WorkloadSpec spec = task;
    spec.decode_steps = 5;
    SyntheticContext ctx = bench::MakeContext(spec);
    auto methods = bench::Table5Methods(spec, ctx.model().head_dim);
    std::vector<MethodEval> evals;
    for (const auto& m : methods) {
      MethodRunner runner(ctx.model(), m);
      if (!runner.Prepare(ctx, &env).ok()) std::abort();
      EvalOptions opts = bench::ScaledEval(ctx.model(), spec.decode_steps);
      auto eval = EvaluateMethod(ctx, &runner, opts);
      if (!eval.ok()) std::abort();
      evals.push_back(eval.TakeValue());
    }
    AnchorScores(&evals, spec.paper_full_score);
    for (const auto& e : evals) {
      if (scores.find(e.label) == scores.end()) method_names.push_back(e.label);
      scores[e.label].push_back(e.score);
      auto it = slo_ok.find(e.label);
      if (it == slo_ok.end()) {
        slo_ok[e.label] = e.slo_met;
        worst_tpot[e.label] = e.tpot_seconds;
      } else {
        it->second = it->second && e.slo_met;
        worst_tpot[e.label] = std::max(worst_tpot[e.label], e.tpot_seconds);
      }
    }
  }

  for (const auto& name : method_names) {
    std::printf("%-16s", name.c_str());
    double sum = 0;
    for (double s : scores[name]) {
      std::printf("%9.1f", s);
      sum += s;
    }
    std::printf("%9.1f\n", sum / scores[name].size());
  }
  bench::Rule(78);
  std::printf("SLO (TPOT <= 0.24 s at Llama-3-8B-equivalent scale):\n");
  for (const auto& name : method_names) {
    std::printf("  %-16s %s (worst TPOT %s)\n", name.c_str(),
                slo_ok[name] ? "MET    " : "VIOLATED",
                HumanSeconds(worst_tpot[name]).c_str());
  }
  std::printf(
      "\nexpected shape (paper Table 5): DIPRS best average while meeting SLO;\n"
      "Top2000 comparable quality but SLO-violating; Top100 slightly behind\n"
      "DIPRS; StreamingLLM collapses on retrieval tasks; Full Attention\n"
      "violates the SLO on long contexts.\n");
}

}  // namespace
}  // namespace alaya

int main() {
  const bool quant_ok = alaya::RunQuantRecallGate();
  alaya::Run();
  return quant_ok ? 0 : 1;
}
