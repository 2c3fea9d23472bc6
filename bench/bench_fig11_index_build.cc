// Figure 11: index-construction acceleration (§7.2).
//   (a) construction time: CPU baseline (one RoarGraph per query head, built
//       sequentially, RetrievalAttention-style) vs simulated-GPU kNN with the
//       layer pipeline vs GPU + GQA index sharing.
//   (b) index memory with vs without sharing.
// Contexts are scaled down (~1/10 of the paper's 40K-200K) so the CPU
// baseline finishes; the *ratios* are the reproduced result.
//
// Usage: bench_fig11_index_build [--json <path>]
//   --json <path>  also writes one row per context length to <path>: tokens,
//                  CPU / GPU / GPU+share build seconds and the index bytes
//                  without and with sharing.
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/index/index_builder.h"

namespace alaya {
namespace {

struct BuildInputs {
  std::vector<VectorSet> keys;
  std::vector<VectorSet> queries;
  std::vector<VectorSetView> key_views;
  std::vector<VectorSetView> query_views;
};

BuildInputs MakeInputs(const SyntheticContext& ctx, const ModelConfig& m) {
  BuildInputs in;
  for (uint32_t h = 0; h < m.num_kv_heads; ++h) {
    VectorSetView v = ctx.kv().Keys(0, h);
    in.keys.emplace_back(v.d);
    in.keys.back().AppendBatch(v.data, v.n);
  }
  auto training = ctx.MakeTrainingQueries(ctx.num_tokens() * 4 / 10 / m.GroupSize());
  for (uint32_t g = 0; g < m.num_q_heads; ++g) {
    VectorSetView v = training->View(0, g);
    in.queries.emplace_back(v.d);
    in.queries.back().AppendBatch(v.data, v.n);
  }
  for (auto& k : in.keys) in.key_views.push_back(k.View());
  for (auto& q : in.queries) in.query_views.push_back(q.View());
  return in;
}

struct Row {
  size_t tokens = 0;
  double cpu_s = 0, gpu_s = 0, gpu_share_s = 0;
  uint64_t bytes_noshare = 0, bytes_share = 0;
};

int WriteJson(const std::string& path, const std::vector<Row>& rows) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    return 2;
  }
  std::fprintf(f, "{\n  \"figure\": \"fig11_index_build\",\n  \"rows\": [\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(f,
                 "    {\"tokens\": %zu, \"cpu_s\": %.4f, \"gpu_s\": %.4f, "
                 "\"gpu_share_s\": %.4f, \"index_bytes_noshare\": %llu, "
                 "\"index_bytes_share\": %llu}%s\n",
                 r.tokens, r.cpu_s, r.gpu_s, r.gpu_share_s,
                 static_cast<unsigned long long>(r.bytes_noshare),
                 static_cast<unsigned long long>(r.bytes_share),
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  return 0;
}

int Run(const std::string& json_path) {
  bench::Header("Figure 11", "index construction: CPU vs GPU kNN vs GPU+GQA-share");
  ModelConfig model{1, 8, 2, 64, 2};  // One layer, 8 q-heads, GQA 4:1.
  std::printf("%-10s %12s %12s %12s | %12s %12s\n", "context", "CPU(s)", "GPU(s)",
              "GPU+share(s)", "mem noshare", "mem share");

  std::vector<Row> rows;
  for (size_t tokens : {4000u, 8000u, 12000u, 16000u, 20000u}) {
    WorkloadSpec spec = FindTask(InfinityBenchSuite(1.0), "En.QA");
    spec.context_tokens = tokens;
    SyntheticContext ctx = bench::MakeContext(spec, model);
    BuildInputs in = MakeInputs(ctx, model);

    std::vector<std::unique_ptr<RoarGraph>> out;
    IndexBuildStats cpu_stats, gpu_stats, share_stats;

    IndexBuildOptions cpu;  // RetrievalAttention baseline: fully sequential.
    cpu.share_gqa_group = false;
    cpu.use_sim_gpu_knn = false;
    cpu.sequential_cpu_baseline = true;
    if (!BuildLayerIndices(in.key_views, in.query_views, model.GroupSize(), cpu, &out,
                           &cpu_stats)
             .ok()) {
      std::abort();
    }

    IndexBuildOptions gpu;  // GPU kNN + pipeline, still one index per q head.
    gpu.share_gqa_group = false;
    gpu.use_sim_gpu_knn = true;
    if (!BuildLayerIndices(in.key_views, in.query_views, model.GroupSize(), gpu, &out,
                           &gpu_stats)
             .ok()) {
      std::abort();
    }
    const uint64_t mem_noshare = gpu_stats.index_bytes;

    IndexBuildOptions share = gpu;  // + GQA sharing.
    share.share_gqa_group = true;
    if (!BuildLayerIndices(in.key_views, in.query_views, model.GroupSize(), share,
                           &out, &share_stats)
             .ok()) {
      std::abort();
    }

    std::printf("%-10zu %12.2f %12.2f %12.2f | %12s %12s\n", tokens,
                cpu_stats.reported_seconds, gpu_stats.reported_seconds,
                share_stats.reported_seconds, HumanBytes(mem_noshare).c_str(),
                HumanBytes(share_stats.index_bytes).c_str());
    rows.push_back({tokens, cpu_stats.reported_seconds, gpu_stats.reported_seconds,
                    share_stats.reported_seconds, mem_noshare, share_stats.index_bytes});
  }
  bench::Rule(78);
  std::printf(
      "expected shape (paper): GPU kNN + pipeline gives 3-15x over the CPU\n"
      "baseline; GQA sharing lifts it to 12-62x and shrinks index memory ~4x\n"
      "(h_q/h_kv = 4).\n");
  return json_path.empty() ? 0 : WriteJson(json_path, rows);
}

}  // namespace
}  // namespace alaya

int main(int argc, char** argv) {
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) json_path = argv[++i];
  }
  return alaya::Run(json_path);
}
