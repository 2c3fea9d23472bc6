// Rule-based query optimizer (Fig. 8): picks the attention mode, query type,
// and index type for one attention call, given context length, reuse state,
// GPU memory budget, and layer id.
#pragma once

#include <cstdint>
#include <string>

#include "src/index/index.h"
#include "src/query/query_types.h"

namespace alaya {

struct OptimizerOptions {
  /// Contexts at or below this length use full attention (retrieval overhead
  /// is not worth it; quality is exact).
  size_t short_context_threshold = 4096;
  /// Default top-k when the coarse plan is chosen.
  TopKParams coarse_topk{/*k=*/4096, /*ef=*/0};
  /// Default DIPR settings.
  DiprOptions dipr{/*beta=*/50.0f, /*l0=*/64, /*max_tokens=*/0};
  /// Bytes of GPU memory required per cached token under the coarse plan
  /// (K + V in deployed precision; bf16 Llama-3-8B: 2 * 128 * 2 bytes).
  uint32_t coarse_bytes_per_token = 512;
};

/// Everything the optimizer looks at for one attention call.
struct QueryContext {
  size_t context_length = 0;
  /// True when the session reuses only a prefix of a stored context (§7.1).
  bool partial_reuse = false;
  uint32_t reused_prefix_len = UINT32_MAX;
  /// Available (or user-capped) GPU memory for this session's KV blocks.
  uint64_t gpu_budget_bytes = 0;
  /// Transformer layer (0-based). Layer 0 needs many critical tokens (Fig. 5),
  /// so it scans instead of graph-searching.
  int layer_id = 0;
};

/// The chosen execution plan.
struct QueryPlan {
  QueryClass query = QueryClass::kFullAttention;
  /// Meaningful only when query != kFullAttention.
  IndexClass index = IndexClass::kFine;
  TopKParams topk;
  DiprOptions dipr;
  IdFilter filter;  ///< Enabled when the context is partially reused.

  /// EXPLAIN-style one-liner, e.g. "dipr(beta=50) on fine index + filter".
  std::string Explain() const;
};

/// The rule-based optimizer of Fig. 8. Deterministic and side-effect free;
/// one instance serves all sessions.
class RuleBasedOptimizer {
 public:
  explicit RuleBasedOptimizer(const OptimizerOptions& options = OptimizerOptions{})
      : options_(options) {}

  /// Decision procedure of Fig. 8:
  ///   short context                -> full attention
  ///   partial reuse                -> + attribute filter (prefix predicate)
  ///   enough GPU budget            -> top-k on coarse index
  ///   tight budget, layer 0        -> DIPR on flat index
  ///   tight budget, deeper layers  -> DIPR on fine (graph) index
  QueryPlan Plan(const QueryContext& ctx) const;

  const OptimizerOptions& options() const { return options_; }

 private:
  OptimizerOptions options_;
};

}  // namespace alaya
