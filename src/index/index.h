// Vector index interfaces and search parameter/result types.
//
// The query optimizer (Fig. 8) chooses among three index classes:
//   - kFlat:   scan all keys (sequential memory access, O(n))
//   - kCoarse: block-grained selection, blocks cached on (simulated) GPU
//   - kFine:   per-key graph index (RoarGraph), searched on CPU
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "src/common/status.h"
#include "src/common/vec_math.h"
#include "src/index/vector_set.h"

namespace alaya {

/// Index classes as named in the paper (Table 4).
enum class IndexClass : int { kFlat = 0, kCoarse = 1, kFine = 2 };

const char* IndexClassName(IndexClass c);

/// Counters accumulated during one search.
struct SearchStats {
  uint64_t dist_comps = 0;  ///< Inner products evaluated.
  uint64_t hops = 0;        ///< Graph nodes expanded.
  uint64_t appended = 0;    ///< Candidates appended (DIPRS list growth).

  SearchStats& operator+=(const SearchStats& o) {
    dist_comps += o.dist_comps;
    hops += o.hops;
    appended += o.appended;
    return *this;
  }
};

/// Parameters for top-k retrieval.
struct TopKParams {
  size_t k = 100;
  /// Beam width for graph search (>= k); ignored by flat/coarse indices.
  size_t ef = 0;

  size_t EffectiveEf() const { return ef >= k ? ef : k; }
};

/// Settings of the DIPR query (Definition 3): return every key whose inner
/// product is within beta of the maximum.
struct DiprOptions {
  float beta = 50.0f;
  /// Capacity threshold l0 of Algorithm 1 (exploration floor).
  size_t l0 = 64;
  /// Hard cap on returned tokens (0 = unlimited); guards worst-case latency.
  size_t max_tokens = 0;
};

/// One DIPR search: the settings plus what the caller knows for this query.
struct DiprParams : DiprOptions {
  /// Window-caching enhancement (§7.1): best inner product among the cached
  /// initial+last window tokens, which holds the global maximum ~98% of the
  /// time; seeding the graph search's threshold with it prunes exploration
  /// immediately. A flat scan computes the exact maximum and ignores it.
  float prior_best_ip = -std::numeric_limits<float>::infinity();
};

/// Optional predicate restricting which token ids may be returned
/// (attribute filtering for partial context reuse, §7.1).
struct IdFilter {
  /// Tokens with id < prefix_len pass. prefix_len == UINT32_MAX disables.
  uint32_t prefix_len = UINT32_MAX;

  bool Pass(uint32_t id) const { return id < prefix_len; }
  bool enabled() const { return prefix_len != UINT32_MAX; }
};

/// Search output: retained (id, score) pairs, best-first.
struct SearchResult {
  std::vector<ScoredId> hits;
  SearchStats stats;

  void Clear() {
    hits.clear();
    stats = SearchStats{};
  }
};

/// Abstract per-head vector index over key vectors.
class VectorIndex {
 public:
  virtual ~VectorIndex() = default;

  virtual IndexClass index_class() const = 0;
  /// Number of indexed vectors.
  virtual size_t size() const = 0;
  /// Bytes of index structure (excluding the raw vectors it points into).
  virtual uint64_t MemoryBytes() const = 0;

  /// Retrieves (approximately) the k keys with the largest inner product
  /// among the ids passing `filter` (a disabled filter passes every id).
  virtual Status SearchTopK(const float* q, const TopKParams& params,
                            const IdFilter& filter, SearchResult* out) const = 0;

  /// Retrieves the DIPR critical set (Definition 3) among the ids passing
  /// `filter`. Indices that cannot process DIPR (coarse) return
  /// NotSupported, matching Table 4.
  virtual Status SearchDipr(const float* q, const DiprParams& params,
                            const IdFilter& filter, SearchResult* out) const = 0;
};

}  // namespace alaya
