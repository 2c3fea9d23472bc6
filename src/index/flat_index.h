// Flat index: exhaustive scan over all key vectors (Table 4 "Flat").
//
// Less efficient than a graph for small k, but sequential access makes it the
// better plan when many critical tokens are needed (the optimizer uses it for
// layer 1, Fig. 8).
#pragma once

#include "src/index/index.h"

namespace alaya {

class FlatIndex final : public VectorIndex {
 public:
  /// The index holds a *view*: the caller (KV cache) owns the vectors and must
  /// outlive the index. Flat scans always see the current view.
  explicit FlatIndex(VectorSetView view) : view_(view) {}

  IndexClass index_class() const override { return IndexClass::kFlat; }
  size_t size() const override { return view_.n; }
  uint64_t MemoryBytes() const override { return 0; }  // No structure beyond the data.

  Status SearchTopK(const float* q, const TopKParams& params,
                    const IdFilter& filter, SearchResult* out) const override;
  /// Exact: computes the true maximum, so `params.prior_best_ip` (a
  /// graph-search seed) does not apply.
  Status SearchDipr(const float* q, const DiprParams& params,
                    const IdFilter& filter, SearchResult* out) const override;

 private:
  VectorSetView view_;
};

}  // namespace alaya
