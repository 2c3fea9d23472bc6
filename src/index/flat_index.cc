#include "src/index/flat_index.h"

#include <algorithm>

#include "src/common/bounded_heap.h"

namespace alaya {

Status FlatIndex::SearchTopK(const float* q, const TopKParams& params,
                             const IdFilter& filter, SearchResult* out) const {
  if (q == nullptr || out == nullptr) {
    return Status::InvalidArgument("null query/output");
  }
  out->Clear();
  TopKMaxHeap heap(params.k);
  const size_t limit = filter.enabled()
                           ? std::min<size_t>(view_.n, filter.prefix_len)
                           : view_.n;
  for (uint32_t i = 0; i < limit; ++i) {
    heap.Push(i, Dot(q, view_.Vec(i), view_.d));
  }
  out->stats.dist_comps += limit;
  out->hits = heap.TakeSortedDesc();
  return Status::Ok();
}

Status FlatIndex::SearchDipr(const float* q, const DiprParams& params,
                             const IdFilter& filter, SearchResult* out) const {
  if (q == nullptr || out == nullptr) {
    return Status::InvalidArgument("null query/output");
  }
  if (params.beta < 0.f) return Status::InvalidArgument("beta must be >= 0");
  out->Clear();
  const size_t limit = filter.enabled()
                           ? std::min<size_t>(view_.n, filter.prefix_len)
                           : view_.n;
  if (limit == 0) return Status::Ok();

  // Pass 1: exact maximum inner product. Pass 2: collect within beta.
  // (A flat scan computes DIPR exactly — it is the ground-truth oracle the
  // tests use to validate graph-based DIPRS.)
  std::vector<float> scores(limit);
  MatVecDot(view_.data, limit, view_.d, q, scores.data());
  out->stats.dist_comps += limit;
  const float max_ip = MaxValue(scores.data(), limit);
  const float threshold = max_ip - params.beta;
  for (uint32_t i = 0; i < limit; ++i) {
    if (scores[i] >= threshold) out->hits.push_back({i, scores[i]});
  }
  SortByScoreDesc(&out->hits);
  if (params.max_tokens > 0 && out->hits.size() > params.max_tokens) {
    out->hits.resize(params.max_tokens);
  }
  return Status::Ok();
}

}  // namespace alaya
