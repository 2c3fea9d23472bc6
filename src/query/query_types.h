// Query classes supported by the query processing engine (Fig. 3, §6.2).
//
// Table 4's support matrix is not a runtime table: the rule-based optimizer
// (optimizer.h) only pairs top-k with the coarse index and DIPR with the fine
// or flat index, and CoarseIndex rejects DIPR with kNotSupported.
#pragma once

namespace alaya {

/// How critical tokens are retrieved for sparse attention.
enum class QueryClass : int {
  kFullAttention = 0,  ///< No retrieval; attend to everything (short contexts).
  kTopK = 1,           ///< Traditional fixed-k retrieval.
  kDipr = 2,           ///< Dynamic inner-product range (Definition 3).
};

const char* QueryClassName(QueryClass c);

}  // namespace alaya
