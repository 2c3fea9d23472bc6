#include "src/query/query_types.h"

namespace alaya {

const char* QueryClassName(QueryClass c) {
  switch (c) {
    case QueryClass::kFullAttention:
      return "full_attention";
    case QueryClass::kTopK:
      return "topk";
    case QueryClass::kDipr:
      return "dipr";
  }
  return "?";
}

}  // namespace alaya
