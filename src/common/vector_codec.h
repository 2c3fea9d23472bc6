// Quantized vector codecs + the typed SIMD kernel interface for the hot path.
//
// Two ideas, one seam:
//
//   1. **Codecs** (fp32 passthrough, fp16, int8 with per-head scale/zero
//      point): a compressed representation for index key vectors and
//      offloaded KV. Decode is `x = scale * (code - zero_point)` (fp16 has
//      identity params). Encoding data that already lies on the codec's grid
//      reproduces the exact codes — the property the spill path relies on for
//      bit-identical persist/restore round trips.
//
//   2. **Kernel dispatch**: every distance/BLAS-1 primitive the attention and
//      search loops use goes through a function-pointer table resolved ONCE at
//      startup from a CPU-feature probe (AVX2+FMA+F16C on x86, NEON on arm64,
//      scalar everywhere else). The scalar table is bit-exact with the loops
//      vec_math.cc shipped before this layer existed; the coded kernels score
//      *without decoding* (int8 uses the identity
//      dot(q, dec(c)) = scale * (Σ q_i·c_i − zp·Σ q_i), with Σ q_i prepared
//      once per query).
//
// Contract for every kernel in the table (and the vec_math.h wrappers over
// them):
//   - d == 0 is valid and returns 0 / writes nothing;
//   - no alignment requirement beyond the element type's natural alignment
//     (loads are unaligned; callers may pass arbitrary row pointers);
//   - input spans must not alias the output (Axpy's y/x must be distinct);
//   - results across dispatch levels agree to accumulation-order rounding
//     (a few ULP for unit-scale data), NOT bit-exactly: reductions sum in
//     lane-major order. Code that needs replay-stable numbers must compare
//     runs from the same process, where the level is fixed.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "src/common/vec_math.h"
#include "src/index/vector_set.h"

namespace alaya {

/// Wire/deployment representation of a vector element.
enum class VectorCodec : uint8_t { kFp32 = 0, kFp16 = 1, kInt8 = 2 };

const char* VectorCodecName(VectorCodec c);
/// Parses "fp32"/"fp16"/"int8" (bench flags). Returns false on anything else.
bool ParseVectorCodec(const std::string& name, VectorCodec* out);
/// Bytes one encoded scalar occupies: 4 / 2 / 1.
size_t CodecBytesPerScalar(VectorCodec c);

/// Affine dequantization parameters: x = scale * (code - zero_point).
/// One pair per (layer, head, keys|values) tensor; fp32/fp16 use the identity
/// {1, 0} and ignore them.
struct CodecParams {
  float scale = 1.f;
  float zero_point = 0.f;
};

/// IEEE-754 binary16 conversions (round to nearest even, like F16C hardware).
uint16_t Fp16FromFloat(float x);
float Fp16ToFloat(uint16_t h);

/// The single user-facing quantization knob set (DbOptions::quant):
///   index_codec — representation DIPRS/beam search scores graph candidates
///                 on (fp32 keys are kept for build + rerank);
///   kv_codec    — representation stored contexts' KV is rounded to at
///                 materialization (drives deployed-byte accounting, tier
///                 budgets, and the spilled on-disk format);
///   rerank_k    — when index_codec != fp32, the top rerank_k hits of every
///                 search are re-scored against exact fp32 keys (0 disables).
struct QuantOptions {
  VectorCodec index_codec = VectorCodec::kFp32;
  VectorCodec kv_codec = VectorCodec::kFp32;
  size_t rerank_k = 32;
};

// --- Kernel dispatch table -------------------------------------------------

/// Function-pointer table of the hot-path primitives. `Kernels()` returns the
/// best table the running CPU supports; `ScalarKernels()` always returns the
/// portable reference implementations (bit-exact with the historical
/// vec_math.cc loops — the goldens quantization tests diff SIMD against).
struct KernelOps {
  float (*dot)(const float* a, const float* b, size_t d);
  float (*l2sq)(const float* a, const float* b, size_t d);
  void (*axpy)(float* y, const float* x, size_t d, float alpha);
  void (*scale)(float* a, size_t d, float s);
  /// out[i] = <m[i,:], v> for i in [0, rows).
  void (*matvec)(const float* m, size_t rows, size_t d, const float* v, float* out);
  /// <q, decode(c)> for an fp16-coded row (decode-free: widens in registers).
  float (*dot_f16)(const float* q, const uint16_t* c, size_t d);
  /// Raw Σ q_i * c_i over int8 codes — caller applies scale/zero-point via
  /// the q_sum identity (see DotInt8 below).
  float (*dot_i8)(const float* q, const int8_t* c, size_t d);
  const char* level;  ///< "scalar", "avx2", "neon" — for logs and benches.
};

/// The dispatch table the process resolved at startup (probe runs once).
const KernelOps& Kernels();
/// Portable reference table (scalar fallback), independent of the probe.
const KernelOps& ScalarKernels();
/// Dispatch level name, e.g. "avx2"; == Kernels().level.
const char* KernelDispatchLevel();

/// <q, decode(c)> for one int8 row given its params and the precomputed
/// Σ q_i: scale * (dot_i8(q, c, d) - zero_point * q_sum).
inline float DotInt8(const KernelOps& ops, const float* q, const int8_t* c,
                     size_t d, const CodecParams& p, float q_sum) {
  return p.scale * (ops.dot_i8(q, c, d) - p.zero_point * q_sum);
}

// --- Coded storage ---------------------------------------------------------

/// Fits affine int8 params to `count` floats (full range onto [-128, 127]).
/// fp32/fp16 return the identity.
CodecParams ComputeCodecParams(const float* data, size_t count, VectorCodec codec);

/// Rounds `n * d` floats in place onto `codec`'s grid (encode→decode) and
/// reports the params used. The canonical way quantization noise is applied:
/// the resident data stays fp32 (the compute convention of this repo) but
/// carries exactly the information the deployed representation would.
/// kFp32 is a no-op. When `params` is non-null on entry *and*
/// `reuse_params` is true the given params are used instead of refitting —
/// the restore path, where the grid must match what was persisted.
void QuantizeRows(float* data, size_t n, size_t d, VectorCodec codec,
                  CodecParams* params, bool reuse_params = false);

/// Owning, immutable coded copy of one head's vectors (row-major codes).
/// Built once per index; searched decode-free through the kernel table.
class CodedVectorSet {
 public:
  CodedVectorSet() = default;

  /// Encodes `src` (fitting params from the data). kFp32 leaves the set
  /// empty — callers treat an empty set as "score on fp32 directly".
  void Encode(VectorSetView src, VectorCodec codec);
  /// Encodes with caller-fixed params (spill packing uses the params stored
  /// on the KV cache so on-grid data round-trips to identical codes).
  void EncodeWithParams(VectorSetView src, VectorCodec codec, CodecParams params);

  VectorCodec codec() const { return codec_; }
  size_t size() const { return n_; }
  size_t dim() const { return d_; }
  bool empty() const { return n_ == 0; }
  const CodecParams& params() const { return params_; }

  const uint16_t* F16Row(uint32_t id) const { return f16_.data() + size_t(id) * d_; }
  const int8_t* I8Row(uint32_t id) const { return i8_.data() + size_t(id) * d_; }

  /// Decodes one row into `out` (d floats).
  void DecodeRow(uint32_t id, float* out) const;

  uint64_t MemoryBytes() const {
    return f16_.capacity() * sizeof(uint16_t) + i8_.capacity() * sizeof(int8_t);
  }

 private:
  VectorCodec codec_ = VectorCodec::kFp32;
  size_t n_ = 0;
  size_t d_ = 0;
  CodecParams params_;
  std::vector<uint16_t> f16_;
  std::vector<int8_t> i8_;
};

// --- Scoring views for graph search ---------------------------------------

/// What a search scores candidates on: the exact fp32 vectors plus an
/// optional coded sidecar. Implicitly constructible from a bare
/// VectorSetView, so every pre-codec call site keeps compiling (and scoring
/// exactly). When `coded` is present and non-fp32, traversal scores on the
/// codes and the top `rerank_k` survivors are re-scored against fp32.
struct ScoringView {
  VectorSetView fp32;
  const CodedVectorSet* coded = nullptr;
  size_t rerank_k = 0;

  ScoringView() = default;
  ScoringView(VectorSetView v) : fp32(v) {}  // NOLINT: implicit by design.
  ScoringView(VectorSetView v, const CodedVectorSet* c, size_t rk)
      : fp32(v), coded(c), rerank_k(rk) {}

  size_t n() const { return fp32.n; }
  size_t d() const { return fp32.d; }
  /// True when traversal will score approximately (codes, not fp32).
  bool coded_active() const {
    return coded != nullptr && !coded->empty() &&
           coded->codec() != VectorCodec::kFp32;
  }
};

/// Per-query scorer: binds one query to a ScoringView, preparing the
/// codec-specific state (Σ q_i for int8) once, then scores ids decode-free.
class QueryScorer {
 public:
  QueryScorer(const ScoringView& view, const float* q);

  /// Score used for traversal — coded when the view is, exact otherwise.
  float Score(uint32_t id) const {
    switch (codec_) {
      case VectorCodec::kFp16:
        return ops_->dot_f16(q_, coded_->F16Row(id), d_);
      case VectorCodec::kInt8:
        return DotInt8(*ops_, q_, coded_->I8Row(id), d_, coded_->params(), q_sum_);
      case VectorCodec::kFp32:
      default:
        return ops_->dot(q_, fp32_.Vec(id), d_);
    }
  }

  /// Exact fp32 score (the rerank reference), regardless of the view codec.
  float ExactScore(uint32_t id) const { return ops_->dot(q_, fp32_.Vec(id), d_); }

  size_t d() const { return d_; }

 private:
  const float* q_;
  size_t d_;
  VectorSetView fp32_;
  const CodedVectorSet* coded_;
  VectorCodec codec_;
  float q_sum_ = 0.f;
  const KernelOps* ops_;
};

/// Re-scores the best min(view.rerank_k, hits->size()) entries of a
/// best-first hit list against exact fp32 and re-sorts that prefix (desc
/// score, tie asc id — the global ordering convention). No-op unless the
/// view is coded with rerank enabled. Returns the exact dot products spent,
/// for the caller's SearchStats.
size_t RerankTopHits(const ScoringView& view, const float* q,
                     std::vector<ScoredId>* hits);

// --- Batched coded forms ---------------------------------------------------

/// out[i] = <q, decode(row i)> for every row of `coded` (decode-free matvec).
void MatVecDotCoded(const CodedVectorSet& coded, const float* q, float* out);

}  // namespace alaya
